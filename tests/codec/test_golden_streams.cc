/**
 * @file
 * Golden stream digests: the exact bytes both encoders produce for one
 * small fixed synthetic clip, pinned across commits. Every other
 * byte-identity gate compares two runs of the same build (thread
 * widths, slices, ISAs, segments); this one compares against bytes a
 * previous build wrote, so a speed-only change to motion search or a
 * distortion kernel that silently moves a decision fails here.
 *
 * The cases span the search strategies and distortion metrics: VBC
 * effort 2 (hexagon, full-pel only), 5 (hexagon, SATD sub-pel and
 * intra) and 9 (exhaustive, SATD sub-pel and intra), and NGC HEVC-like
 * and VP9-like at speeds 0 (VP9-like: exhaustive) and 1. Each case is
 * encoded at every kernel ISA level the host can run, all against the
 * same digest. A deliberate bitstream change updates the table from
 * the printed digests, and says why in the commit.
 *
 * Three more pins ride along:
 *  - variants of VBC effort 5 and NGC HEVC-like speed 1 that take the
 *    other frame-pipeline paths: 2 and 4 entropy slices, ABR, and
 *    two-pass with its internal first pass, each one digest checked
 *    at wavefront widths 1 and 4;
 *  - the decoded frames of every pinned stream, so decoder output is
 *    pinned across commits too;
 *  - the uarch probe record stream (kernel, units, decision bits and
 *    region shapes, never addresses) of four encodes and both
 *    decoders: the figures the uarch models draw are a function of
 *    exactly this sequence.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "codec/decoder.h"
#include "codec/encoder.h"
#include "kernels/kernel_ops.h"
#include "ngc/ngc_decoder.h"
#include "ngc/ngc_encoder.h"
#include "uarch/probe.h"
#include "video/synth.h"

namespace vbench {
namespace {

/**
 * 176x112 (not a multiple of NGC's 32-pixel superblock), 8 frames: two
 * GOPs of fast-pan sports content, so every search reaches its range.
 */
const video::Video &
goldenClip()
{
    static const video::Video clip = video::synthesize(
        video::presetFor(video::ContentClass::Sports, 176, 112, 30.0, 8,
                         2024),
        "golden");
    return clip;
}

/** Kernel ISA levels this host and build can run. */
std::vector<kernels::Isa>
availableIsas()
{
    std::vector<kernels::Isa> out;
    for (const kernels::Isa isa :
         {kernels::Isa::Scalar, kernels::Isa::Sse2, kernels::Isa::Avx2}) {
        if (kernels::opsFor(isa) != nullptr)
            out.push_back(isa);
    }
    return out;
}

constexpr uint64_t kFnvOffset = 0xCBF29CE484222325ull;

uint64_t
fnv1a(const uint8_t *data, size_t size, uint64_t h = kFnvOffset)
{
    for (size_t i = 0; i < size; ++i) {
        h ^= data[i];
        h *= 0x100000001B3ull;
    }
    return h;
}

std::string
digest(size_t count, uint64_t hash)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%zu:%016llx", count,
                  static_cast<unsigned long long>(hash));
    return buf;
}

std::string
digest(const std::vector<uint8_t> &stream)
{
    return digest(stream.size(), fnv1a(stream.data(), stream.size()));
}

/** "<frames>:<fnv1a-64 over every plane of every frame>", or "none". */
std::string
decodedDigest(const std::optional<video::Video> &decoded)
{
    if (!decoded)
        return "none";
    uint64_t h = kFnvOffset;
    for (int i = 0; i < decoded->frameCount(); ++i) {
        const video::Frame &f = decoded->frame(i);
        for (const video::Plane *p : {&f.y(), &f.u(), &f.v()})
            h = fnv1a(p->data(), p->size(), h);
    }
    return digest(static_cast<size_t>(decoded->frameCount()), h);
}

/**
 * Hashes every probe record in order: kernel, units, decision bits,
 * decision count, and each region's shape and direction. Region base
 * addresses are left out; they move with the heap layout (ASLR).
 */
class RecordDigestProbe final : public uarch::UarchProbe
{
  public:
    void
    record(uarch::KernelId id, uint64_t units, uint64_t decision_bits,
           int n_decisions,
           std::initializer_list<uarch::MemRegion> regions) override
    {
        mix(static_cast<uint64_t>(id));
        mix(units);
        mix(decision_bits);
        mix(static_cast<uint64_t>(n_decisions));
        mix(regions.size());
        for (const uarch::MemRegion &r : regions) {
            mix(r.row_bytes);
            mix(r.rows);
            mix(r.stride);
            mix(r.write ? 1 : 0);
        }
        ++count_;
    }
    using uarch::UarchProbe::record;

    std::string digest() const { return vbench::digest(count_, hash_); }

  private:
    void
    mix(uint64_t v)
    {
        uint8_t bytes[8];
        for (int i = 0; i < 8; ++i)
            bytes[i] = static_cast<uint8_t>(v >> (8 * i));
        hash_ = fnv1a(bytes, sizeof bytes, hash_);
    }

    uint64_t hash_ = kFnvOffset;
    size_t count_ = 0;
};

struct VbcGolden {
    int effort;
    const char *digest;   ///< "<bytes>:<fnv1a-64>"
    const char *decoded;  ///< decodedDigest of the stream
};

struct NgcGolden {
    ngc::NgcProfile profile;
    int speed;
    const char *digest;
    const char *decoded;
};

void
PrintTo(const VbcGolden &g, std::ostream *os)
{
    *os << "VBC effort " << g.effort;
}

void
PrintTo(const NgcGolden &g, std::ostream *os)
{
    *os << ngc::toString(g.profile) << " speed " << g.speed;
}

class VbcGoldenStream : public ::testing::TestWithParam<VbcGolden>
{
};

TEST_P(VbcGoldenStream, BytesMatchPinnedDigest)
{
    codec::EncoderConfig cfg;  // default CRF rate control
    cfg.effort = GetParam().effort;
    cfg.gop = 4;
    cfg.frame_threads = 1;
    cfg.slice_count = 1;
    for (const kernels::Isa isa : availableIsas()) {
        kernels::ScopedKernelIsa pin(isa);
        const codec::EncodeResult out =
            codec::Encoder(cfg).encode(goldenClip());
        EXPECT_EQ(digest(out.stream), GetParam().digest)
            << "VBC effort " << cfg.effort << ", ISA "
            << kernels::isaName(isa);
        EXPECT_EQ(decodedDigest(codec::decode(out.stream)),
                  GetParam().decoded)
            << "VBC effort " << cfg.effort << ", ISA "
            << kernels::isaName(isa);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Efforts, VbcGoldenStream,
    ::testing::Values(
        VbcGolden{2, "5926:b4aa2c8d3b40f640", "8:2d64ee835dce4721"},
        VbcGolden{5, "3924:1947a4d9b9ecaeb3", "8:ab878ac83015b2d9"},
        VbcGolden{9, "3920:9804bf28c6f2dade", "8:68b9a80fb55324b8"}),
    [](const ::testing::TestParamInfo<VbcGolden> &info) {
        return "effort" + std::to_string(info.param.effort);
    });

class NgcGoldenStream : public ::testing::TestWithParam<NgcGolden>
{
};

TEST_P(NgcGoldenStream, BytesMatchPinnedDigest)
{
    ngc::NgcConfig cfg;  // default CRF rate control
    cfg.profile = GetParam().profile;
    cfg.speed = GetParam().speed;
    cfg.gop = 4;
    cfg.frame_threads = 1;
    cfg.slice_count = 1;
    for (const kernels::Isa isa : availableIsas()) {
        kernels::ScopedKernelIsa pin(isa);
        const codec::EncodeResult out =
            ngc::NgcEncoder(cfg).encode(goldenClip());
        EXPECT_EQ(digest(out.stream), GetParam().digest)
            << ngc::toString(cfg.profile) << " speed " << cfg.speed
            << ", ISA " << kernels::isaName(isa);
        EXPECT_EQ(decodedDigest(ngc::ngcDecode(out.stream)),
                  GetParam().decoded)
            << ngc::toString(cfg.profile) << " speed " << cfg.speed
            << ", ISA " << kernels::isaName(isa);
    }
}

INSTANTIATE_TEST_SUITE_P(
    ProfilesAndSpeeds, NgcGoldenStream,
    ::testing::Values(
        NgcGolden{ngc::NgcProfile::HevcLike, 0, "5716:49ab1e646fcf45f6",
                  "8:3ba17e954f136179"},
        NgcGolden{ngc::NgcProfile::HevcLike, 1, "5703:0bc7d451af268424",
                  "8:504b8e81a0dbfed0"},
        NgcGolden{ngc::NgcProfile::Vp9Like, 0, "5722:c64dd54b6c37ed7f",
                  "8:e88fa2066ca6b134"},
        NgcGolden{ngc::NgcProfile::Vp9Like, 1, "5712:15d4128420e20fbc",
                  "8:6987f45c6a10bbfa"}),
    [](const ::testing::TestParamInfo<NgcGolden> &info) {
        return std::string(info.param.profile == ngc::NgcProfile::HevcLike
                               ? "hevc"
                               : "vp9") +
            "_speed" + std::to_string(info.param.speed);
    });

/**
 * The pipeline paths the CRF cases above never take: multi-slice
 * entropy (length-prefixed slice records, slice-bounded prediction),
 * ABR feedback, and two-pass with the internal first pass. One digest
 * per variant, checked at wavefront widths 1 and 4.
 */
struct GoldenVariant {
    const char *name;
    codec::RcMode mode;
    int slices;
    const char *vbc_digest;   ///< VBC effort 5
    const char *vbc_decoded;
    const char *ngc_digest;   ///< NGC HEVC-like speed 1
    const char *ngc_decoded;
};

void
PrintTo(const GoldenVariant &g, std::ostream *os)
{
    *os << g.name;
}

codec::RateControlConfig
variantRc(const GoldenVariant &v)
{
    codec::RateControlConfig rc;
    rc.mode = v.mode;
    rc.bitrate_bps = 200000;  // ABR / two-pass target; CRF ignores it
    return rc;
}

class GoldenVariantStream : public ::testing::TestWithParam<GoldenVariant>
{
};

TEST_P(GoldenVariantStream, VbcBytesMatchPinnedDigest)
{
    codec::EncoderConfig cfg;
    cfg.rc = variantRc(GetParam());
    cfg.effort = 5;
    cfg.gop = 4;
    cfg.slice_count = GetParam().slices;
    for (const kernels::Isa isa : availableIsas()) {
        kernels::ScopedKernelIsa pin(isa);
        for (const int width : {1, 4}) {
            cfg.frame_threads = width;
            const codec::EncodeResult out =
                codec::Encoder(cfg).encode(goldenClip());
            EXPECT_EQ(digest(out.stream), GetParam().vbc_digest)
                << GetParam().name << ", width " << width << ", ISA "
                << kernels::isaName(isa);
            EXPECT_EQ(decodedDigest(codec::decode(out.stream)),
                      GetParam().vbc_decoded)
                << GetParam().name << ", width " << width << ", ISA "
                << kernels::isaName(isa);
        }
    }
}

TEST_P(GoldenVariantStream, NgcBytesMatchPinnedDigest)
{
    ngc::NgcConfig cfg;
    cfg.rc = variantRc(GetParam());
    cfg.profile = ngc::NgcProfile::HevcLike;
    cfg.speed = 1;
    cfg.gop = 4;
    cfg.slice_count = GetParam().slices;
    for (const kernels::Isa isa : availableIsas()) {
        kernels::ScopedKernelIsa pin(isa);
        for (const int width : {1, 4}) {
            cfg.frame_threads = width;
            const codec::EncodeResult out =
                ngc::NgcEncoder(cfg).encode(goldenClip());
            EXPECT_EQ(digest(out.stream), GetParam().ngc_digest)
                << GetParam().name << ", width " << width << ", ISA "
                << kernels::isaName(isa);
            EXPECT_EQ(decodedDigest(ngc::ngcDecode(out.stream)),
                      GetParam().ngc_decoded)
                << GetParam().name << ", width " << width << ", ISA "
                << kernels::isaName(isa);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    SlicesAndRateControl, GoldenVariantStream,
    ::testing::Values(
        GoldenVariant{"slices2", codec::RcMode::Crf, 2,
                      "4344:949e33f17ff660f8", "8:8d063c704b148020",
                      "5997:13fedb3f224aa191", "8:0aca792e71886253"},
        GoldenVariant{"slices4", codec::RcMode::Crf, 4,
                      "4981:b7b347a324707ec9", "8:07c46da26ea755ca",
                      "6358:10f8db4edfab35c9", "8:e9997d10bc278a9f"},
        GoldenVariant{"abr", codec::RcMode::Abr, 1,
                      "3572:bc4f67f6d327984b", "8:20bd6ddefe065d7d",
                      "4237:ecbd1bec20def5a4", "8:31475a92942b22a3"},
        GoldenVariant{"twopass", codec::RcMode::TwoPass, 1,
                      "5601:aef6183dad05e1e2", "8:7b941f3efb98db5d",
                      "7641:d28954b70325e716", "8:75ae67778f97f183"}),
    [](const ::testing::TestParamInfo<GoldenVariant> &info) {
        return std::string(info.param.name);
    });

/**
 * Probe record streams. The encodes ask for width 4 and 4 slices: an
 * attached probe pins both to 1, so the stream must still be the
 * pinned single-slice one.
 */
struct ProbeGolden {
    const char *name;
    bool ngc;
    int level;  ///< VBC effort or NGC speed
    ngc::NgcProfile profile;
    const char *stream;  ///< the single-slice golden digest above
    const char *encode_records;  ///< "<records>:<fnv1a-64>"
};

void
PrintTo(const ProbeGolden &g, std::ostream *os)
{
    *os << g.name;
}

codec::ByteBuffer
goldenEncode(const ProbeGolden &g, int width, int slices,
             uarch::UarchProbe *probe)
{
    if (g.ngc) {
        ngc::NgcConfig cfg;
        cfg.profile = g.profile;
        cfg.speed = g.level;
        cfg.gop = 4;
        cfg.frame_threads = width;
        cfg.slice_count = slices;
        cfg.probe = probe;
        return ngc::NgcEncoder(cfg).encode(goldenClip()).stream;
    }
    codec::EncoderConfig cfg;
    cfg.effort = g.level;
    cfg.gop = 4;
    cfg.frame_threads = width;
    cfg.slice_count = slices;
    cfg.probe = probe;
    return codec::Encoder(cfg).encode(goldenClip()).stream;
}

class ProbeRecordStream : public ::testing::TestWithParam<ProbeGolden>
{
};

TEST_P(ProbeRecordStream, EncodeRecordsMatchPinnedDigest)
{
    for (const kernels::Isa isa : availableIsas()) {
        kernels::ScopedKernelIsa pin(isa);
        RecordDigestProbe probe;
        const codec::ByteBuffer stream =
            goldenEncode(GetParam(), 4, 4, &probe);
        EXPECT_EQ(digest(stream), GetParam().stream)
            << GetParam().name << ", ISA " << kernels::isaName(isa);
        EXPECT_EQ(probe.digest(), GetParam().encode_records)
            << GetParam().name << ", ISA " << kernels::isaName(isa);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Encoders, ProbeRecordStream,
    ::testing::Values(
        ProbeGolden{"vbc_effort5", false, 5, ngc::NgcProfile::HevcLike,
                    "3924:1947a4d9b9ecaeb3", "8863:7e851021440216ca"},
        ProbeGolden{"vbc_effort9", false, 9, ngc::NgcProfile::HevcLike,
                    "3920:9804bf28c6f2dade", "18166:93860242f6a94445"},
        ProbeGolden{"hevc_speed1", true, 1, ngc::NgcProfile::HevcLike,
                    "5703:0bc7d451af268424", "22944:57097729b317019d"},
        ProbeGolden{"vp9_speed0", true, 0, ngc::NgcProfile::Vp9Like,
                    "5722:c64dd54b6c37ed7f", "26109:c6d96fa6e0ff3d9a"}),
    [](const ::testing::TestParamInfo<ProbeGolden> &info) {
        return std::string(info.param.name);
    });

TEST(ProbeRecordStream, DecoderRecordsMatchPinnedDigest)
{
    const ProbeGolden vbc{"vbc", false, 5, ngc::NgcProfile::HevcLike,
                          "", ""};
    const ProbeGolden hevc{"hevc", true, 1, ngc::NgcProfile::HevcLike,
                           "", ""};
    const codec::ByteBuffer vbc_stream = goldenEncode(vbc, 1, 1, nullptr);
    const codec::ByteBuffer ngc_stream = goldenEncode(hevc, 1, 1, nullptr);
    for (const kernels::Isa isa : availableIsas()) {
        kernels::ScopedKernelIsa pin(isa);
        RecordDigestProbe vbc_probe;
        EXPECT_TRUE(codec::decode(vbc_stream, {&vbc_probe}).has_value());
        EXPECT_EQ(vbc_probe.digest(), "2179:3c327c2943625592")
            << "VBC decoder, ISA " << kernels::isaName(isa);
        RecordDigestProbe ngc_probe;
        EXPECT_TRUE(ngc::ngcDecode(ngc_stream, {&ngc_probe}).has_value());
        EXPECT_EQ(ngc_probe.digest(), "1655:361d09cf6e214483")
            << "NGC decoder, ISA " << kernels::isaName(isa);
    }
}

} // namespace
} // namespace vbench
