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
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "codec/encoder.h"
#include "kernels/kernel_ops.h"
#include "ngc/ngc_encoder.h"
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

uint64_t
fnv1a(const std::vector<uint8_t> &data)
{
    uint64_t h = 0xCBF29CE484222325ull;
    for (const uint8_t b : data) {
        h ^= b;
        h *= 0x100000001B3ull;
    }
    return h;
}

std::string
digest(const std::vector<uint8_t> &stream)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%zu:%016llx", stream.size(),
                  static_cast<unsigned long long>(fnv1a(stream)));
    return buf;
}

struct VbcGolden {
    int effort;
    const char *digest;  ///< "<bytes>:<fnv1a-64>"
};

struct NgcGolden {
    ngc::NgcProfile profile;
    int speed;
    const char *digest;
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
    }
}

INSTANTIATE_TEST_SUITE_P(
    Efforts, VbcGoldenStream,
    ::testing::Values(VbcGolden{2, "5926:b4aa2c8d3b40f640"},
                      VbcGolden{5, "3924:1947a4d9b9ecaeb3"},
                      VbcGolden{9, "3920:9804bf28c6f2dade"}),
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
    }
}

INSTANTIATE_TEST_SUITE_P(
    ProfilesAndSpeeds, NgcGoldenStream,
    ::testing::Values(
        NgcGolden{ngc::NgcProfile::HevcLike, 0, "5716:49ab1e646fcf45f6"},
        NgcGolden{ngc::NgcProfile::HevcLike, 1, "5703:0bc7d451af268424"},
        NgcGolden{ngc::NgcProfile::Vp9Like, 0, "5722:c64dd54b6c37ed7f"},
        NgcGolden{ngc::NgcProfile::Vp9Like, 1, "5712:15d4128420e20fbc"}),
    [](const ::testing::TestParamInfo<NgcGolden> &info) {
        return std::string(info.param.profile == ngc::NgcProfile::HevcLike
                               ? "hevc"
                               : "vp9") +
            "_speed" + std::to_string(info.param.speed);
    });

} // namespace
} // namespace vbench
