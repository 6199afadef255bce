/**
 * @file
 * Pixel-kernel micro-benchmarks over the runtime dispatch tables.
 *
 * Default mode times every kernel at each ISA level available on the
 * host in repeated rounds, the ISAs taking turns, prints a table, and
 * writes BENCH_kernels.json with ns/op (minimum and median over the
 * rounds) and speedup-vs-scalar per kernel per ISA, plus an end-to-end
 * encode timing per ISA (the minimum and median of repeated encodes,
 * interleaved across ISAs). Two auxiliary modes support
 * scripts/check.sh:
 *
 *   --smoke   quick randomized scalar-vs-vector equivalence check, plus
 *             half-pel planes against block interpolation at every
 *             ISA; exits nonzero on any mismatch.
 *   --digest  encode a deterministic synthetic clip with both codecs
 *             (VBC at efforts 2 and 9 and NGC VP9-like at speed 0, so
 *             the exhaustive search runs at block sizes 8, 16 and 32
 *             and the SATD sub-pel/intra paths are covered) under the
 *             dispatch-selected ISA and print stream bytes, a stream
 *             hash, and the quality scores of the decoded VBC and NGC
 *             speed-1 streams (so both decoders' deblocking and
 *             reconstruction run too) — byte-identical output across
 *             VBENCH_ISA settings by construction.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "codec/decoder.h"
#include "codec/encoder.h"
#include "codec/refplane.h"
#include "kernels/kernel_ops.h"
#include "metrics/psnr.h"
#include "metrics/ssim.h"
#include "ngc/ngc_decoder.h"
#include "ngc/ngc_encoder.h"
#include "video/plane.h"
#include "video/rng.h"
#include "video/synth.h"

namespace {

using namespace vbench;
using kernels::Isa;
using kernels::KernelOps;
using Clock = std::chrono::steady_clock;

volatile uint64_t g_sink = 0;

std::vector<Isa>
availableLevels()
{
    std::vector<Isa> out;
    for (const Isa isa : {Isa::Scalar, Isa::Sse2, Isa::Avx2}) {
        if (kernels::opsFor(isa) != nullptr)
            out.push_back(isa);
    }
    return out;
}

/** Shared deterministic input data, built once. */
struct BenchData {
    std::vector<uint8_t> plane_a;
    std::vector<uint8_t> plane_b;
    std::vector<uint8_t> deblock_plane; ///< see the constructor
    int stride = 640;
    int height = 360;
    int16_t residual64[64];
    int32_t coefs16[16];
    int32_t coefs64[64];
    int16_t levels16[16];
    int16_t levels256[256];  ///< a 16x16 block's quantBlock levels
    uint32_t offsets[64];
    /// A 640x360 encode's padded luma reference (640x368), whose
    /// half-pel planes the half_pel_planes row rebuilds in place.
    mutable codec::RefPlane reference;

    BenchData()
    {
        video::Rng rng(7);
        video::Plane luma(640, 368);
        for (int y = 0; y < luma.height(); ++y)
            for (int x = 0; x < luma.width(); ++x)
                luma.at(x, y) = static_cast<uint8_t>(rng.below(256));
        reference.assign(luma);
        reference.buildHalfPel();  // allocate outside the timed runs
        plane_a.resize(static_cast<size_t>(stride) * height);
        plane_b.resize(plane_a.size());
        for (size_t i = 0; i < plane_a.size(); ++i) {
            plane_a[i] = static_cast<uint8_t>(rng.below(256));
            plane_b[i] = static_cast<uint8_t>(rng.below(256));
        }
        for (auto &v : residual64)
            v = static_cast<int16_t>(rng.range(-255, 255));
        for (auto &v : coefs16)
            v = static_cast<int32_t>(rng.range(-2048, 2048));
        for (auto &v : coefs64)
            v = static_cast<int32_t>(rng.range(-2048, 2048));
        for (auto &v : levels16)
            v = static_cast<int16_t>(rng.range(-64, 64));
        // Varied block positions so SAD-style kernels do not hit one
        // cache line forever; keep 16x16 reads in bounds.
        for (auto &o : offsets)
            o = static_cast<uint32_t>(
                rng.below(static_cast<uint64_t>(stride) * (height - 24)));
        kernels::scalarOps()->quantBlock(plane_a.data(), stride,
                                         plane_b.data(), stride, 16, 30,
                                         false, levels256);
        // Deblocking input: flat 4x4 blocks at levels 100-160 plus
        // +-6 of sample noise. Against alpha 40 and beta 10 about three
        // edge samples in four pass the filter decision and the rest
        // fail it, as on coded content; on uniform noise nearly every
        // sample fails and only the early exit would be timed.
        const int block_cols = stride / 4;
        std::vector<int> block_levels(
            static_cast<size_t>(block_cols) * (height / 4));
        for (int &l : block_levels)
            l = static_cast<int>(rng.range(100, 160));
        deblock_plane.resize(plane_a.size());
        for (int y = 0; y < height; ++y)
            for (int x = 0; x < stride; ++x)
                deblock_plane[static_cast<size_t>(y) * stride + x] =
                    static_cast<uint8_t>(
                        block_levels[static_cast<size_t>(y / 4) *
                                         block_cols + x / 4] +
                        rng.range(-6, 6));
    }
};

using BenchFn =
    std::function<void(const KernelOps &, const BenchData &, long)>;

struct KernelBench {
    const char *name;
    BenchFn run; ///< executes `iters` ops against one dispatch table
};

std::vector<KernelBench>
kernelBenches()
{
    std::vector<KernelBench> out;
    out.push_back({"sad_16x16", [](const KernelOps &k, const BenchData &d,
                                   long iters) {
                       uint64_t acc = 0;
                       for (long i = 0; i < iters; ++i) {
                           const uint32_t o = d.offsets[i & 63];
                           acc += k.sad(d.plane_a.data() + o, d.stride,
                                        d.plane_b.data() + o, d.stride,
                                        16, 16);
                       }
                       g_sink = g_sink + acc;
                   }});
    // One exhaustive-search SAD map each: effort 9's 16x16 search at
    // range 12 (a 25 x 25 window) and its 8x8 search at range 6.
    struct MapShape {
        const char *name;
        int bs;
        int span;
    };
    for (const MapShape shape : {MapShape{"sad_map_16x16_r12", 16, 25},
                                 MapShape{"sad_map_8x8_r6", 8, 13}}) {
        const int bs = shape.bs;
        const int span = shape.span;
        out.push_back({shape.name, [bs, span](const KernelOps &k,
                                              const BenchData &d,
                                              long iters) {
                           // Keep the window's bs + span rows in the plane.
                           const uint32_t limit = static_cast<uint32_t>(
                               d.stride * (d.height - 48));
                           uint32_t map[25 * 25];
                           uint64_t acc = 0;
                           for (long i = 0; i < iters; ++i) {
                               const uint32_t o = d.offsets[i & 63] % limit;
                               k.sadMap(d.plane_a.data() + o, d.stride,
                                        d.plane_b.data() + o, d.stride, bs,
                                        bs, span, span, map);
                               acc += map[i % (span * span)];
                           }
                           g_sink = g_sink + acc;
                       }});
    }
    out.push_back({"satd_8x8", [](const KernelOps &k, const BenchData &d,
                                  long iters) {
                       uint64_t acc = 0;
                       for (long i = 0; i < iters; ++i) {
                           const uint32_t o = d.offsets[i & 63];
                           acc += k.satd(d.plane_a.data() + o, d.stride,
                                         d.plane_b.data() + o, d.stride,
                                         8, 8);
                       }
                       g_sink = g_sink + acc;
                   }});
    out.push_back({"copy2d_16x16", [](const KernelOps &k,
                                      const BenchData &d, long iters) {
                       uint8_t dst[16 * 16];
                       for (long i = 0; i < iters; ++i)
                           k.copy2d(d.plane_a.data() + d.offsets[i & 63],
                                    d.stride, dst, 16, 16, 16);
                       g_sink = g_sink + dst[0];
                   }});
    out.push_back({"interp_h_16x16", [](const KernelOps &k,
                                        const BenchData &d, long iters) {
                       uint8_t dst[16 * 16];
                       for (long i = 0; i < iters; ++i)
                           k.interpH(d.plane_a.data() + d.offsets[i & 63],
                                     d.stride, dst, 16, 16, 16);
                       g_sink = g_sink + dst[0];
                   }});
    out.push_back({"interp_hv_16x16", [](const KernelOps &k,
                                         const BenchData &d, long iters) {
                       uint8_t dst[16 * 16];
                       for (long i = 0; i < iters; ++i)
                           k.interpHV(d.plane_a.data() + d.offsets[i & 63],
                                      d.stride, dst, 16, 16, 16);
                       g_sink = g_sink + dst[0];
                   }});
    // What an encode that searches sub-pel positions adds per P frame
    // in place of interpolating candidates one by one.
    out.push_back({"half_pel_planes", [](const KernelOps &k,
                                         const BenchData &d, long iters) {
                       kernels::ScopedKernelIsa pin(k.isa);
                       for (long i = 0; i < iters; ++i)
                           d.reference.buildHalfPel();
                       g_sink = g_sink + *d.reference.phasePtr(3, 0, 0);
                   }});
    out.push_back({"fwd_tx4x4", [](const KernelOps &k, const BenchData &d,
                                   long iters) {
                       int32_t coefs[16];
                       for (long i = 0; i < iters; ++i)
                           k.fwdTx4x4(d.residual64, coefs);
                       g_sink = g_sink + static_cast<uint64_t>(coefs[0]);
                   }});
    out.push_back({"inv_tx4x4", [](const KernelOps &k, const BenchData &d,
                                   long iters) {
                       int16_t res[16];
                       for (long i = 0; i < iters; ++i)
                           k.invTx4x4(d.coefs16, res);
                       g_sink = g_sink + static_cast<uint64_t>(res[0]);
                   }});
    out.push_back({"fwd_tx8x8", [](const KernelOps &k, const BenchData &d,
                                   long iters) {
                       int32_t coefs[64];
                       for (long i = 0; i < iters; ++i)
                           k.fwdTx8x8(d.residual64, coefs);
                       g_sink = g_sink + static_cast<uint64_t>(coefs[0]);
                   }});
    out.push_back({"inv_tx8x8", [](const KernelOps &k, const BenchData &d,
                                   long iters) {
                       int16_t res[64];
                       for (long i = 0; i < iters; ++i)
                           k.invTx8x8(d.coefs64, res);
                       g_sink = g_sink + static_cast<uint64_t>(res[0]);
                   }});
    out.push_back({"quant4x4", [](const KernelOps &k, const BenchData &d,
                                  long iters) {
                       int16_t levels[16];
                       uint64_t acc = 0;
                       for (long i = 0; i < iters; ++i)
                           acc += static_cast<uint64_t>(
                               k.quant4x4(d.coefs16, levels, 30, false));
                       g_sink = g_sink + acc;
                   }});
    out.push_back({"dequant4x4", [](const KernelOps &k, const BenchData &d,
                                    long iters) {
                       int32_t coefs[16];
                       for (long i = 0; i < iters; ++i)
                           k.dequant4x4(d.levels16, coefs, 30);
                       g_sink = g_sink + static_cast<uint64_t>(coefs[0]);
                   }});
    out.push_back({"diff_8x8", [](const KernelOps &k, const BenchData &d,
                                  long iters) {
                       int16_t res[64];
                       for (long i = 0; i < iters; ++i) {
                           const uint32_t o = d.offsets[i & 63];
                           k.diffBlock(d.plane_a.data() + o, d.stride,
                                       d.plane_b.data() + o, d.stride,
                                       res, 8, 8, 8);
                       }
                       g_sink = g_sink + static_cast<uint64_t>(res[0]);
                   }});
    out.push_back({"add_clamp_8x8", [](const KernelOps &k,
                                       const BenchData &d, long iters) {
                       uint8_t dst[64];
                       for (long i = 0; i < iters; ++i)
                           k.addClampBlock(
                               d.plane_a.data() + d.offsets[i & 63],
                               d.stride, d.residual64, 8, dst, 8, 8, 8);
                       g_sink = g_sink + dst[0];
                   }});
    // Both edges lie on 4x4 block boundaries of the deblocking plane.
    out.push_back({"deblock_edge_h16", [](const KernelOps &k,
                                          const BenchData &d, long iters) {
                       // Filter writes in place: use a private copy.
                       std::vector<uint8_t> buf = d.deblock_plane;
                       for (long i = 0; i < iters; ++i)
                           k.deblockEdgeH(buf.data() + 8 * d.stride +
                                              (i & 31) * 16 + 16,
                                          d.stride, 16, 40, 10, 4);
                       g_sink = g_sink + buf[8 * d.stride + 16];
                   }});
    out.push_back({"deblock_edge_v16", [](const KernelOps &k,
                                          const BenchData &d, long iters) {
                       std::vector<uint8_t> buf = d.deblock_plane;
                       for (long i = 0; i < iters; ++i)
                           k.deblockEdgeV(buf.data() + 8 * d.stride +
                                              (i & 31) * 16 + 16,
                                          d.stride, 16, 40, 10, 4);
                       g_sink = g_sink + buf[8 * d.stride + 16];
                   }});
    out.push_back({"quant_block16", [](const KernelOps &k,
                                       const BenchData &d, long iters) {
                       int16_t levels[256];
                       uint64_t acc = 0;
                       for (long i = 0; i < iters; ++i) {
                           const uint32_t o = d.offsets[i & 63];
                           acc += static_cast<uint64_t>(k.quantBlock(
                               d.plane_a.data() + o, d.stride,
                               d.plane_b.data() + o, d.stride, 16, 30,
                               false, levels));
                       }
                       g_sink = g_sink + acc;
                   }});
    out.push_back({"recon_block16", [](const KernelOps &k,
                                       const BenchData &d, long iters) {
                       uint8_t dst[256];
                       uint64_t acc = 0;
                       for (long i = 0; i < iters; ++i)
                           acc += static_cast<uint64_t>(k.reconBlock(
                               d.plane_a.data() + d.offsets[i & 63],
                               d.stride, d.levels256, 16, 30, dst, 16));
                       g_sink = g_sink + acc + dst[0];
                   }});
    out.push_back({"sse8_64k", [](const KernelOps &k, const BenchData &d,
                                  long iters) {
                       uint64_t acc = 0;
                       for (long i = 0; i < iters; ++i)
                           acc += k.sse8(d.plane_a.data(),
                                         d.plane_b.data(), 65536);
                       g_sink = g_sink + acc;
                   }});
    out.push_back({"ssim_window_8x8", [](const KernelOps &k,
                                         const BenchData &d, long iters) {
                       uint32_t sums[5];
                       uint64_t acc = 0;
                       for (long i = 0; i < iters; ++i) {
                           const uint32_t o = d.offsets[i & 63];
                           k.ssimWindowSums(d.plane_a.data() + o, d.stride,
                                            d.plane_b.data() + o,
                                            d.stride, 8, 8, sums);
                           acc += sums[4];
                       }
                       g_sink = g_sink + acc;
                   }});
    return out;
}

/** ns per op of one timed run of `iters` ops. */
double
timeNsPerOp(const KernelOps &k, const BenchData &d, const BenchFn &fn,
            long iters)
{
    const auto t0 = Clock::now();
    fn(k, d, iters);
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
               .count() /
        static_cast<double>(iters);
}

/**
 * Repetition count that makes one timed run take over ~4 ms. The
 * shorter runs before it warm the caches; rows whose op takes most of
 * a millisecond (half_pel_planes at scalar) stop after a few ops.
 */
long
calibrateIters(const KernelOps &k, const BenchData &d, const BenchFn &fn)
{
    long iters = 1;
    while (timeNsPerOp(k, d, fn, iters) * static_cast<double>(iters) <
               4e6 &&
           iters <= (1l << 28))
        iters *= 4;
    return iters;
}

video::Video
digestClip()
{
    return video::synthesize(
        video::presetFor(video::ContentClass::Natural, 144, 112, 30.0, 4,
                         123),
        "bench-kernels");
}

/** The VBC effort-2 and NGC speed-1 streams of a clip. */
struct EncodedPair {
    std::vector<uint8_t> vbc;
    std::vector<uint8_t> ngc;
    double seconds = 0; ///< both encodes' wall time
};

EncodedPair
encodePair(const video::Video &clip)
{
    EncodedPair out;

    codec::EncoderConfig vbc_cfg;
    vbc_cfg.rc.mode = codec::RcMode::Cqp;
    vbc_cfg.rc.qp = 30;
    vbc_cfg.effort = 2;
    vbc_cfg.gop = 4;
    codec::Encoder vbc(vbc_cfg);
    auto t0 = Clock::now();
    auto vbc_out = vbc.encode(clip);
    out.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    out.vbc = std::move(vbc_out.stream);

    ngc::NgcConfig ngc_cfg;
    ngc_cfg.rc.mode = codec::RcMode::Cqp;
    ngc_cfg.rc.qp = 30;
    ngc_cfg.speed = 1;
    ngc_cfg.gop = 4;
    ngc::NgcEncoder ngc(ngc_cfg);
    t0 = Clock::now();
    auto ngc_out = ngc.encode(clip);
    out.seconds += std::chrono::duration<double>(Clock::now() - t0).count();
    out.ngc = std::move(ngc_out.stream);
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

/** --digest: deterministic lines for scripts/check.sh to diff. */
int
runDigest()
{
    const video::Video clip = digestClip();
    const EncodedPair d = encodePair(clip);
    if (d.vbc.empty() || d.ngc.empty()) {
        std::fprintf(stderr, "digest: encode produced no stream\n");
        return 1;
    }
    std::printf("vbc bytes=%zu hash=%016llx\n", d.vbc.size(),
                static_cast<unsigned long long>(fnv1a(d.vbc)));
    std::printf("ngc bytes=%zu hash=%016llx\n", d.ngc.size(),
                static_cast<unsigned long long>(fnv1a(d.ngc)));
    double psnr = 0;
    double ssim = 0;
    if (const auto decoded = codec::decode(d.vbc)) {
        psnr = metrics::videoPsnr(clip, *decoded);
        ssim = metrics::videoSsim(clip, *decoded);
    }
    std::printf("vbc psnr=%.12f ssim=%.12f\n", psnr, ssim);

    // Effort 9: exhaustive motion search with SATD sub-pel and intra.
    codec::EncoderConfig slow_cfg;
    slow_cfg.rc.mode = codec::RcMode::Cqp;
    slow_cfg.rc.qp = 30;
    slow_cfg.effort = 9;
    slow_cfg.gop = 4;
    const std::vector<uint8_t> slow =
        codec::Encoder(slow_cfg).encode(clip).stream;
    if (slow.empty()) {
        std::fprintf(stderr, "digest: effort-9 encode produced no stream\n");
        return 1;
    }
    std::printf("vbc9 bytes=%zu hash=%016llx\n", slow.size(),
                static_cast<unsigned long long>(fnv1a(slow)));

    // NGC VP9-like speed 0: exhaustive search over the 32/16/8 CU tree,
    // so the SAD map runs at every block size the codecs search.
    ngc::NgcConfig vp9_cfg;
    vp9_cfg.rc.mode = codec::RcMode::Cqp;
    vp9_cfg.rc.qp = 30;
    vp9_cfg.profile = ngc::NgcProfile::Vp9Like;
    vp9_cfg.speed = 0;
    vp9_cfg.gop = 4;
    const std::vector<uint8_t> vp9 =
        ngc::NgcEncoder(vp9_cfg).encode(clip).stream;
    if (vp9.empty()) {
        std::fprintf(stderr, "digest: NGC speed-0 encode produced no stream\n");
        return 1;
    }
    std::printf("ngc-vp9-s0 bytes=%zu hash=%016llx\n", vp9.size(),
                static_cast<unsigned long long>(fnv1a(vp9)));

    // The NGC speed-1 stream decoded: its deblocking and 4x4 chroma
    // reconstruction, which the VBC decode above does not reach.
    const auto ngc_decoded = ngc::ngcDecode(d.ngc);
    if (!ngc_decoded) {
        std::fprintf(stderr, "digest: NGC stream did not decode\n");
        return 1;
    }
    std::printf("ngc psnr=%.12f ssim=%.12f\n",
                metrics::videoPsnr(clip, *ngc_decoded),
                metrics::videoSsim(clip, *ngc_decoded));
    return 0;
}

/**
 * --smoke: a fast randomized equivalence spot-check of every vector
 * table against scalar (the exhaustive version lives in
 * tests/kernels/test_kernels_equiv.cc).
 */
int
runSmoke()
{
    const KernelOps *scalar = kernels::opsFor(Isa::Scalar);
    int failures = 0;
    video::Rng rng(99);

    auto check = [&](bool ok, const char *isa, const char *what) {
        if (!ok) {
            std::fprintf(stderr, "smoke: %s mismatch on %s\n", what, isa);
            ++failures;
        }
    };

    for (const Isa isa : availableLevels()) {
        if (isa == Isa::Scalar)
            continue;
        const KernelOps *k = kernels::opsFor(isa);
        for (int trial = 0; trial < 16; ++trial) {
            const int w = 1 + static_cast<int>(rng.below(33));
            const int h = 1 + static_cast<int>(rng.below(17));
            const int stride = w + static_cast<int>(rng.below(9));
            std::vector<uint8_t> a(static_cast<size_t>(stride) * (h + 4));
            std::vector<uint8_t> b(a.size());
            for (size_t i = 0; i < a.size(); ++i) {
                a[i] = static_cast<uint8_t>(rng.below(256));
                b[i] = static_cast<uint8_t>(rng.below(256));
            }
            check(k->sad(a.data(), stride, b.data(), stride, w, h) ==
                      scalar->sad(a.data(), stride, b.data(), stride, w,
                                  h),
                  k->name, "sad");
            std::vector<uint8_t> o1(static_cast<size_t>(w) * h);
            std::vector<uint8_t> o2(o1.size());
            k->interpHV(a.data(), stride, o1.data(), w, w, h);
            scalar->interpHV(a.data(), stride, o2.data(), w, w, h);
            check(o1 == o2, k->name, "interpHV");
            check(k->sse8(a.data(), b.data(), a.size()) ==
                      scalar->sse8(a.data(), b.data(), a.size()),
                  k->name, "sse8");

            // SAD map: buffers sized exactly to the read contract.
            const int bs = 8 << rng.below(3);
            const int cols = 1 + static_cast<int>(rng.below(40));
            const int rows = 1 + static_cast<int>(rng.below(20));
            const int ref_stride = cols + bs + static_cast<int>(rng.below(9));
            std::vector<uint8_t> blk(static_cast<size_t>(bs) * bs);
            std::vector<uint8_t> win(
                static_cast<size_t>(ref_stride) * (rows + bs - 2) + cols + bs);
            for (auto &v : blk)
                v = static_cast<uint8_t>(rng.below(256));
            for (auto &v : win)
                v = static_cast<uint8_t>(rng.below(256));
            std::vector<uint32_t> m1(static_cast<size_t>(cols) * rows);
            std::vector<uint32_t> m2(m1.size());
            k->sadMap(blk.data(), bs, win.data(), ref_stride, bs, bs, cols,
                      rows, m1.data());
            scalar->sadMap(blk.data(), bs, win.data(), ref_stride, bs, bs,
                           cols, rows, m2.data());
            check(m1 == m2, k->name, "sadMap");

            int16_t res[64];
            for (auto &v : res)
                v = static_cast<int16_t>(rng.range(-255, 255));
            int32_t c1[64], c2[64];
            k->fwdTx8x8(res, c1);
            scalar->fwdTx8x8(res, c2);
            check(std::memcmp(c1, c2, sizeof(c1)) == 0, k->name,
                  "fwdTx8x8");
            int16_t l1[16], l2[16];
            const int nz1 = k->quant4x4(c1, l1, 30, false);
            const int nz2 = scalar->quant4x4(c2, l2, 30, false);
            check(nz1 == nz2 && std::memcmp(l1, l2, sizeof(l1)) == 0,
                  k->name, "quant4x4");
            int32_t d1[16], d2[16];
            k->dequant4x4(l1, d1, 30);
            scalar->dequant4x4(l2, d2, 30);
            check(std::memcmp(d1, d2, sizeof(d1)) == 0, k->name,
                  "dequant4x4");
            int16_t r1[16], r2[16];
            k->invTx4x4(d1, r1);
            scalar->invTx4x4(d2, r2);
            check(std::memcmp(r1, r2, sizeof(r1)) == 0, k->name,
                  "invTx4x4");

            // The block kernels, on a random n x n block of a and b.
            const int n = 4 << rng.below(3);
            const int qp = static_cast<int>(rng.below(52));
            const bool intra = rng.below(2) != 0;
            const int bstride = n + static_cast<int>(rng.below(9));
            std::vector<uint8_t> src(static_cast<size_t>(bstride) * n);
            std::vector<uint8_t> pred(src.size());
            for (size_t i = 0; i < src.size(); ++i) {
                src[i] = static_cast<uint8_t>(rng.below(256));
                pred[i] = static_cast<uint8_t>(rng.below(256));
            }
            std::vector<int16_t> lv1(static_cast<size_t>(n) * n);
            std::vector<int16_t> lv2(lv1.size());
            const int q1 = k->quantBlock(src.data(), bstride, pred.data(),
                                         bstride, n, qp, intra, lv1.data());
            const int q2 = scalar->quantBlock(src.data(), bstride,
                                              pred.data(), bstride, n, qp,
                                              intra, lv2.data());
            check(q1 == q2 && lv1 == lv2, k->name, "quantBlock");
            std::vector<uint8_t> rec1(src.size()), rec2(src.size());
            const int c1n = k->reconBlock(pred.data(), bstride, lv2.data(),
                                          n, qp, rec1.data(), bstride);
            const int c2n = scalar->reconBlock(pred.data(), bstride,
                                               lv2.data(), n, qp,
                                               rec2.data(), bstride);
            check(c1n == c2n && rec1 == rec2, k->name, "reconBlock");
            std::vector<uint8_t> e1 = src, e2 = src;
            const int alpha = 1 + static_cast<int>(rng.below(255));
            const int beta = 1 + static_cast<int>(rng.below(18));
            const int tc = 1 + static_cast<int>(rng.below(9));
            k->deblockEdgeV(e1.data() + 2, bstride, n, alpha, beta, tc);
            scalar->deblockEdgeV(e2.data() + 2, bstride, n, alpha, beta, tc);
            check(e1 == e2, k->name, "deblockEdgeV");
        }
    }
    // Half-pel planes built at every ISA, scalar included: each phase
    // plane's block at a random position anywhere motionCompensate may
    // read equals the scalar copy2d / interpH / interpV / interpHV of
    // that block of the reference.
    for (const Isa isa : availableLevels()) {
        kernels::ScopedKernelIsa pin(isa);
        const int w = 16 + static_cast<int>(rng.below(100));
        const int h = 16 + static_cast<int>(rng.below(60));
        video::Plane luma(w, h);
        for (int y = 0; y < h; ++y)
            for (int x = 0; x < w; ++x)
                luma.at(x, y) = static_cast<uint8_t>(rng.below(256));
        codec::RefPlane ref(luma);
        ref.buildHalfPel();
        const int lo = -codec::kRefPad + 1;
        decltype(scalar->interpH) filters[4] = {
            scalar->copy2d, scalar->interpH, scalar->interpV,
            scalar->interpHV};
        for (int trial = 0; trial < 64; ++trial) {
            const int bw = 1 + static_cast<int>(rng.below(32));
            const int bh = 1 + static_cast<int>(rng.below(32));
            // Block origins lo .. size + kRefPad - block - 1.
            const int ix = lo + static_cast<int>(rng.below(
                                    static_cast<uint64_t>(
                                        w + codec::kRefPad - bw - lo)));
            const int iy = lo + static_cast<int>(rng.below(
                                    static_cast<uint64_t>(
                                        h + codec::kRefPad - bh - lo)));
            const int phase = static_cast<int>(rng.below(4));
            uint8_t want[32 * 32];
            filters[phase](ref.ptr(ix, iy), ref.stride(), want, bw, bw, bh);
            const uint8_t *got = ref.phasePtr(phase, ix, iy);
            bool same = true;
            for (int r = 0; r < bh; ++r)
                same = same &&
                    std::memcmp(got + r * ref.stride(), want + r * bw,
                                static_cast<size_t>(bw)) == 0;
            check(same, kernels::isaName(isa), "halfPelPlanes");
        }
    }

    if (failures == 0)
        std::printf("smoke: OK (%s active, %zu ISA levels)\n",
                    kernels::ops().name, availableLevels().size());
    return failures == 0 ? 0 : 1;
}

int
runBench(const std::string &json_path)
{
    const BenchData data;
    const std::vector<KernelBench> benches = kernelBenches();
    const std::vector<Isa> levels = availableLevels();

    std::printf("%-18s", "kernel");
    for (const Isa isa : levels)
        std::printf("  %10s ns/op  speedup", kernels::isaName(isa));
    std::printf("\n");

    // One timed run of a few ms reads the host's speed at that moment,
    // so every row is timed in kRounds rounds: within a round each row
    // runs once at every ISA, the ISAs taking turns (each round starting
    // one ISA later), and the rounds spread each row's runs over the
    // whole pass. A slow stretch of the host then lands on all rows and
    // ISAs instead of setting one. The table reports each row's
    // minimum; the JSON carries the median as well.
    constexpr int kRounds = 9;
    const size_t n_levels = levels.size();
    std::vector<std::vector<long>> iters(benches.size(),
                                         std::vector<long>(n_levels));
    for (size_t b = 0; b < benches.size(); ++b)
        for (size_t l = 0; l < n_levels; ++l)
            iters[b][l] = calibrateIters(*kernels::opsFor(levels[l]), data,
                                         benches[b].run);
    // runs[b][l]: ns/op of each round's run of bench b at ISA level l.
    std::vector<std::vector<std::vector<double>>> runs(
        benches.size(), std::vector<std::vector<double>>(n_levels));
    for (int round = 0; round < kRounds; ++round) {
        for (size_t b = 0; b < benches.size(); ++b) {
            for (size_t i = 0; i < n_levels; ++i) {
                const size_t l = (i + static_cast<size_t>(round)) % n_levels;
                runs[b][l].push_back(
                    timeNsPerOp(*kernels::opsFor(levels[l]), data,
                                benches[b].run, iters[b][l]));
            }
        }
    }
    std::vector<std::vector<double>> results(benches.size());
    std::vector<std::vector<double>> medians(benches.size());
    for (size_t b = 0; b < benches.size(); ++b) {
        for (std::vector<double> &r : runs[b]) {
            std::sort(r.begin(), r.end());
            results[b].push_back(r.front());
            medians[b].push_back(r[r.size() / 2]);
        }
        std::printf("%-18s", benches[b].name);
        for (size_t l = 0; l < n_levels; ++l)
            std::printf("  %16.1f  %6.2fx", results[b][l],
                        results[b][0] / results[b][l]);
        std::printf("\n");
    }

    // End-to-end encode timing per ISA: the paper-level view of the
    // same kernels (whole-clip VBC + NGC encode wall time). One encode
    // takes a few ms, so it reads the host's speed at that moment: each
    // ISA encodes kE2eRounds times, the ISAs taking turns within every
    // round (each round starting one ISA later) so a slow stretch of
    // the host lands on all of them. The table reports the minimum;
    // the JSON carries the median as well.
    constexpr int kE2eRounds = 9;
    const video::Video clip = digestClip();
    std::vector<std::vector<double>> e2e(levels.size());
    for (int round = 0; round < kE2eRounds; ++round) {
        for (size_t i = 0; i < levels.size(); ++i) {
            const size_t l = (i + static_cast<size_t>(round)) % levels.size();
            kernels::ScopedKernelIsa pin(levels[l]);
            e2e[l].push_back(encodePair(clip).seconds);
        }
    }
    std::vector<double> e2e_min;
    std::vector<double> e2e_median;
    for (std::vector<double> &runs : e2e) {
        std::sort(runs.begin(), runs.end());
        e2e_min.push_back(runs.front());
        e2e_median.push_back(runs[runs.size() / 2]);
    }
    std::printf("%-18s", "encode_e2e(min)");
    for (size_t l = 0; l < levels.size(); ++l)
        std::printf("  %14.1fms  %6.2fx", e2e_min[l] * 1e3,
                    e2e_min[0] / e2e_min[l]);
    std::printf("\n");

    std::FILE *f = std::fopen(json_path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
        return 1;
    }
    std::fprintf(f, "{%s\"host_best_isa\":\"%s\",\"kernels\":[",
                 bench::jsonMetaFields().c_str(),
                 kernels::isaName(kernels::detectBestIsa()));
    for (size_t b = 0; b < benches.size(); ++b) {
        std::fprintf(f, "%s{\"name\":\"%s\",\"results\":[", b ? "," : "",
                     benches[b].name);
        for (size_t l = 0; l < levels.size(); ++l)
            std::fprintf(f,
                         "%s{\"isa\":\"%s\",\"runs\":%d,"
                         "\"ns_per_op\":%.3f,\"median_ns_per_op\":%.3f,"
                         "\"speedup_vs_scalar\":%.3f}",
                         l ? "," : "", kernels::isaName(levels[l]), kRounds,
                         results[b][l], medians[b][l],
                         results[b][0] / results[b][l]);
        std::fprintf(f, "]}");
    }
    std::fprintf(f, "],\"encode_e2e\":[");
    for (size_t l = 0; l < levels.size(); ++l)
        std::fprintf(f,
                     "%s{\"isa\":\"%s\",\"runs\":%d,\"encode_ms\":%.3f,"
                     "\"median_encode_ms\":%.3f,"
                     "\"speedup_vs_scalar\":%.3f}",
                     l ? "," : "", kernels::isaName(levels[l]), kE2eRounds,
                     e2e_min[l] * 1e3, e2e_median[l] * 1e3,
                     e2e_min[0] / e2e_min[l]);
    std::fprintf(f, "]}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path = "BENCH_kernels.json";
    bool smoke = false;
    bool digest = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--digest") {
            digest = true;
        } else if (arg == "--out" && i + 1 < argc) {
            json_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--smoke] [--digest] [--out FILE]\n",
                         argv[0]);
            return 2;
        }
    }
    if (smoke)
        return runSmoke();
    if (digest)
        return runDigest();
    return runBench(json_path);
}
