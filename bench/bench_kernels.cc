/**
 * @file
 * Pixel-kernel micro-benchmarks over the runtime dispatch tables.
 *
 * Default mode times every kernel once per ISA level available on the
 * host, prints a table, and writes BENCH_kernels.json with ns/op and
 * speedup-vs-scalar per kernel per ISA, plus an end-to-end encode
 * timing per ISA. Two auxiliary modes support scripts/check.sh:
 *
 *   --smoke   quick randomized scalar-vs-vector equivalence check;
 *             exits nonzero on any mismatch.
 *   --digest  encode a deterministic synthetic clip with both codecs
 *             (VBC at efforts 2 and 9, so the exhaustive search and
 *             SATD sub-pel/intra paths are covered) under the
 *             dispatch-selected ISA and print stream bytes, a stream
 *             hash, and quality scores — byte-identical output across
 *             VBENCH_ISA settings by construction.
 */

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
#include "kernels/kernel_ops.h"
#include "metrics/psnr.h"
#include "metrics/ssim.h"
#include "ngc/ngc_encoder.h"
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
    int stride = 640;
    int height = 360;
    int16_t residual64[64];
    int32_t coefs16[16];
    int32_t coefs64[64];
    int16_t levels16[16];
    uint32_t offsets[64];

    BenchData()
    {
        video::Rng rng(7);
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
    out.push_back({"deblock_edge_h16", [](const KernelOps &k,
                                          const BenchData &d, long iters) {
                       // Filter writes in place: use a private copy.
                       std::vector<uint8_t> buf = d.plane_a;
                       for (long i = 0; i < iters; ++i)
                           k.deblockEdgeH(buf.data() + 8 * d.stride +
                                              (i & 31) * 16 + 16,
                                          d.stride, 16, 40, 10, 4);
                       g_sink = g_sink + buf[8 * d.stride + 16];
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

/**
 * ns per op: grow the repetition count until one timed run exceeds
 * ~8 ms, then report the best of three runs at that count.
 */
double
measureNsPerOp(const KernelOps &k, const BenchData &d, const BenchFn &fn)
{
    fn(k, d, 256); // warmup
    long iters = 256;
    double elapsed_ns = 0;
    for (;;) {
        const auto t0 = Clock::now();
        fn(k, d, iters);
        elapsed_ns =
            std::chrono::duration<double, std::nano>(Clock::now() - t0)
                .count();
        if (elapsed_ns > 8e6 || iters > (1l << 28))
            break;
        iters *= 4;
    }
    double best = elapsed_ns / static_cast<double>(iters);
    for (int rep = 0; rep < 2; ++rep) {
        const auto t0 = Clock::now();
        fn(k, d, iters);
        const double ns =
            std::chrono::duration<double, std::nano>(Clock::now() - t0)
                .count() /
            static_cast<double>(iters);
        if (ns < best)
            best = ns;
    }
    return best;
}

video::Video
digestClip()
{
    return video::synthesize(
        video::presetFor(video::ContentClass::Natural, 144, 112, 30.0, 4,
                         123),
        "bench-kernels");
}

struct EncodeDigest {
    std::vector<uint8_t> vbc;
    std::vector<uint8_t> ngc;
    double psnr = 0;
    double ssim = 0;
    double vbc_seconds = 0;
    double ngc_seconds = 0;
};

EncodeDigest
encodeDigest(const video::Video &clip)
{
    EncodeDigest out;

    codec::EncoderConfig vbc_cfg;
    vbc_cfg.rc.mode = codec::RcMode::Cqp;
    vbc_cfg.rc.qp = 30;
    vbc_cfg.effort = 2;
    vbc_cfg.gop = 4;
    codec::Encoder vbc(vbc_cfg);
    auto t0 = Clock::now();
    auto vbc_out = vbc.encode(clip);
    out.vbc_seconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    out.vbc = std::move(vbc_out.stream);

    ngc::NgcConfig ngc_cfg;
    ngc_cfg.rc.mode = codec::RcMode::Cqp;
    ngc_cfg.rc.qp = 30;
    ngc_cfg.speed = 1;
    ngc_cfg.gop = 4;
    ngc::NgcEncoder ngc(ngc_cfg);
    t0 = Clock::now();
    auto ngc_out = ngc.encode(clip);
    out.ngc_seconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    out.ngc = std::move(ngc_out.stream);

    const auto decoded = codec::decode(out.vbc);
    if (decoded) {
        out.psnr = metrics::videoPsnr(clip, *decoded);
        out.ssim = metrics::videoSsim(clip, *decoded);
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

/** --digest: deterministic lines for scripts/check.sh to diff. */
int
runDigest()
{
    const video::Video clip = digestClip();
    const EncodeDigest d = encodeDigest(clip);
    if (d.vbc.empty() || d.ngc.empty()) {
        std::fprintf(stderr, "digest: encode produced no stream\n");
        return 1;
    }
    std::printf("vbc bytes=%zu hash=%016llx\n", d.vbc.size(),
                static_cast<unsigned long long>(fnv1a(d.vbc)));
    std::printf("ngc bytes=%zu hash=%016llx\n", d.ngc.size(),
                static_cast<unsigned long long>(fnv1a(d.ngc)));
    std::printf("vbc psnr=%.12f ssim=%.12f\n", d.psnr, d.ssim);

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

    // results[b][l] = ns/op for bench b at ISA level l.
    std::vector<std::vector<double>> results(
        benches.size(), std::vector<double>(levels.size(), 0.0));
    for (size_t b = 0; b < benches.size(); ++b) {
        for (size_t l = 0; l < levels.size(); ++l)
            results[b][l] = measureNsPerOp(*kernels::opsFor(levels[l]),
                                           data, benches[b].run);
        std::printf("%-18s", benches[b].name);
        for (size_t l = 0; l < levels.size(); ++l)
            std::printf("  %16.1f  %6.2fx", results[b][l],
                        results[b][0] / results[b][l]);
        std::printf("\n");
    }

    // End-to-end encode timing per ISA: the paper-level view of the
    // same kernels (whole-clip VBC + NGC encode wall time).
    const video::Video clip = digestClip();
    std::vector<double> e2e_seconds;
    std::printf("%-18s", "encode_e2e");
    for (const Isa isa : levels) {
        kernels::ScopedKernelIsa pin(isa);
        const EncodeDigest d = encodeDigest(clip);
        e2e_seconds.push_back(d.vbc_seconds + d.ngc_seconds);
        std::printf("  %14.1fms  %6.2fx", e2e_seconds.back() * 1e3,
                    e2e_seconds.front() / e2e_seconds.back());
    }
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
                         "%s{\"isa\":\"%s\",\"ns_per_op\":%.3f,"
                         "\"speedup_vs_scalar\":%.3f}",
                         l ? "," : "", kernels::isaName(levels[l]),
                         results[b][l], results[b][0] / results[b][l]);
        std::fprintf(f, "]}");
    }
    std::fprintf(f, "],\"encode_e2e\":[");
    for (size_t l = 0; l < levels.size(); ++l)
        std::fprintf(f,
                     "%s{\"isa\":\"%s\",\"encode_ms\":%.3f,"
                     "\"speedup_vs_scalar\":%.3f}",
                     l ? "," : "", kernels::isaName(levels[l]),
                     e2e_seconds[l] * 1e3,
                     e2e_seconds[0] / e2e_seconds[l]);
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
