/**
 * @file
 * Randomized bit-exactness tests: every vector kernel backend must
 * match the scalar reference exactly, for realistic and adversarial
 * inputs, across block shapes whose widths are not multiples of the
 * vector lane count (tail handling) and with strides wider than the
 * block.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "kernels/kernel_ops.h"
#include "video/rng.h"

using vbench::kernels::Isa;
using vbench::kernels::KernelOps;
using vbench::kernels::opsFor;
using vbench::kernels::scalarOps;
using vbench::video::Rng;

namespace {

/** Vector backends available on this host/build (may be empty). */
std::vector<const KernelOps *>
vectorBackends()
{
    std::vector<const KernelOps *> out;
    if (const KernelOps *t = opsFor(Isa::Sse2))
        out.push_back(t);
    if (const KernelOps *t = opsFor(Isa::Avx2))
        out.push_back(t);
    return out;
}

std::vector<uint8_t>
randomBytes(Rng &rng, size_t n)
{
    std::vector<uint8_t> v(n);
    for (auto &b : v)
        b = static_cast<uint8_t>(rng.below(256));
    return v;
}

// Block shapes covering lane multiples and every tail class.
constexpr int kWidths[] = {1, 2, 3, 5, 7, 8, 9, 12, 15, 16, 17,
                           24, 31, 32, 33, 40, 48, 64};
constexpr int kHeights[] = {1, 2, 3, 4, 7, 8, 13, 16, 17};

} // namespace

TEST(KernelsEquiv, Sad)
{
    Rng rng(11);
    const KernelOps &ref = *scalarOps();
    for (const KernelOps *vec : vectorBackends()) {
        for (int w : kWidths) {
            for (int h : kHeights) {
                const int a_stride = w + static_cast<int>(rng.below(9));
                const int b_stride = w + static_cast<int>(rng.below(9));
                const auto a =
                    randomBytes(rng, static_cast<size_t>(a_stride) * h);
                const auto b =
                    randomBytes(rng, static_cast<size_t>(b_stride) * h);
                EXPECT_EQ(
                    ref.sad(a.data(), a_stride, b.data(), b_stride, w, h),
                    vec->sad(a.data(), a_stride, b.data(), b_stride, w,
                             h))
                    << vec->name << " w=" << w << " h=" << h;
            }
        }
    }
}

TEST(KernelsEquiv, Satd)
{
    // Random pixels, then the extremes of the residual range: all-0
    // against all-255 blocks (either way round), +-255 checkerboards,
    // which put the largest magnitude into a single Hadamard
    // coefficient, and random +-255 signs.
    enum Pattern { Random, ZeroVs255, Max255VsZero, Checker, AntiChecker,
                   RandomSigns, kPatterns };
    auto pixel = [](int pattern, bool first, int x, int y,
                    Rng &rng) -> uint8_t {
        const bool odd = ((x + y) & 1) != 0;
        switch (pattern) {
          case ZeroVs255: return first ? 0 : 255;
          case Max255VsZero: return first ? 255 : 0;
          case Checker: return (odd == first) ? 255 : 0;
          case AntiChecker: return (odd != first) ? 255 : 0;
          case RandomSigns: return rng.below(2) ? 255 : 0;
          default: return static_cast<uint8_t>(rng.below(256));
        }
    };

    Rng rng(12);
    const KernelOps &ref = *scalarOps();
    for (const KernelOps *vec : vectorBackends()) {
        // Every width SATD accepts up to 64, so 16-wide strips run
        // together with 8- and 4-wide tails (20, 24, 40, 48, ...).
        for (int w = 4; w <= 64; w += 4) {
            for (int h : {4, 8, 12, 16, 32}) {
                for (int pattern = 0; pattern < kPatterns; ++pattern) {
                    const int a_stride = w + static_cast<int>(rng.below(9));
                    const int b_stride = w + static_cast<int>(rng.below(9));
                    std::vector<uint8_t> a(static_cast<size_t>(a_stride) * h);
                    std::vector<uint8_t> b(static_cast<size_t>(b_stride) * h);
                    for (int y = 0; y < h; ++y) {
                        for (int x = 0; x < a_stride; ++x)
                            a[y * a_stride + x] =
                                pixel(pattern, true, x, y, rng);
                        for (int x = 0; x < b_stride; ++x)
                            b[y * b_stride + x] =
                                pixel(pattern, false, x, y, rng);
                    }
                    EXPECT_EQ(ref.satd(a.data(), a_stride, b.data(),
                                       b_stride, w, h),
                              vec->satd(a.data(), a_stride, b.data(),
                                        b_stride, w, h))
                        << vec->name << " w=" << w << " h=" << h
                        << " pattern=" << pattern;
                }
            }
        }
    }
}

TEST(KernelsEquiv, CopyAndInterp)
{
    Rng rng(13);
    const KernelOps &ref = *scalarOps();
    for (const KernelOps *vec : vectorBackends()) {
        for (int w : kWidths) {
            for (int h : {1, 2, 5, 8, 16}) {
                // +1 column and +1 row of margin for the 2x2 taps.
                const int src_stride = w + 1 + static_cast<int>(rng.below(8));
                const int dst_stride = w + static_cast<int>(rng.below(8));
                const auto src = randomBytes(
                    rng, static_cast<size_t>(src_stride) * (h + 1));
                std::vector<uint8_t> want(
                    static_cast<size_t>(dst_stride) * h, 0xAA);
                std::vector<uint8_t> got = want;

                using Fn = void (*)(const uint8_t *, int, uint8_t *, int,
                                    int, int);
                const Fn fns_ref[] = {ref.copy2d, ref.interpH, ref.interpV,
                                      ref.interpHV};
                const Fn fns_vec[] = {vec->copy2d, vec->interpH,
                                      vec->interpV, vec->interpHV};
                for (int k = 0; k < 4; ++k) {
                    std::fill(want.begin(), want.end(), 0xAA);
                    std::fill(got.begin(), got.end(), 0xAA);
                    fns_ref[k](src.data(), src_stride, want.data(),
                               dst_stride, w, h);
                    fns_vec[k](src.data(), src_stride, got.data(),
                               dst_stride, w, h);
                    EXPECT_EQ(want, got) << vec->name << " kernel " << k
                                         << " w=" << w << " h=" << h;
                }
            }
        }
    }
}

TEST(KernelsEquiv, Transforms4x4And8x8)
{
    Rng rng(14);
    const KernelOps &ref = *scalarOps();
    for (const KernelOps *vec : vectorBackends()) {
        for (int trial = 0; trial < 500; ++trial) {
            int16_t res[64];
            for (auto &v : res)
                v = static_cast<int16_t>(rng.range(-32768, 32767));

            int32_t want32[64], got32[64];
            ref.fwdTx4x4(res, want32);
            vec->fwdTx4x4(res, got32);
            EXPECT_EQ(0, std::memcmp(want32, got32, sizeof(int32_t) * 16))
                << vec->name << " fwd4 trial " << trial;
            ref.fwdTx8x8(res, want32);
            vec->fwdTx8x8(res, got32);
            EXPECT_EQ(0, std::memcmp(want32, got32, sizeof(want32)))
                << vec->name << " fwd8 trial " << trial;

            // Inverse inputs: mix realistic (forward of a residual) and
            // adversarial coefficients. Magnitudes stay below 2^24 so
            // the scalar int32 intermediates cannot overflow (UB).
            int32_t coefs[64];
            if (trial % 2 == 0) {
                std::memcpy(coefs, want32, sizeof(coefs));
            } else {
                for (auto &c : coefs)
                    c = static_cast<int32_t>(
                        rng.range(-(1 << 24), (1 << 24)));
            }
            int16_t want16[64], got16[64];
            ref.invTx4x4(coefs, want16);
            vec->invTx4x4(coefs, got16);
            EXPECT_EQ(0, std::memcmp(want16, got16, sizeof(int16_t) * 16))
                << vec->name << " inv4 trial " << trial;
            ref.invTx8x8(coefs, want16);
            vec->invTx8x8(coefs, got16);
            EXPECT_EQ(0, std::memcmp(want16, got16, sizeof(want16)))
                << vec->name << " inv8 trial " << trial;
        }
    }
}

TEST(KernelsEquiv, QuantDequant)
{
    Rng rng(15);
    const KernelOps &ref = *scalarOps();
    for (const KernelOps *vec : vectorBackends()) {
        for (int trial = 0; trial < 400; ++trial) {
            const int qp = static_cast<int>(rng.below(52));
            const bool intra = (trial & 1) != 0;
            int32_t coefs[16];
            for (auto &c : coefs) {
                switch (rng.below(4)) {
                case 0: // realistic transform output magnitudes
                    c = static_cast<int32_t>(
                        rng.range(-(1 << 20), 1 << 20));
                    break;
                case 1: // small values around the deadzone
                    c = static_cast<int32_t>(rng.range(-64, 64));
                    break;
                case 2: // full int32 range, including the extremes
                    c = static_cast<int32_t>(
                        rng.range(INT32_MIN, INT32_MAX));
                    break;
                default:
                    c = (trial % 3 == 0) ? INT32_MIN : INT32_MAX;
                    break;
                }
            }
            int16_t want_lv[16], got_lv[16];
            const int want_nz = ref.quant4x4(coefs, want_lv, qp, intra);
            const int got_nz = vec->quant4x4(coefs, got_lv, qp, intra);
            EXPECT_EQ(want_nz, got_nz)
                << vec->name << " qp=" << qp << " trial " << trial;
            EXPECT_EQ(0, std::memcmp(want_lv, got_lv, sizeof(want_lv)))
                << vec->name << " qp=" << qp << " trial " << trial;

            int16_t levels[16];
            for (auto &l : levels)
                l = static_cast<int16_t>(rng.range(-32768, 32767));
            int32_t want_cf[16], got_cf[16];
            ref.dequant4x4(levels, want_cf, qp);
            vec->dequant4x4(levels, got_cf, qp);
            EXPECT_EQ(0, std::memcmp(want_cf, got_cf, sizeof(want_cf)))
                << vec->name << " dequant qp=" << qp;
        }
    }
}

TEST(KernelsEquiv, DiffAndAddClamp)
{
    Rng rng(16);
    const KernelOps &ref = *scalarOps();
    for (const KernelOps *vec : vectorBackends()) {
        for (int w : kWidths) {
            for (int h : {1, 4, 8, 16}) {
                const int s_stride = w + static_cast<int>(rng.below(8));
                const int p_stride = w + static_cast<int>(rng.below(8));
                const int o_stride = w + static_cast<int>(rng.below(8));
                const auto src =
                    randomBytes(rng, static_cast<size_t>(s_stride) * h);
                const auto pred =
                    randomBytes(rng, static_cast<size_t>(p_stride) * h);
                std::vector<int16_t> want_d(
                    static_cast<size_t>(o_stride) * h, 0x7EEE);
                std::vector<int16_t> got_d = want_d;
                ref.diffBlock(src.data(), s_stride, pred.data(), p_stride,
                              want_d.data(), o_stride, w, h);
                vec->diffBlock(src.data(), s_stride, pred.data(),
                               p_stride, got_d.data(), o_stride, w, h);
                EXPECT_EQ(want_d, got_d)
                    << vec->name << " diff w=" << w << " h=" << h;

                // Adversarial residuals spanning the full int16 range,
                // so saturating-add shortcuts would be caught.
                std::vector<int16_t> res(
                    static_cast<size_t>(o_stride) * h);
                for (auto &v : res)
                    v = static_cast<int16_t>(rng.range(-32768, 32767));
                std::vector<uint8_t> want_r(
                    static_cast<size_t>(s_stride) * h, 0x55);
                std::vector<uint8_t> got_r = want_r;
                ref.addClampBlock(pred.data(), p_stride, res.data(),
                                  o_stride, want_r.data(), s_stride, w, h);
                vec->addClampBlock(pred.data(), p_stride, res.data(),
                                   o_stride, got_r.data(), s_stride, w, h);
                EXPECT_EQ(want_r, got_r)
                    << vec->name << " addClamp w=" << w << " h=" << h;
            }
        }
    }
}

TEST(KernelsEquiv, DeblockEdgeH)
{
    Rng rng(17);
    const KernelOps &ref = *scalarOps();
    for (const KernelOps *vec : vectorBackends()) {
        for (int trial = 0; trial < 300; ++trial) {
            const int n = 1 + static_cast<int>(rng.below(48));
            const int stride = n + static_cast<int>(rng.below(8));
            // 4 rows: p1, p0, q0, q1. Bias toward small sample deltas
            // so the filter condition actually fires.
            auto make = [&] {
                auto buf = randomBytes(rng, static_cast<size_t>(stride) * 4);
                if (trial % 2 == 0) {
                    const uint8_t base =
                        static_cast<uint8_t>(rng.below(200));
                    for (auto &v : buf)
                        v = static_cast<uint8_t>(base + (v & 15));
                }
                return buf;
            };
            auto want = make();
            auto got = want;
            const int alpha = 1 + static_cast<int>(rng.below(255));
            const int beta = 1 + static_cast<int>(rng.below(30));
            const int tc = 1 + static_cast<int>(rng.below(10));
            ref.deblockEdgeH(want.data() + 2 * stride, stride, n, alpha,
                             beta, tc);
            vec->deblockEdgeH(got.data() + 2 * stride, stride, n, alpha,
                              beta, tc);
            EXPECT_EQ(want, got) << vec->name << " n=" << n
                                 << " alpha=" << alpha << " beta=" << beta
                                 << " tc=" << tc;
        }
    }
}

TEST(KernelsEquiv, Sse8)
{
    Rng rng(18);
    const KernelOps &ref = *scalarOps();
    for (const KernelOps *vec : vectorBackends()) {
        // Large n exercises the overflow-chunking; +1/+7 the tails.
        for (size_t n : {size_t{1}, size_t{7}, size_t{16}, size_t{31},
                         size_t{64}, size_t{1000}, size_t{65536 + 13},
                         size_t{200000}}) {
            auto a = randomBytes(rng, n);
            auto b = randomBytes(rng, n);
            // Worst case for accumulator width: all-0 vs all-255.
            if (n == 200000) {
                std::fill(a.begin(), a.end(), uint8_t{0});
                std::fill(b.begin(), b.end(), uint8_t{255});
            }
            EXPECT_EQ(ref.sse8(a.data(), b.data(), n),
                      vec->sse8(a.data(), b.data(), n))
                << vec->name << " n=" << n;
        }
    }
}

TEST(KernelsEquiv, SsimWindowSums)
{
    Rng rng(19);
    const KernelOps &ref = *scalarOps();
    for (const KernelOps *vec : vectorBackends()) {
        for (int w = 1; w <= 8; ++w) {
            for (int h = 1; h <= 8; ++h) {
                const int a_stride = w + static_cast<int>(rng.below(8));
                const int b_stride = w + static_cast<int>(rng.below(8));
                const auto a =
                    randomBytes(rng, static_cast<size_t>(a_stride) * h);
                const auto b =
                    randomBytes(rng, static_cast<size_t>(b_stride) * h);
                uint32_t want[5] = {0}, got[5] = {0};
                ref.ssimWindowSums(a.data(), a_stride, b.data(), b_stride,
                                   w, h, want);
                vec->ssimWindowSums(a.data(), a_stride, b.data(),
                                    b_stride, w, h, got);
                for (int k = 0; k < 5; ++k)
                    EXPECT_EQ(want[k], got[k])
                        << vec->name << " w=" << w << " h=" << h
                        << " sum " << k;
            }
        }
    }
}
