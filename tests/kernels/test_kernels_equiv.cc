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

TEST(KernelsEquiv, SadMap)
{
    // Window widths and heights covering every path of the vector
    // maps: below 8 (one SAD per offset), 8-15 (two overlapping
    // 8-offset groups), 16, 17, 25 and 129 (16-offset groups, the last
    // one overlapping). Block shapes are the square ones the codecs
    // search, a width the vector maps leave to the per-offset fallback,
    // and odd heights (which the 8-offset groups also leave to it).
    // Each buffer ends exactly where the kernel_ops.h read contract
    // ends, so an ASan build reports any read past it.
    constexpr int kSpans[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13,
                              14, 15, 16, 17, 25, 129};
    constexpr int kShapes[][2] = {{8, 8}, {16, 16}, {32, 32}, {12, 12},
                                  {16, 9}, {8, 3}};
    Rng rng(20);
    const KernelOps &ref = *scalarOps();
    for (const auto &[w, h] : kShapes) {
        for (const int cols : kSpans) {
            for (const int rows : kSpans) {
                const int src_stride = w + static_cast<int>(rng.below(9));
                const int ref_stride =
                    cols + w + static_cast<int>(rng.below(9));
                const auto src = randomBytes(
                    rng, static_cast<size_t>(src_stride) * (h - 1) + w);
                const auto window = randomBytes(
                    rng, static_cast<size_t>(ref_stride) * (rows + h - 2) +
                             cols + w);
                std::vector<uint32_t> want(static_cast<size_t>(cols) * rows);
                ref.sadMap(src.data(), src_stride, window.data(),
                           ref_stride, w, h, cols, rows, want.data());
                for (const KernelOps *vec : vectorBackends()) {
                    std::vector<uint32_t> got(want.size());
                    vec->sadMap(src.data(), src_stride, window.data(),
                                ref_stride, w, h, cols, rows, got.data());
                    EXPECT_EQ(want, got)
                        << vec->name << " " << w << "x" << h
                        << " cols=" << cols << " rows=" << rows;
                }
            }
        }
    }

    // All-0 against all-255 at 32x32, either way round, through both
    // group widths: every SAD is 32 * 32 * 255, and the 16-bit partial
    // sums carry the most they ever must.
    const int rows = 17;
    std::vector<const KernelOps *> tables = vectorBackends();
    tables.push_back(&ref);
    for (const bool src_white : {false, true}) {
        for (const int cols : {25, 13}) {
            const int ref_stride = cols + 32;
            const std::vector<uint8_t> src(32 * 32, src_white ? 255 : 0);
            const std::vector<uint8_t> window(
                static_cast<size_t>(ref_stride) * (rows + 30) + cols + 32,
                src_white ? 0 : 255);
            const std::vector<uint32_t> want(
                static_cast<size_t>(cols) * rows, 32u * 32u * 255u);
            for (const KernelOps *k : tables) {
                std::vector<uint32_t> got(want.size());
                k->sadMap(src.data(), 32, window.data(), ref_stride, 32, 32,
                          cols, rows, got.data());
                EXPECT_EQ(want, got) << k->name << " src_white=" << src_white
                                     << " cols=" << cols;
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

namespace {

// The deblocking filter's H.264 thresholds (codec/deblock.cc), qp 16-51.
constexpr int kDeblockAlpha[36] = {
    4, 4, 5, 6, 7, 8, 9, 10, 12, 13, 15, 17, 20, 22, 25, 28, 32, 36,
    40, 45, 50, 56, 63, 71, 80, 90, 101, 113, 127, 144, 162, 182, 203,
    226, 255, 255,
};
constexpr int kDeblockBeta[36] = {
    2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 6, 6, 7, 7, 8, 8, 9, 9,
    10, 10, 11, 11, 12, 12, 13, 13, 14, 14, 15, 15, 16, 16, 17, 17, 18, 18,
};

/** v clamped to a byte. */
uint8_t
toByte(int v)
{
    return static_cast<uint8_t>(v < 0 ? 0 : (v > 255 ? 255 : v));
}

} // namespace

TEST(KernelsEquiv, DeblockEdgeV)
{
    Rng rng(21);
    const KernelOps &ref = *scalarOps();
    std::vector<int> heights;
    for (int n = 1; n <= 17; ++n)
        heights.push_back(n);
    heights.push_back(32);
    for (const KernelOps *vec : vectorBackends()) {
        for (int qp = 16; qp <= 51; ++qp) {
            const int alpha = kDeblockAlpha[qp - 16];
            const int beta = kDeblockBeta[qp - 16];
            for (int bs = 1; bs <= 2; ++bs) {
                const int tc = 1 + (qp >> 3) + bs;
                for (const int n : heights) {
                    // Odd and even strides; the buffer ends exactly at
                    // the last row's q1.
                    const int stride = 4 + static_cast<int>(rng.below(9));
                    const size_t size =
                        static_cast<size_t>(n - 1) * stride + 4;
                    std::vector<uint8_t> want = randomBytes(rng, size);
                    for (int r = 0; r < n; ++r) {
                        uint8_t *row = want.data() + r * stride;
                        if (rng.below(4) == 0)
                            continue;  // keep a random row
                        // Steps that straddle alpha and beta.
                        const int p0 = static_cast<int>(rng.below(256));
                        const int sign = rng.below(2) ? 1 : -1;
                        row[1] = static_cast<uint8_t>(p0);
                        row[2] = toByte(
                            p0 + sign * (alpha - 1 +
                                         static_cast<int>(rng.below(3))));
                        row[0] = toByte(
                            p0 + (rng.below(2) ? 1 : -1) *
                                     (beta - 1 +
                                      static_cast<int>(rng.below(3))));
                        row[3] = toByte(
                            row[2] + (rng.below(2) ? 1 : -1) *
                                         (beta - 1 +
                                          static_cast<int>(rng.below(3))));
                    }
                    std::vector<uint8_t> got = want;
                    ref.deblockEdgeV(want.data() + 2, stride, n, alpha,
                                     beta, tc);
                    vec->deblockEdgeV(got.data() + 2, stride, n, alpha,
                                      beta, tc);
                    EXPECT_EQ(want, got)
                        << vec->name << " qp=" << qp << " bs=" << bs
                        << " n=" << n << " stride=" << stride;
                }
            }
        }
    }
}

TEST(KernelsEquiv, DeblockEdgeVMatchesHorizontalKernel)
{
    // The vertical edge is the horizontal one transposed: filter the
    // same samples both ways through the scalar reference.
    Rng rng(22);
    const KernelOps &ref = *scalarOps();
    for (int trial = 0; trial < 200; ++trial) {
        const int n = 1 + static_cast<int>(rng.below(32));
        std::vector<uint8_t> cols(static_cast<size_t>(n) * 4);
        for (auto &v : cols)
            v = static_cast<uint8_t>(100 + rng.below(24));
        std::vector<uint8_t> rows(cols.size());
        for (int i = 0; i < n; ++i)
            for (int k = 0; k < 4; ++k)
                rows[static_cast<size_t>(k) * n + i] = cols[i * 4 + k];
        const int alpha = 1 + static_cast<int>(rng.below(40));
        const int beta = 1 + static_cast<int>(rng.below(12));
        const int tc = 1 + static_cast<int>(rng.below(9));
        ref.deblockEdgeV(cols.data() + 2, 4, n, alpha, beta, tc);
        ref.deblockEdgeH(rows.data() + 2 * n, n, n, alpha, beta, tc);
        for (int i = 0; i < n; ++i)
            for (int k = 0; k < 4; ++k)
                ASSERT_EQ(cols[i * 4 + k],
                          rows[static_cast<size_t>(k) * n + i])
                    << "trial " << trial << " row " << i << " col " << k;
    }
}

namespace {

/** quantBlock's definition: diff -> fwdTx4x4 -> quant4x4 per 4x4. */
int
quantBlockReference(const uint8_t *src, int src_stride, const uint8_t *pred,
                    int pred_stride, int n, int qp, bool intra,
                    int16_t *levels)
{
    const KernelOps &k = *scalarOps();
    int nonzero = 0;
    for (int by = 0; by < n; by += 4) {
        for (int bx = 0; bx < n; bx += 4, levels += 16) {
            int16_t residual[16];
            int32_t coefs[16];
            k.diffBlock(src + by * src_stride + bx, src_stride,
                        pred + by * pred_stride + bx, pred_stride, residual,
                        4, 4, 4);
            k.fwdTx4x4(residual, coefs);
            nonzero += k.quant4x4(coefs, levels, qp, intra);
        }
    }
    return nonzero;
}

/** reconBlock's definition: dequant -> invTx4x4 -> addClamp per 4x4. */
int
reconBlockReference(const uint8_t *pred, int pred_stride,
                    const int16_t *levels, int n, int qp, uint8_t *dst,
                    int dst_stride)
{
    const KernelOps &k = *scalarOps();
    int coded = 0;
    for (int by = 0; by < n; by += 4) {
        for (int bx = 0; bx < n; bx += 4, levels += 16) {
            bool any = false;
            for (int i = 0; i < 16; ++i)
                any = any || levels[i] != 0;
            coded += any;
            int32_t coefs[16];
            int16_t residual[16];
            k.dequant4x4(levels, coefs, qp);
            k.invTx4x4(coefs, residual);
            k.addClampBlock(pred + by * pred_stride + bx, pred_stride,
                            residual, 4, dst + by * dst_stride + bx,
                            dst_stride, 4, 4);
        }
    }
    return coded;
}

/** Every table, scalar included: the block kernels are compositions. */
std::vector<const KernelOps *>
allBackends()
{
    std::vector<const KernelOps *> out{scalarOps()};
    for (const KernelOps *t : vectorBackends())
        out.push_back(t);
    return out;
}

} // namespace

TEST(KernelsEquiv, QuantBlock)
{
    Rng rng(23);
    for (const int n : {4, 8, 16}) {
        for (int qp = 0; qp <= 51; ++qp) {
            for (const bool intra : {false, true}) {
                for (int pattern = 0; pattern < 4; ++pattern) {
                    // Buffers end exactly at the block's last sample.
                    const int s_stride = n + static_cast<int>(rng.below(7));
                    const int p_stride = n + static_cast<int>(rng.below(7));
                    std::vector<uint8_t> src = randomBytes(
                        rng, static_cast<size_t>(n - 1) * s_stride + n);
                    std::vector<uint8_t> pred = randomBytes(
                        rng, static_cast<size_t>(n - 1) * p_stride + n);
                    for (int r = 0; r < n; ++r) {
                        for (int c = 0; c < n; ++c) {
                            uint8_t &s = src[r * s_stride + c];
                            uint8_t &p = pred[r * p_stride + c];
                            switch (pattern) {
                            case 0:  // all +255
                                s = 255, p = 0;
                                break;
                            case 1:  // all -255
                                s = 0, p = 255;
                                break;
                            case 2:  // +-255 at random
                                s = rng.below(2) ? 255 : 0;
                                p = static_cast<uint8_t>(255 - s);
                                break;
                            default:  // random residual
                                break;
                            }
                        }
                    }
                    const int count = (n / 4) * (n / 4) * 16;
                    std::vector<int16_t> want(count, 0x5A5A);
                    const int want_nz = quantBlockReference(
                        src.data(), s_stride, pred.data(), p_stride, n, qp,
                        intra, want.data());
                    for (const KernelOps *k : allBackends()) {
                        std::vector<int16_t> got(count, 0x5A5A);
                        const int got_nz = k->quantBlock(
                            src.data(), s_stride, pred.data(), p_stride, n,
                            qp, intra, got.data());
                        EXPECT_EQ(want_nz, got_nz)
                            << k->name << " n=" << n << " qp=" << qp
                            << " intra=" << intra << " pattern=" << pattern;
                        EXPECT_EQ(want, got)
                            << k->name << " n=" << n << " qp=" << qp
                            << " intra=" << intra << " pattern=" << pattern;
                    }
                }
            }
        }
    }
}

TEST(KernelsEquiv, ReconBlock)
{
    Rng rng(24);
    for (const int n : {4, 8, 16}) {
        for (int qp = 0; qp <= 51; ++qp) {
            for (int pattern = 0; pattern < 4; ++pattern) {
                const int p_stride = n + static_cast<int>(rng.below(7));
                const int d_stride = n + static_cast<int>(rng.below(7));
                const std::vector<uint8_t> pred = randomBytes(
                    rng, static_cast<size_t>(n - 1) * p_stride + n);
                const int count = (n / 4) * (n / 4) * 16;
                std::vector<int16_t> levels(count, 0);
                for (int b = 0; b < count / 16; ++b) {
                    int16_t *blk = levels.data() + b * 16;
                    // Per block: all zero, a single nonzero, or random
                    // int16 levels with the parser's extremes mixed in.
                    const int kind =
                        pattern == 3 ? static_cast<int>(rng.below(3))
                                     : pattern;
                    if (kind == 1) {
                        blk[rng.below(16)] = static_cast<int16_t>(
                            rng.below(2) ? 32767 : -32767);
                    } else if (kind == 2) {
                        for (int i = 0; i < 16; ++i) {
                            const uint64_t pick = rng.below(8);
                            blk[i] = pick == 0
                                ? 32767
                                : pick == 1 ? -32767
                                            : static_cast<int16_t>(
                                                  rng.range(-32767, 32767));
                        }
                    }
                }
                const size_t dst_size =
                    static_cast<size_t>(n - 1) * d_stride + n;
                std::vector<uint8_t> want(dst_size, 0x33);
                const int want_coded =
                    reconBlockReference(pred.data(), p_stride, levels.data(),
                                        n, qp, want.data(), d_stride);
                for (const KernelOps *k : allBackends()) {
                    std::vector<uint8_t> got(dst_size, 0x33);
                    const int got_coded =
                        k->reconBlock(pred.data(), p_stride, levels.data(),
                                      n, qp, got.data(), d_stride);
                    EXPECT_EQ(want_coded, got_coded)
                        << k->name << " n=" << n << " qp=" << qp
                        << " pattern=" << pattern;
                    EXPECT_EQ(want, got) << k->name << " n=" << n
                                         << " qp=" << qp
                                         << " pattern=" << pattern;
                }
            }
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
