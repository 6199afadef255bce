/**
 * @file
 * AVX2 kernel backend. Compiled per-TU with -mavx2; on hosts or builds
 * without AVX2 the guard compiles this down to a null table and the
 * dispatcher stops at SSE2.
 *
 * Overrides only the kernels that benefit from 256-bit lanes: SAD (row
 * pairing keeps 16-wide macroblocks on full-width psadbw), the SAD map
 * (mpsadbw scores 16 search offsets per call), SATD (four
 * 4x4 Hadamard blocks per 256-bit strip in 16-bit lanes), the 8x8
 * transform pair (two 4x4 sub-blocks ride in the two 128-bit lanes),
 * quant/dequant, interpolation, residual diff/reconstruction, the
 * whole-block residual coding (quantBlock: four 4x4 blocks per pass in
 * 16-bit lanes) and reconstruction (reconBlock: two blocks per pass in
 * 32-bit lanes), and the PSNR sum of squares. The single 4x4
 * transforms, both deblocking edge kernels and the 8-wide SSIM window
 * stay on the SSE2 versions, which already fill their lanes. All the
 * same bit-exactness arguments as the SSE2 TU apply (wrapping packs,
 * 64-bit quant math, exact pavgb/psadbw), plus SATD's exact halving
 * (see satdAvx2) and quantBlock's lane-width bounds (see quantQuad).
 */

#include "kernels/kernel_ops.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <cstring>

#include "kernels/quant_tables.h"

namespace vbench::kernels {

namespace {

inline uint8_t
clamp255(int v)
{
    return static_cast<uint8_t>(v < 0 ? 0 : (v > 255 ? 255 : v));
}

/** Load 16 bytes and zero-extend to 16 uint16 lanes. */
inline __m256i
load16u16(const uint8_t *p)
{
    return _mm256_cvtepu8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(p)));
}

/** Load 8 bytes and zero-extend to 8 uint16 lanes (SSE width). */
inline __m128i
load8u16(const uint8_t *p)
{
    return _mm_unpacklo_epi8(
        _mm_loadl_epi64(reinterpret_cast<const __m128i *>(p)),
        _mm_setzero_si128());
}

/** Per-128-lane 4x4 transpose of int32 elements. */
inline void
transpose4x32(__m256i &r0, __m256i &r1, __m256i &r2, __m256i &r3)
{
    const __m256i t0 = _mm256_unpacklo_epi32(r0, r1);
    const __m256i t1 = _mm256_unpackhi_epi32(r0, r1);
    const __m256i t2 = _mm256_unpacklo_epi32(r2, r3);
    const __m256i t3 = _mm256_unpackhi_epi32(r2, r3);
    r0 = _mm256_unpacklo_epi64(t0, t2);
    r1 = _mm256_unpackhi_epi64(t0, t2);
    r2 = _mm256_unpacklo_epi64(t1, t3);
    r3 = _mm256_unpackhi_epi64(t1, t3);
}

/**
 * Truncate 8 int32 lanes to 8 int16 in the low 128 bits (wrapping,
 * matching static_cast<int16_t>).
 */
inline __m128i
wrapPack16(__m256i v)
{
    v = _mm256_shufflelo_epi16(v, _MM_SHUFFLE(3, 3, 2, 0));
    v = _mm256_shufflehi_epi16(v, _MM_SHUFFLE(3, 3, 2, 0));
    v = _mm256_shuffle_epi32(v, _MM_SHUFFLE(3, 3, 2, 0));
    v = _mm256_permute4x64_epi64(v, _MM_SHUFFLE(3, 3, 2, 0));
    return _mm256_castsi256_si128(v);
}

/**
 * Narrow 16 uint16 lanes to 16 bytes with unsigned saturation,
 * compacting the per-lane packus results.
 */
inline __m128i
packusRow(__m256i v)
{
    const __m256i packed = _mm256_packus_epi16(v, v);
    return _mm256_castsi256_si128(
        _mm256_permute4x64_epi64(packed, _MM_SHUFFLE(3, 3, 2, 0)));
}

/** Sum of the four 64-bit lanes (psadbw accumulator). */
inline uint64_t
hsum64(__m256i v)
{
    const __m128i lo = _mm256_castsi256_si128(v);
    const __m128i hi = _mm256_extracti128_si256(v, 1);
    const __m128i s = _mm_add_epi64(lo, hi);
    return static_cast<uint64_t>(_mm_cvtsi128_si64(s)) +
        static_cast<uint64_t>(
            _mm_cvtsi128_si64(_mm_unpackhi_epi64(s, s)));
}

// ----- SAD ---------------------------------------------------------

uint32_t
sadAvx2(const uint8_t *a, int a_stride, const uint8_t *b, int b_stride,
        int w, int h)
{
    __m256i acc = _mm256_setzero_si256();
    if (w == 16 && (h & 1) == 0) {
        // The dominant macroblock shape: pair rows so psadbw runs at
        // full 256-bit width.
        for (int r = 0; r < h; r += 2) {
            const __m256i va = _mm256_inserti128_si256(
                _mm256_castsi128_si256(_mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(a + r * a_stride))),
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(
                    a + (r + 1) * a_stride)),
                1);
            const __m256i vb = _mm256_inserti128_si256(
                _mm256_castsi128_si256(_mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(b + r * b_stride))),
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(
                    b + (r + 1) * b_stride)),
                1);
            acc = _mm256_add_epi64(acc, _mm256_sad_epu8(va, vb));
        }
        return static_cast<uint32_t>(hsum64(acc));
    }
    __m128i acc128 = _mm_setzero_si128();
    uint32_t tail = 0;
    for (int r = 0; r < h; ++r) {
        const uint8_t *pa = a + r * a_stride;
        const uint8_t *pb = b + r * b_stride;
        int c = 0;
        for (; c + 32 <= w; c += 32) {
            const __m256i va = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(pa + c));
            const __m256i vb = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(pb + c));
            acc = _mm256_add_epi64(acc, _mm256_sad_epu8(va, vb));
        }
        if (c + 16 <= w) {
            const __m128i va = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(pa + c));
            const __m128i vb = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(pb + c));
            acc128 = _mm_add_epi64(acc128, _mm_sad_epu8(va, vb));
            c += 16;
        }
        if (c + 8 <= w) {
            const __m128i va = _mm_loadl_epi64(
                reinterpret_cast<const __m128i *>(pa + c));
            const __m128i vb = _mm_loadl_epi64(
                reinterpret_cast<const __m128i *>(pb + c));
            acc128 = _mm_add_epi64(acc128, _mm_sad_epu8(va, vb));
            c += 8;
        }
        for (; c < w; ++c)
            tail += static_cast<uint32_t>(std::abs(pa[c] - pb[c]));
    }
    const uint64_t lanes128 =
        static_cast<uint64_t>(_mm_cvtsi128_si64(acc128)) +
        static_cast<uint64_t>(
            _mm_cvtsi128_si64(_mm_unpackhi_epi64(acc128, acc128)));
    return static_cast<uint32_t>(hsum64(acc) + lanes128) + tail;
}

// ----- SAD map -----------------------------------------------------
//
// mpsadbw scores one 4-byte source group against 8 consecutive
// reference offsets per 128-bit lane. Its immediate picks the group
// (bits 1:0, per lane) and whether the lane's reference window starts
// at byte 0 or 4 (bit 2). With the reference loaded from p in lane 0
// and from p + 8 in lane 1, one call scores 16 consecutive offsets:
// groups 0 and 1 of a 16-byte source chunk at c use the pair loaded at
// p + c (reference bytes 0 and 4), groups 2 and 3 the pair at p + c + 8.
// Each call adds at most 4 * 255 per word, so a w <= 32 wide row adds
// at most 255 w and eight rows stay below 65536 before they are widened
// to 32 bits.

// A 3-bit lane selection s times 9 sets it for both lanes (s | s << 3).
constexpr int kMapGroup0 = 0;        // group 0, reference byte 0
constexpr int kMapGroup1 = 5 * 9;    // group 1, reference byte 4
constexpr int kMapGroup2 = 2 * 9;    // group 2, reference byte 0
constexpr int kMapGroup3 = 7 * 9;    // group 3, reference byte 4
constexpr int kMapRowsPer16Bit = 8;

/** Reference bytes p[0..15] in lane 0 and p[8..23] in lane 1. */
inline __m256i
loadRefPair(const uint8_t *p)
{
    return _mm256_inserti128_si256(
        _mm256_castsi128_si256(
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(p))),
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(p + 8)), 1);
}

/**
 * SADs of a W x h block at the 16 reference offsets ref + 0 .. 15;
 * reads reference columns 0 .. W + 15.
 */
template <int W>
void
sadMapRow16(const uint8_t *src, int src_stride, const uint8_t *ref,
            int ref_stride, int h, uint32_t out[16])
{
    __m256i lo = _mm256_setzero_si256();
    __m256i hi = _mm256_setzero_si256();
    for (int r0 = 0; r0 < h; r0 += kMapRowsPer16Bit) {
        const int r_end = std::min(h, r0 + kMapRowsPer16Bit);
        __m256i acc = _mm256_setzero_si256();
        for (int r = r0; r < r_end; ++r) {
            const uint8_t *s = src + r * src_stride;
            const uint8_t *p = ref + r * ref_stride;
            for (int c = 0; c + 16 <= W; c += 16) {
                const __m256i sv = _mm256_broadcastsi128_si256(
                    _mm_loadu_si128(reinterpret_cast<const __m128i *>(s + c)));
                const __m256i pair0 = loadRefPair(p + c);
                const __m256i pair1 = loadRefPair(p + c + 8);
                acc = _mm256_add_epi16(
                    acc, _mm256_mpsadbw_epu8(pair0, sv, kMapGroup0));
                acc = _mm256_add_epi16(
                    acc, _mm256_mpsadbw_epu8(pair0, sv, kMapGroup1));
                acc = _mm256_add_epi16(
                    acc, _mm256_mpsadbw_epu8(pair1, sv, kMapGroup2));
                acc = _mm256_add_epi16(
                    acc, _mm256_mpsadbw_epu8(pair1, sv, kMapGroup3));
            }
            if constexpr (W % 16 == 8) {
                constexpr int c = W - 8;
                const __m256i sv = _mm256_broadcastq_epi64(_mm_loadl_epi64(
                    reinterpret_cast<const __m128i *>(s + c)));
                const __m256i pair0 = loadRefPair(p + c);
                acc = _mm256_add_epi16(
                    acc, _mm256_mpsadbw_epu8(pair0, sv, kMapGroup0));
                acc = _mm256_add_epi16(
                    acc, _mm256_mpsadbw_epu8(pair0, sv, kMapGroup1));
            }
        }
        lo = _mm256_add_epi32(
            lo, _mm256_cvtepu16_epi32(_mm256_castsi256_si128(acc)));
        hi = _mm256_add_epi32(
            hi, _mm256_cvtepu16_epi32(_mm256_extracti128_si256(acc, 1)));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(out), lo);
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + 8), hi);
}

/**
 * SADs of a W x h block at the 8 reference offsets ref + 0 .. 7; reads
 * reference columns 0 .. W + 7. Each call scores two block rows, one
 * per 128-bit lane, and the lanes are added when widened, so each lane
 * still sums at most kMapRowsPer16Bit rows in 16 bits. h is even.
 */
template <int W>
void
sadMapRow8(const uint8_t *src, int src_stride, const uint8_t *ref,
           int ref_stride, int h, uint32_t out[8])
{
    const auto lanes = [](const uint8_t *p, int stride) {
        return _mm256_inserti128_si256(
            _mm256_castsi128_si256(
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(p))),
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(p + stride)),
            1);
    };
    __m256i sums = _mm256_setzero_si256();
    for (int r0 = 0; r0 < h; r0 += 2 * kMapRowsPer16Bit) {
        const int r_end = std::min(h, r0 + 2 * kMapRowsPer16Bit);
        __m256i acc = _mm256_setzero_si256();
        for (int r = r0; r < r_end; r += 2) {
            const uint8_t *s = src + r * src_stride;
            const uint8_t *p = ref + r * ref_stride;
            for (int c = 0; c + 16 <= W; c += 16) {
                const __m256i sv = lanes(s + c, src_stride);
                const __m256i pair0 = lanes(p + c, ref_stride);
                const __m256i pair1 = lanes(p + c + 8, ref_stride);
                acc = _mm256_add_epi16(
                    acc, _mm256_mpsadbw_epu8(pair0, sv, kMapGroup0));
                acc = _mm256_add_epi16(
                    acc, _mm256_mpsadbw_epu8(pair0, sv, kMapGroup1));
                acc = _mm256_add_epi16(
                    acc, _mm256_mpsadbw_epu8(pair1, sv, kMapGroup2));
                acc = _mm256_add_epi16(
                    acc, _mm256_mpsadbw_epu8(pair1, sv, kMapGroup3));
            }
            if constexpr (W % 16 == 8) {
                constexpr int c = W - 8;
                const __m256i sv = _mm256_inserti128_si256(
                    _mm256_castsi128_si256(_mm_loadl_epi64(
                        reinterpret_cast<const __m128i *>(s + c))),
                    _mm_loadl_epi64(reinterpret_cast<const __m128i *>(
                        s + c + src_stride)),
                    1);
                const __m256i pair0 = lanes(p + c, ref_stride);
                acc = _mm256_add_epi16(
                    acc, _mm256_mpsadbw_epu8(pair0, sv, kMapGroup0));
                acc = _mm256_add_epi16(
                    acc, _mm256_mpsadbw_epu8(pair0, sv, kMapGroup1));
            }
        }
        sums = _mm256_add_epi32(
            sums, _mm256_cvtepu16_epi32(_mm256_castsi256_si128(acc)));
        sums = _mm256_add_epi32(
            sums, _mm256_cvtepu16_epi32(_mm256_extracti128_si256(acc, 1)));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(out), sums);
}

/**
 * The map, row by row: 16-offset groups at u = 0, 16, ... with the
 * last one moved back to cols - 16 (overlapping its neighbour), or,
 * when a row is narrower than 16, two 8-offset groups at 0 and
 * cols - 8 (those need an even h).
 */
template <int W>
void
sadMapRows(const uint8_t *src, int src_stride, const uint8_t *ref,
           int ref_stride, int h, int cols, int rows, uint32_t *out)
{
    for (int v = 0; v < rows; ++v) {
        const uint8_t *row = ref + v * ref_stride;
        uint32_t *o = out + v * cols;
        if (cols >= 16) {
            for (int u = 0;; u += 16) {
                u = std::min(u, cols - 16);
                sadMapRow16<W>(src, src_stride, row + u, ref_stride, h,
                               o + u);
                if (u + 16 == cols)
                    break;
            }
        } else {
            sadMapRow8<W>(src, src_stride, row, ref_stride, h, o);
            if (cols > 8)
                sadMapRow8<W>(src, src_stride, row + cols - 8, ref_stride,
                              h, o + cols - 8);
        }
    }
}

void
sadMapAvx2(const uint8_t *src, int src_stride, const uint8_t *ref,
           int ref_stride, int w, int h, int cols, int rows, uint32_t *out)
{
    if (cols >= 16 || (cols >= 8 && h % 2 == 0)) {
        switch (w) {
          case 8:
            return sadMapRows<8>(src, src_stride, ref, ref_stride, h, cols,
                                 rows, out);
          case 16:
            return sadMapRows<16>(src, src_stride, ref, ref_stride, h,
                                  cols, rows, out);
          case 24:
            return sadMapRows<24>(src, src_stride, ref, ref_stride, h,
                                  cols, rows, out);
          case 32:
            return sadMapRows<32>(src, src_stride, ref, ref_stride, h,
                                  cols, rows, out);
          default:
            break;
        }
    }
    for (int v = 0; v < rows; ++v)
        for (int u = 0; u < cols; ++u)
            out[v * cols + u] = sadAvx2(src, src_stride,
                                        ref + v * ref_stride + u,
                                        ref_stride, w, h);
}

// ----- SATD --------------------------------------------------------

/** Residual a - b of up to 16 packed bytes, widened to int16 lanes. */
inline __m256i
residual16(__m128i a, __m128i b)
{
    return _mm256_sub_epi16(_mm256_cvtepu8_epi16(a),
                            _mm256_cvtepu8_epi16(b));
}

inline __m128i
load4(const uint8_t *p)
{
    uint32_t v;
    std::memcpy(&v, p, 4);
    return _mm_cvtsi32_si128(static_cast<int>(v));
}

inline __m128i
load8(const uint8_t *p)
{
    return _mm_loadl_epi64(reinterpret_cast<const __m128i *>(p));
}

/**
 * Halved SATD of the four 4x4 blocks held in four rows of residual
 * (block k in lanes 4k..4k+3 of every row), as eight int32 partial
 * sums. The vertical butterflies run lane-wise across the rows; a
 * per-block 4x4 transpose then lines the columns up lane-wise for the
 * first horizontal stage, and the last stage folds into a max:
 * |p + q| + |p - q| = 2 max(|p|, |q|), so summing the maxes gives each
 * block's coefficient sum already halved, exactly. Before the fold
 * |p| <= 8 * 255, so every lane stays far inside int16.
 */
inline __m256i
satdQuad(__m256i d0, __m256i d1, __m256i d2, __m256i d3)
{
    const __m256i s01 = _mm256_add_epi16(d0, d1);
    const __m256i t01 = _mm256_sub_epi16(d0, d1);
    const __m256i s23 = _mm256_add_epi16(d2, d3);
    const __m256i t23 = _mm256_sub_epi16(d2, d3);
    const __m256i v0 = _mm256_add_epi16(s01, s23);
    const __m256i v1 = _mm256_sub_epi16(s01, s23);
    const __m256i v2 = _mm256_add_epi16(t01, t23);
    const __m256i v3 = _mm256_sub_epi16(t01, t23);

    // Transpose: each 128-bit lane holds two blocks, x_c ends up with
    // column c of both.
    const __m256i r01lo = _mm256_unpacklo_epi16(v0, v1);
    const __m256i r01hi = _mm256_unpackhi_epi16(v0, v1);
    const __m256i r23lo = _mm256_unpacklo_epi16(v2, v3);
    const __m256i r23hi = _mm256_unpackhi_epi16(v2, v3);
    const __m256i a01 = _mm256_unpacklo_epi32(r01lo, r23lo);
    const __m256i a23 = _mm256_unpackhi_epi32(r01lo, r23lo);
    const __m256i b01 = _mm256_unpacklo_epi32(r01hi, r23hi);
    const __m256i b23 = _mm256_unpackhi_epi32(r01hi, r23hi);
    const __m256i x0 = _mm256_unpacklo_epi64(a01, b01);
    const __m256i x1 = _mm256_unpackhi_epi64(a01, b01);
    const __m256i x2 = _mm256_unpacklo_epi64(a23, b23);
    const __m256i x3 = _mm256_unpackhi_epi64(a23, b23);

    const __m256i p0 = _mm256_abs_epi16(_mm256_add_epi16(x0, x1));
    const __m256i p1 = _mm256_abs_epi16(_mm256_sub_epi16(x0, x1));
    const __m256i p2 = _mm256_abs_epi16(_mm256_add_epi16(x2, x3));
    const __m256i p3 = _mm256_abs_epi16(_mm256_sub_epi16(x2, x3));
    const __m256i halved = _mm256_add_epi16(_mm256_max_epi16(p0, p2),
                                            _mm256_max_epi16(p1, p3));
    return _mm256_madd_epi16(halved, _mm256_set1_epi16(1));
}

/**
 * The scalar reference halves each 4x4 block's coefficient sum with a
 * floor; that sum is always even (its parity is that of the summed
 * coefficients, 16 times the top-left residual), so the max fold
 * reproduces it exactly. 16-wide strips fill all four blocks of a
 * vector; an 8-wide tail pairs the rows of two block rows in the two
 * 128-bit lanes, and any remaining 8- or 4-wide blocks run in the low
 * lane alone, where the zero residual of the empty lanes adds nothing.
 */
uint32_t
satdAvx2(const uint8_t *a, int a_stride, const uint8_t *b, int b_stride,
         int w, int h)
{
    __m256i acc = _mm256_setzero_si256();
    __m256i d[4];
    int c = 0;
    for (; c + 16 <= w; c += 16) {
        for (int r = 0; r < h; r += 4) {
            for (int i = 0; i < 4; ++i) {
                d[i] = residual16(
                    _mm_loadu_si128(reinterpret_cast<const __m128i *>(
                        a + (r + i) * a_stride + c)),
                    _mm_loadu_si128(reinterpret_cast<const __m128i *>(
                        b + (r + i) * b_stride + c)));
            }
            acc = _mm256_add_epi32(acc, satdQuad(d[0], d[1], d[2], d[3]));
        }
    }
    if (c + 8 <= w) {
        int r = 0;
        for (; r + 8 <= h; r += 8) {
            for (int i = 0; i < 4; ++i) {
                const uint8_t *pa = a + (r + i) * a_stride + c;
                const uint8_t *pb = b + (r + i) * b_stride + c;
                d[i] = residual16(
                    _mm_unpacklo_epi64(load8(pa), load8(pa + 4 * a_stride)),
                    _mm_unpacklo_epi64(load8(pb),
                                       load8(pb + 4 * b_stride)));
            }
            acc = _mm256_add_epi32(acc, satdQuad(d[0], d[1], d[2], d[3]));
        }
        for (; r < h; r += 4) {
            for (int i = 0; i < 4; ++i) {
                d[i] = residual16(load8(a + (r + i) * a_stride + c),
                                  load8(b + (r + i) * b_stride + c));
            }
            acc = _mm256_add_epi32(acc, satdQuad(d[0], d[1], d[2], d[3]));
        }
        c += 8;
    }
    if (c + 4 <= w) {
        for (int r = 0; r < h; r += 4) {
            for (int i = 0; i < 4; ++i) {
                d[i] = residual16(load4(a + (r + i) * a_stride + c),
                                  load4(b + (r + i) * b_stride + c));
            }
            acc = _mm256_add_epi32(acc, satdQuad(d[0], d[1], d[2], d[3]));
        }
    }
    const __m128i sum = _mm_add_epi32(_mm256_castsi256_si128(acc),
                                      _mm256_extracti128_si256(acc, 1));
    const __m128i pairs =
        _mm_add_epi32(sum, _mm_shuffle_epi32(sum, _MM_SHUFFLE(1, 0, 3, 2)));
    return static_cast<uint32_t>(_mm_cvtsi128_si32(_mm_add_epi32(
        pairs, _mm_shuffle_epi32(pairs, _MM_SHUFFLE(2, 3, 0, 1)))));
}

// ----- Interpolation -----------------------------------------------

inline void
interp2Tap(const uint8_t *src, int src_stride, int off, uint8_t *dst,
           int dst_stride, int w, int h)
{
    for (int r = 0; r < h; ++r) {
        const uint8_t *s = src + r * src_stride;
        uint8_t *d = dst + r * dst_stride;
        int c = 0;
        for (; c + 32 <= w; c += 32) {
            const __m256i v0 = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(s + c));
            const __m256i v1 = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(s + c + off));
            _mm256_storeu_si256(reinterpret_cast<__m256i *>(d + c),
                                _mm256_avg_epu8(v0, v1));
        }
        if (c + 16 <= w) {
            const __m128i v0 = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(s + c));
            const __m128i v1 = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(s + c + off));
            _mm_storeu_si128(reinterpret_cast<__m128i *>(d + c),
                             _mm_avg_epu8(v0, v1));
            c += 16;
        }
        if (c + 8 <= w) {
            const __m128i v0 = _mm_loadl_epi64(
                reinterpret_cast<const __m128i *>(s + c));
            const __m128i v1 = _mm_loadl_epi64(
                reinterpret_cast<const __m128i *>(s + c + off));
            _mm_storel_epi64(reinterpret_cast<__m128i *>(d + c),
                             _mm_avg_epu8(v0, v1));
            c += 8;
        }
        for (; c < w; ++c)
            d[c] = static_cast<uint8_t>((s[c] + s[c + off] + 1) >> 1);
    }
}

void
interpHAvx2(const uint8_t *src, int src_stride, uint8_t *dst,
            int dst_stride, int w, int h)
{
    interp2Tap(src, src_stride, 1, dst, dst_stride, w, h);
}

void
interpVAvx2(const uint8_t *src, int src_stride, uint8_t *dst,
            int dst_stride, int w, int h)
{
    interp2Tap(src, src_stride, src_stride, dst, dst_stride, w, h);
}

void
interpHVAvx2(const uint8_t *src, int src_stride, uint8_t *dst,
             int dst_stride, int w, int h)
{
    const __m256i two256 = _mm256_set1_epi16(2);
    const __m128i two128 = _mm_set1_epi16(2);
    for (int r = 0; r < h; ++r) {
        const uint8_t *s = src + r * src_stride;
        uint8_t *d = dst + r * dst_stride;
        int c = 0;
        for (; c + 16 <= w; c += 16) {
            const __m256i v00 = load16u16(s + c);
            const __m256i v01 = load16u16(s + c + 1);
            const __m256i v10 = load16u16(s + c + src_stride);
            const __m256i v11 = load16u16(s + c + src_stride + 1);
            __m256i sum = _mm256_add_epi16(_mm256_add_epi16(v00, v01),
                                           _mm256_add_epi16(v10, v11));
            sum = _mm256_srli_epi16(_mm256_add_epi16(sum, two256), 2);
            _mm_storeu_si128(reinterpret_cast<__m128i *>(d + c),
                             packusRow(sum));
        }
        if (c + 8 <= w) {
            const __m128i v00 = load8u16(s + c);
            const __m128i v01 = load8u16(s + c + 1);
            const __m128i v10 = load8u16(s + c + src_stride);
            const __m128i v11 = load8u16(s + c + src_stride + 1);
            __m128i sum = _mm_add_epi16(_mm_add_epi16(v00, v01),
                                        _mm_add_epi16(v10, v11));
            sum = _mm_srli_epi16(_mm_add_epi16(sum, two128), 2);
            _mm_storel_epi64(reinterpret_cast<__m128i *>(d + c),
                             _mm_packus_epi16(sum, sum));
            c += 8;
        }
        for (; c < w; ++c) {
            d[c] = static_cast<uint8_t>(
                (s[c] + s[c + 1] + s[c + src_stride] +
                 s[c + src_stride + 1] + 2) >> 2);
        }
    }
}

// ----- 8x8 transforms (two 4x4 sub-blocks per vector) ---------------

void
fwdTx8x8Avx2(const int16_t residual[64], int32_t coefs[64])
{
    for (int half = 0; half < 2; ++half) {
        // Rows half*4 .. half*4+3 carry sub-blocks (half*2) in the low
        // 128-bit lane and (half*2 + 1) in the high lane.
        __m256i c0, c1, c2, c3;
        {
            const int16_t *rows = residual + half * 4 * 8;
            c0 = _mm256_cvtepi16_epi32(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(rows + 0 * 8)));
            c1 = _mm256_cvtepi16_epi32(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(rows + 1 * 8)));
            c2 = _mm256_cvtepi16_epi32(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(rows + 2 * 8)));
            c3 = _mm256_cvtepi16_epi32(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(rows + 3 * 8)));
        }
        transpose4x32(c0, c1, c2, c3);
        __m256i s0 = _mm256_add_epi32(c0, c3);
        __m256i s1 = _mm256_add_epi32(c1, c2);
        __m256i s2 = _mm256_sub_epi32(c1, c2);
        __m256i s3 = _mm256_sub_epi32(c0, c3);
        __m256i t0 = _mm256_add_epi32(s0, s1);
        __m256i t1 = _mm256_add_epi32(_mm256_slli_epi32(s3, 1), s2);
        __m256i t2 = _mm256_sub_epi32(s0, s1);
        __m256i t3 = _mm256_sub_epi32(s3, _mm256_slli_epi32(s2, 1));
        transpose4x32(t0, t1, t2, t3);
        s0 = _mm256_add_epi32(t0, t3);
        s1 = _mm256_add_epi32(t1, t2);
        s2 = _mm256_sub_epi32(t1, t2);
        s3 = _mm256_sub_epi32(t0, t3);
        const __m256i o0 = _mm256_add_epi32(s0, s1);
        const __m256i o1 =
            _mm256_add_epi32(_mm256_slli_epi32(s3, 1), s2);
        const __m256i o2 = _mm256_sub_epi32(s0, s1);
        const __m256i o3 =
            _mm256_sub_epi32(s3, _mm256_slli_epi32(s2, 1));
        int32_t *left = coefs + (half * 2 + 0) * 16;
        int32_t *right = coefs + (half * 2 + 1) * 16;
        const __m256i out[4] = {o0, o1, o2, o3};
        for (int i = 0; i < 4; ++i) {
            _mm_storeu_si128(reinterpret_cast<__m128i *>(left + i * 4),
                             _mm256_castsi256_si128(out[i]));
            _mm_storeu_si128(reinterpret_cast<__m128i *>(right + i * 4),
                             _mm256_extracti128_si256(out[i], 1));
        }
    }
}

/**
 * Inverse 4x4 core on two blocks at once, one per 128-bit lane: c[r]
 * holds coefficient row r of both; on return c[r] holds output row r,
 * rounded ((x + 32) >> 6) but still in int32 lanes.
 */
inline void
inv4Pair(__m256i c[4])
{
    const __m256i round = _mm256_set1_epi32(32);
    transpose4x32(c[0], c[1], c[2], c[3]);
    __m256i e0 = _mm256_add_epi32(c[0], c[2]);
    __m256i e1 = _mm256_sub_epi32(c[0], c[2]);
    __m256i e2 = _mm256_sub_epi32(_mm256_srai_epi32(c[1], 1), c[3]);
    __m256i e3 = _mm256_add_epi32(c[1], _mm256_srai_epi32(c[3], 1));
    __m256i t0 = _mm256_add_epi32(e0, e3);
    __m256i t1 = _mm256_add_epi32(e1, e2);
    __m256i t2 = _mm256_sub_epi32(e1, e2);
    __m256i t3 = _mm256_sub_epi32(e0, e3);
    transpose4x32(t0, t1, t2, t3);
    e0 = _mm256_add_epi32(t0, t2);
    e1 = _mm256_sub_epi32(t0, t2);
    e2 = _mm256_sub_epi32(_mm256_srai_epi32(t1, 1), t3);
    e3 = _mm256_add_epi32(t1, _mm256_srai_epi32(t3, 1));
    c[0] = _mm256_srai_epi32(
        _mm256_add_epi32(_mm256_add_epi32(e0, e3), round), 6);
    c[1] = _mm256_srai_epi32(
        _mm256_add_epi32(_mm256_add_epi32(e1, e2), round), 6);
    c[2] = _mm256_srai_epi32(
        _mm256_add_epi32(_mm256_sub_epi32(e1, e2), round), 6);
    c[3] = _mm256_srai_epi32(
        _mm256_add_epi32(_mm256_sub_epi32(e0, e3), round), 6);
}

void
invTx8x8Avx2(const int32_t coefs[64], int16_t residual[64])
{
    for (int half = 0; half < 2; ++half) {
        const int32_t *left = coefs + (half * 2 + 0) * 16;
        const int32_t *right = coefs + (half * 2 + 1) * 16;
        __m256i o[4];
        for (int i = 0; i < 4; ++i) {
            o[i] = _mm256_inserti128_si256(
                _mm256_castsi128_si256(_mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(left + i * 4))),
                _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(right + i * 4)),
                1);
        }
        inv4Pair(o);
        for (int i = 0; i < 4; ++i) {
            // Low lane = columns 0-3, high lane = columns 4-7 of the
            // same output row: one contiguous 8-int16 store.
            _mm_storeu_si128(
                reinterpret_cast<__m128i *>(residual +
                                            (half * 4 + i) * 8),
                wrapPack16(o[i]));
        }
    }
}

// ----- Quantization ------------------------------------------------

int
quant4x4Avx2(const int32_t coefs[16], int16_t levels[16], int qp,
             bool intra)
{
    const int rem = qp % 6;
    const int qbits = 15 + qp / 6;
    const __m256i f64 = _mm256_set1_epi64x(quantRound(qbits, intra));
    // Rows 0-1 and rows 2-3 share the a,c,a,c / c,b,c,b multiplier
    // pattern, so one 8-lane vector covers both halves.
    const __m256i mf = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(kQuantMfPos[rem].data()));
    const __m128i zero = _mm_setzero_si128();
    int nonzero = 0;
    for (int half = 0; half < 2; ++half) {
        const __m256i w = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(coefs + half * 8));
        const __m256i sign = _mm256_srai_epi32(w, 31);
        const __m256i absw =
            _mm256_sub_epi32(_mm256_xor_si256(w, sign), sign);
        const __m256i prod02 = _mm256_mul_epu32(absw, mf);
        const __m256i prod13 = _mm256_mul_epu32(
            _mm256_srli_si256(absw, 4), _mm256_srli_si256(mf, 4));
        const __m256i mag02 =
            _mm256_srli_epi64(_mm256_add_epi64(prod02, f64), qbits);
        const __m256i mag13 =
            _mm256_srli_epi64(_mm256_add_epi64(prod13, f64), qbits);
        const __m256i mag = _mm256_unpacklo_epi32(
            _mm256_shuffle_epi32(mag02, _MM_SHUFFLE(3, 3, 2, 0)),
            _mm256_shuffle_epi32(mag13, _MM_SHUFFLE(3, 3, 2, 0)));
        const __m256i lvl32 =
            _mm256_sub_epi32(_mm256_xor_si256(mag, sign), sign);
        const __m128i lvl16 = wrapPack16(lvl32);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(levels + half * 8),
                         lvl16);
        const int zmask = _mm_movemask_epi8(_mm_cmpeq_epi16(lvl16, zero));
        nonzero +=
            8 - __builtin_popcount(static_cast<unsigned>(zmask)) / 2;
    }
    return nonzero;
}

void
dequant4x4Avx2(const int16_t levels[16], int32_t coefs[16], int qp)
{
    const int rem = qp % 6;
    const int shift = qp / 6;
    const __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(kDequantVPos16[rem].data()));
    const __m256i lv = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(levels));
    const __m256i lo = _mm256_mullo_epi16(lv, v);
    const __m256i hi = _mm256_mulhi_epi16(lv, v);
    const __m256i p_lo =
        _mm256_slli_epi32(_mm256_unpacklo_epi16(lo, hi), shift);
    const __m256i p_hi =
        _mm256_slli_epi32(_mm256_unpackhi_epi16(lo, hi), shift);
    // Per-lane unpack order: p_lo = rows {0, 2}, p_hi = rows {1, 3}.
    _mm_storeu_si128(reinterpret_cast<__m128i *>(coefs + 0),
                     _mm256_castsi256_si128(p_lo));
    _mm_storeu_si128(reinterpret_cast<__m128i *>(coefs + 4),
                     _mm256_castsi256_si128(p_hi));
    _mm_storeu_si128(reinterpret_cast<__m128i *>(coefs + 8),
                     _mm256_extracti128_si256(p_lo, 1));
    _mm_storeu_si128(reinterpret_cast<__m128i *>(coefs + 12),
                     _mm256_extracti128_si256(p_hi, 1));
}

// ----- Residual / reconstruction -----------------------------------

void
diffBlockAvx2(const uint8_t *src, int src_stride, const uint8_t *pred,
              int pred_stride, int16_t *out, int out_stride, int w, int h)
{
    for (int r = 0; r < h; ++r) {
        const uint8_t *s = src + r * src_stride;
        const uint8_t *p = pred + r * pred_stride;
        int16_t *o = out + r * out_stride;
        int c = 0;
        for (; c + 16 <= w; c += 16) {
            _mm256_storeu_si256(
                reinterpret_cast<__m256i *>(o + c),
                _mm256_sub_epi16(load16u16(s + c), load16u16(p + c)));
        }
        if (c + 8 <= w) {
            _mm_storeu_si128(
                reinterpret_cast<__m128i *>(o + c),
                _mm_sub_epi16(load8u16(s + c), load8u16(p + c)));
            c += 8;
        }
        for (; c < w; ++c)
            o[c] = static_cast<int16_t>(s[c] - p[c]);
    }
}

void
addClampBlockAvx2(const uint8_t *pred, int pred_stride,
                  const int16_t *residual, int res_stride, uint8_t *dst,
                  int dst_stride, int w, int h)
{
    for (int r = 0; r < h; ++r) {
        const uint8_t *p = pred + r * pred_stride;
        const int16_t *res = residual + r * res_stride;
        uint8_t *d = dst + r * dst_stride;
        int c = 0;
        for (; c + 16 <= w; c += 16) {
            const __m256i vr = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(res + c));
            const __m256i sum = _mm256_adds_epi16(load16u16(p + c), vr);
            _mm_storeu_si128(reinterpret_cast<__m128i *>(d + c),
                             packusRow(sum));
        }
        if (c + 8 <= w) {
            const __m128i vr = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(res + c));
            const __m128i sum = _mm_adds_epi16(load8u16(p + c), vr);
            _mm_storel_epi64(reinterpret_cast<__m128i *>(d + c),
                             _mm_packus_epi16(sum, sum));
            c += 8;
        }
        for (; c < w; ++c)
            d[c] = clamp255(p[c] + res[c]);
    }
}

// ----- Whole-block residual coding and reconstruction ---------------

/** Rows 0-1 of a 4x4 position table (int16), in both 128-bit lanes. */
inline __m256i
rowPairPattern(const std::array<int16_t, 16> &table)
{
    return _mm256_broadcastsi128_si256(_mm_loadu_si128(
        reinterpret_cast<const __m128i *>(table.data())));
}

/**
 * Quantize 16 int16 coefficients (a row pair of two blocks, |w| <=
 * 9180) exactly as quant4x4 does: |w| * mf < 2^27 and + f < 2^31, so
 * 32-bit lanes hold the product the scalar path forms at 64 bits, and
 * the level (< 2^12) packs back to int16 without saturating.
 */
inline __m256i
quantRowPair(__m256i w, __m256i mf, __m256i f, __m128i qbits)
{
    const __m256i mag = _mm256_abs_epi16(w);
    const __m256i lo = _mm256_mullo_epi16(mag, mf);
    const __m256i hi = _mm256_mulhi_epu16(mag, mf);
    const __m256i p0 = _mm256_srl_epi32(
        _mm256_add_epi32(_mm256_unpacklo_epi16(lo, hi), f), qbits);
    const __m256i p1 = _mm256_srl_epi32(
        _mm256_add_epi32(_mm256_unpackhi_epi16(lo, hi), f), qbits);
    return _mm256_sign_epi16(_mm256_packs_epi32(p0, p1), w);
}

/**
 * Transform and quantize four 4x4 blocks from four rows of int16
 * residual: the low 128-bit lane carries blocks 0 and 1 (four columns
 * each), the high lane blocks 2 and 3. Levels land block after block
 * at levels[0..63]; returns their nonzero count.
 *
 * The transform runs in 16-bit lanes: |residual| <= 255 and the core
 * matrix's largest row gain is 6, so |coef| <= 6 * 6 * 255 = 9180.
 * Columns go first (lane-wise across the rows; the separable integer
 * transform is exact in either order), then a per-block transpose
 * lines the rows up lane-wise, and two unpack steps of the inverse
 * transpose already leave each block's rows 0-1 and 2-3 contiguous.
 */
inline int
quantQuad(const __m256i d[4], __m256i mf, __m256i f, __m128i qbits,
          int16_t *levels)
{
    __m256i s0 = _mm256_add_epi16(d[0], d[3]);
    __m256i s1 = _mm256_add_epi16(d[1], d[2]);
    __m256i s2 = _mm256_sub_epi16(d[1], d[2]);
    __m256i s3 = _mm256_sub_epi16(d[0], d[3]);
    const __m256i c0 = _mm256_add_epi16(s0, s1);
    const __m256i c1 = _mm256_add_epi16(_mm256_add_epi16(s3, s3), s2);
    const __m256i c2 = _mm256_sub_epi16(s0, s1);
    const __m256i c3 = _mm256_sub_epi16(s3, _mm256_add_epi16(s2, s2));

    // x_j = column j of each block, one lane per row.
    const __m256i r01lo = _mm256_unpacklo_epi16(c0, c1);
    const __m256i r01hi = _mm256_unpackhi_epi16(c0, c1);
    const __m256i r23lo = _mm256_unpacklo_epi16(c2, c3);
    const __m256i r23hi = _mm256_unpackhi_epi16(c2, c3);
    const __m256i a01 = _mm256_unpacklo_epi32(r01lo, r23lo);
    const __m256i a23 = _mm256_unpackhi_epi32(r01lo, r23lo);
    const __m256i b01 = _mm256_unpacklo_epi32(r01hi, r23hi);
    const __m256i b23 = _mm256_unpackhi_epi32(r01hi, r23hi);
    const __m256i x0 = _mm256_unpacklo_epi64(a01, b01);
    const __m256i x1 = _mm256_unpackhi_epi64(a01, b01);
    const __m256i x2 = _mm256_unpacklo_epi64(a23, b23);
    const __m256i x3 = _mm256_unpackhi_epi64(a23, b23);

    // Row butterflies: y_v = coefficient column v, one lane per row.
    s0 = _mm256_add_epi16(x0, x3);
    s1 = _mm256_add_epi16(x1, x2);
    s2 = _mm256_sub_epi16(x1, x2);
    s3 = _mm256_sub_epi16(x0, x3);
    const __m256i y0 = _mm256_add_epi16(s0, s1);
    const __m256i y1 = _mm256_add_epi16(_mm256_add_epi16(s3, s3), s2);
    const __m256i y2 = _mm256_sub_epi16(s0, s1);
    const __m256i y3 = _mm256_sub_epi16(s3, _mm256_add_epi16(s2, s2));

    // Back to raster: rows 0-1 / 2-3 of the lane's first block (k01,
    // k23) and of its second (m01, m23).
    const __m256i t01lo = _mm256_unpacklo_epi16(y0, y1);
    const __m256i t01hi = _mm256_unpackhi_epi16(y0, y1);
    const __m256i t23lo = _mm256_unpacklo_epi16(y2, y3);
    const __m256i t23hi = _mm256_unpackhi_epi16(y2, y3);
    const __m256i k01 =
        quantRowPair(_mm256_unpacklo_epi32(t01lo, t23lo), mf, f, qbits);
    const __m256i k23 =
        quantRowPair(_mm256_unpackhi_epi32(t01lo, t23lo), mf, f, qbits);
    const __m256i m01 =
        quantRowPair(_mm256_unpacklo_epi32(t01hi, t23hi), mf, f, qbits);
    const __m256i m23 =
        quantRowPair(_mm256_unpackhi_epi32(t01hi, t23hi), mf, f, qbits);

    __m256i *out = reinterpret_cast<__m256i *>(levels);
    _mm256_storeu_si256(out + 0, _mm256_permute2x128_si256(k01, k23, 0x20));
    _mm256_storeu_si256(out + 1, _mm256_permute2x128_si256(m01, m23, 0x20));
    _mm256_storeu_si256(out + 2, _mm256_permute2x128_si256(k01, k23, 0x31));
    _mm256_storeu_si256(out + 3, _mm256_permute2x128_si256(m01, m23, 0x31));

    // One mask bit per zero level.
    const __m256i zero = _mm256_setzero_si256();
    const uint32_t z0 = static_cast<uint32_t>(_mm256_movemask_epi8(
        _mm256_packs_epi16(_mm256_cmpeq_epi16(k01, zero),
                           _mm256_cmpeq_epi16(k23, zero))));
    const uint32_t z1 = static_cast<uint32_t>(_mm256_movemask_epi8(
        _mm256_packs_epi16(_mm256_cmpeq_epi16(m01, zero),
                           _mm256_cmpeq_epi16(m23, zero))));
    return 64 - __builtin_popcount(z0) - __builtin_popcount(z1);
}

/**
 * Four blocks per quantQuad call: a 16-wide block row, or an 8x8
 * block's two block rows side by side in the two 128-bit lanes. A 4x4
 * block rides in the low lane alone with zero residual elsewhere,
 * which quantizes to zero levels and adds nothing to the count.
 */
int
quantBlockAvx2(const uint8_t *src, int src_stride, const uint8_t *pred,
               int pred_stride, int n, int qp, bool intra, int16_t *levels)
{
    const __m256i mf = rowPairPattern(kQuantMfPos16[qp % 6]);
    const int qbits = 15 + qp / 6;
    const __m256i f = _mm256_set1_epi32(quantRound(qbits, intra));
    const __m128i shift = _mm_cvtsi32_si128(qbits);
    __m256i d[4];
    if (n == 16) {
        int nonzero = 0;
        for (int by = 0; by < 16; by += 4, levels += 64) {
            for (int r = 0; r < 4; ++r) {
                d[r] = residual16(
                    _mm_loadu_si128(reinterpret_cast<const __m128i *>(
                        src + (by + r) * src_stride)),
                    _mm_loadu_si128(reinterpret_cast<const __m128i *>(
                        pred + (by + r) * pred_stride)));
            }
            nonzero += quantQuad(d, mf, f, shift, levels);
        }
        return nonzero;
    }
    if (n == 8) {
        for (int r = 0; r < 4; ++r) {
            const uint8_t *s = src + r * src_stride;
            const uint8_t *p = pred + r * pred_stride;
            d[r] = residual16(
                _mm_unpacklo_epi64(load8(s), load8(s + 4 * src_stride)),
                _mm_unpacklo_epi64(load8(p), load8(p + 4 * pred_stride)));
        }
        return quantQuad(d, mf, f, shift, levels);
    }
    for (int r = 0; r < 4; ++r)
        d[r] = residual16(load4(src + r * src_stride),
                          load4(pred + r * pred_stride));
    alignas(32) int16_t quad[64];
    const int nonzero = quantQuad(d, mf, f, shift, quad);
    std::memcpy(levels, quad, 16 * sizeof(int16_t));
    return nonzero;
}

/**
 * Reconstruct two horizontally adjacent 4x4 blocks (levels at lv and
 * lv + 16) over an 8 x 4 prediction, one block per 128-bit lane.
 * Returns how many of the two have a nonzero level; when neither does
 * the prediction is copied.
 */
inline int
reconPair(const uint8_t *pred, int pred_stride, const int16_t *lv,
          __m256i v, __m128i shift, uint8_t *dst, int dst_stride)
{
    const __m256i l0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(lv));
    const __m256i l1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(lv + 16));
    const int coded = !_mm256_testz_si256(l0, l0) +
        !_mm256_testz_si256(l1, l1);
    if (coded == 0) {
        for (int r = 0; r < 4; ++r)
            std::memcpy(dst + r * dst_stride, pred + r * pred_stride, 8);
        return 0;
    }
    // Dequantize: mullo/mulhi halves interleave into the exact int32
    // products, rows 0 and 1 (then 2 and 3) of both blocks.
    const __m256i rows[2] = {_mm256_permute2x128_si256(l0, l1, 0x20),
                             _mm256_permute2x128_si256(l0, l1, 0x31)};
    __m256i c[4];
    for (int half = 0; half < 2; ++half) {
        const __m256i lo = _mm256_mullo_epi16(rows[half], v);
        const __m256i hi = _mm256_mulhi_epi16(rows[half], v);
        c[half * 2] = _mm256_sll_epi32(_mm256_unpacklo_epi16(lo, hi), shift);
        c[half * 2 + 1] =
            _mm256_sll_epi32(_mm256_unpackhi_epi16(lo, hi), shift);
    }
    inv4Pair(c);
    // Wrap to int16 (sign-extend the low half, so the saturating pack
    // is exact), as invTx4x4's static_cast does.
    for (int r = 0; r < 4; ++r)
        c[r] = _mm256_srai_epi32(_mm256_slli_epi32(c[r], 16), 16);
    const __m256i res01 = _mm256_packs_epi32(c[0], c[1]);
    const __m256i res23 = _mm256_packs_epi32(c[2], c[3]);
    // Prediction in the same order: rows 0-1 of the left block, then
    // of the right one.
    const __m128i p0 = load8(pred);
    const __m128i p1 = load8(pred + pred_stride);
    const __m128i p2 = load8(pred + 2 * pred_stride);
    const __m128i p3 = load8(pred + 3 * pred_stride);
    const __m256i pred01 = _mm256_cvtepu8_epi16(_mm_unpacklo_epi32(p0, p1));
    const __m256i pred23 = _mm256_cvtepu8_epi16(_mm_unpacklo_epi32(p2, p3));
    // Saturating add then packus: exact, as in addClampBlock.
    const __m256i out = _mm256_packus_epi16(_mm256_adds_epi16(pred01, res01),
                                            _mm256_adds_epi16(pred23, res23));
    const __m128i left = _mm256_castsi256_si128(out);
    const __m128i right = _mm256_extracti128_si256(out, 1);
    const __m128i rows01 = _mm_unpacklo_epi32(left, right);
    const __m128i rows23 = _mm_unpackhi_epi32(left, right);
    _mm_storel_epi64(reinterpret_cast<__m128i *>(dst), rows01);
    _mm_storel_epi64(reinterpret_cast<__m128i *>(dst + dst_stride),
                     _mm_unpackhi_epi64(rows01, rows01));
    _mm_storel_epi64(reinterpret_cast<__m128i *>(dst + 2 * dst_stride),
                     rows23);
    _mm_storel_epi64(reinterpret_cast<__m128i *>(dst + 3 * dst_stride),
                     _mm_unpackhi_epi64(rows23, rows23));
    return coded;
}

/**
 * Two blocks per pass (reconPair). Levels stay in 32-bit lanes after
 * dequantization, as in invTx4x4, because decoders parse any int16. A
 * lone 4x4 block runs through a zero-padded 8 x 4 copy.
 */
int
reconBlockAvx2(const uint8_t *pred, int pred_stride, const int16_t *levels,
               int n, int qp, uint8_t *dst, int dst_stride)
{
    const __m256i v = rowPairPattern(kDequantVPos16[qp % 6]);
    const __m128i shift = _mm_cvtsi32_si128(qp / 6);
    if (n == 4) {
        alignas(32) int16_t lv[32] = {};
        uint8_t p[32] = {};
        uint8_t d[32];
        std::memcpy(lv, levels, 16 * sizeof(int16_t));
        for (int r = 0; r < 4; ++r)
            std::memcpy(p + r * 8, pred + r * pred_stride, 4);
        const int coded = reconPair(p, 8, lv, v, shift, d, 8);
        for (int r = 0; r < 4; ++r)
            std::memcpy(dst + r * dst_stride, d + r * 8, 4);
        return coded;
    }
    int coded = 0;
    for (int by = 0; by < n; by += 4) {
        for (int bx = 0; bx < n; bx += 8, levels += 32) {
            coded += reconPair(pred + by * pred_stride + bx, pred_stride,
                               levels, v, shift, dst + by * dst_stride + bx,
                               dst_stride);
        }
    }
    return coded;
}

// ----- Metrics -----------------------------------------------------

uint64_t
sse8Avx2(const uint8_t *a, const uint8_t *b, size_t n)
{
    const __m256i zero = _mm256_setzero_si256();
    uint64_t total = 0;
    size_t i = 0;
    // Chunk so the int32 accumulator lanes cannot overflow: each
    // 32-byte step adds at most 2 * 2 * 255^2 < 2^19 per lane.
    while (i + 32 <= n) {
        const size_t chunk_end =
            i + (((n - i) / 32 < 4096 ? (n - i) / 32 : 4096) * 32);
        __m256i acc = _mm256_setzero_si256();
        for (; i < chunk_end; i += 32) {
            const __m256i va = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(a + i));
            const __m256i vb = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(b + i));
            const __m256i dlo =
                _mm256_sub_epi16(_mm256_unpacklo_epi8(va, zero),
                                 _mm256_unpacklo_epi8(vb, zero));
            const __m256i dhi =
                _mm256_sub_epi16(_mm256_unpackhi_epi8(va, zero),
                                 _mm256_unpackhi_epi8(vb, zero));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(dlo, dlo));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(dhi, dhi));
        }
        // Fold lanes at 64 bits: the 8-lane total can exceed int32.
        uint32_t lanes[8];
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(lanes), acc);
        for (int k = 0; k < 8; ++k)
            total += lanes[k];
    }
    for (; i < n; ++i) {
        const int d = static_cast<int>(a[i]) - b[i];
        total += static_cast<uint64_t>(d * d);
    }
    return total;
}

} // namespace

const KernelOps *
avx2Ops()
{
    const KernelOps *base = sse2Ops();
    if (base == nullptr)
        base = scalarOps();
    static const KernelOps table = [base] {
        KernelOps t = *base;
        t.name = "avx2";
        t.isa = Isa::Avx2;
        t.sad = sadAvx2;
        t.satd = satdAvx2;
        t.sadMap = sadMapAvx2;
        t.interpH = interpHAvx2;
        t.interpV = interpVAvx2;
        t.interpHV = interpHVAvx2;
        t.fwdTx8x8 = fwdTx8x8Avx2;
        t.invTx8x8 = invTx8x8Avx2;
        t.quant4x4 = quant4x4Avx2;
        t.dequant4x4 = dequant4x4Avx2;
        t.diffBlock = diffBlockAvx2;
        t.addClampBlock = addClampBlockAvx2;
        t.quantBlock = quantBlockAvx2;
        t.reconBlock = reconBlockAvx2;
        t.sse8 = sse8Avx2;
        return t;
    }();
    return &table;
}

} // namespace vbench::kernels

#else // !defined(__AVX2__)

namespace vbench::kernels {

const KernelOps *
avx2Ops()
{
    return nullptr;
}

} // namespace vbench::kernels

#endif
