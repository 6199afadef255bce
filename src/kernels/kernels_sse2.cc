/**
 * @file
 * SSE2 kernel backend. Compiled with -msse2 (a no-op on x86-64 where
 * SSE2 is baseline); on non-x86 hosts the guard below compiles this TU
 * down to a null table and dispatch falls back to scalar.
 *
 * Every routine is bit-exact against the scalar reference for all
 * inputs: the 8-bit average instruction pavgb computes exactly
 * (a + b + 1) >> 1, psadbw is an exact SAD, quant4x4 runs the same
 * 64-bit widened math as the scalar path via pmuludq (quantBlock's
 * 8-bit inputs bound its products to 32 bits, see quantPair), and the
 * final int16 narrowing in the inverse transform uses a truncating
 * (wrapping) pack, not a saturating one, to match the scalar
 * static_cast.
 */

#include "kernels/kernel_ops.h"

#if defined(__SSE2__)

#include <emmintrin.h>

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

/** Load 8 bytes and zero-extend to 8 uint16 lanes. */
inline __m128i
load8u16(const uint8_t *p)
{
    return _mm_unpacklo_epi8(
        _mm_loadl_epi64(reinterpret_cast<const __m128i *>(p)),
        _mm_setzero_si128());
}

/** Load 4 bytes into the low lane. */
inline __m128i
load4(const uint8_t *p)
{
    uint32_t v;
    std::memcpy(&v, p, 4);
    return _mm_cvtsi32_si128(static_cast<int>(v));
}

/** Load 4 bytes and zero-extend to 4 uint16 lanes (the rest zero). */
inline __m128i
load4u16(const uint8_t *p)
{
    return _mm_unpacklo_epi8(load4(p), _mm_setzero_si128());
}

/** Store the low 4 bytes. */
inline void
store4(uint8_t *p, __m128i v)
{
    const uint32_t w = static_cast<uint32_t>(_mm_cvtsi128_si32(v));
    std::memcpy(p, &w, 4);
}

/** Load 4 int16 and sign-extend to 4 int32 lanes. */
inline __m128i
load4s32(const int16_t *p)
{
    const __m128i v =
        _mm_loadl_epi64(reinterpret_cast<const __m128i *>(p));
    return _mm_srai_epi32(_mm_unpacklo_epi16(v, v), 16);
}

/** |v| lane-wise for int32 (two's-complement wrap on INT32_MIN). */
inline __m128i
abs32(__m128i v)
{
    const __m128i m = _mm_srai_epi32(v, 31);
    return _mm_sub_epi32(_mm_xor_si128(v, m), m);
}

/** 4x4 transpose of int32 lanes across four vectors. */
inline void
transpose4x32(__m128i &r0, __m128i &r1, __m128i &r2, __m128i &r3)
{
    const __m128i t0 = _mm_unpacklo_epi32(r0, r1);
    const __m128i t1 = _mm_unpackhi_epi32(r0, r1);
    const __m128i t2 = _mm_unpacklo_epi32(r2, r3);
    const __m128i t3 = _mm_unpackhi_epi32(r2, r3);
    r0 = _mm_unpacklo_epi64(t0, t2);
    r1 = _mm_unpackhi_epi64(t0, t2);
    r2 = _mm_unpacklo_epi64(t1, t3);
    r3 = _mm_unpackhi_epi64(t1, t3);
}

/**
 * Truncate 4 int32 lanes to 4 int16 values in the low 64 bits
 * (wrapping, matching static_cast<int16_t>; packs would saturate).
 */
inline __m128i
wrapPack16(__m128i v)
{
    v = _mm_shufflelo_epi16(v, _MM_SHUFFLE(3, 3, 2, 0));
    v = _mm_shufflehi_epi16(v, _MM_SHUFFLE(3, 3, 2, 0));
    return _mm_shuffle_epi32(v, _MM_SHUFFLE(3, 3, 2, 0));
}

/** Horizontal sum of 4 int32 lanes. */
inline int32_t
hsum32(__m128i v)
{
    v = _mm_add_epi32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(1, 0, 3, 2)));
    v = _mm_add_epi32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(2, 3, 0, 1)));
    return _mm_cvtsi128_si32(v);
}

/** Sum of the two 64-bit lanes (psadbw accumulator). */
inline uint64_t
hsum64(__m128i v)
{
    return static_cast<uint64_t>(_mm_cvtsi128_si64(v)) +
        static_cast<uint64_t>(
            _mm_cvtsi128_si64(_mm_unpackhi_epi64(v, v)));
}

// ----- SAD / SATD --------------------------------------------------

uint32_t
sadSse2(const uint8_t *a, int a_stride, const uint8_t *b, int b_stride,
        int w, int h)
{
    __m128i acc = _mm_setzero_si128();
    uint32_t tail = 0;
    for (int r = 0; r < h; ++r) {
        const uint8_t *pa = a + r * a_stride;
        const uint8_t *pb = b + r * b_stride;
        int c = 0;
        for (; c + 16 <= w; c += 16) {
            const __m128i va = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(pa + c));
            const __m128i vb = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(pb + c));
            acc = _mm_add_epi64(acc, _mm_sad_epu8(va, vb));
        }
        if (c + 8 <= w) {
            const __m128i va = _mm_loadl_epi64(
                reinterpret_cast<const __m128i *>(pa + c));
            const __m128i vb = _mm_loadl_epi64(
                reinterpret_cast<const __m128i *>(pb + c));
            acc = _mm_add_epi64(acc, _mm_sad_epu8(va, vb));
            c += 8;
        }
        for (; c < w; ++c)
            tail += static_cast<uint32_t>(std::abs(pa[c] - pb[c]));
    }
    return static_cast<uint32_t>(hsum64(acc)) + tail;
}

/**
 * SSE2 has no multi-offset SAD, so the map is one psadbw SAD per
 * offset; the source block is loaded once, 16 columns (or an 8-column
 * tail) per vector, and reused at every offset.
 */
void
sadMapSse2(const uint8_t *src, int src_stride, const uint8_t *ref,
           int ref_stride, int w, int h, int cols, int rows, uint32_t *out)
{
    constexpr int kMaxSrcVectors = 64;  // a 32 x 32 block
    const int per_row = w / 16 + (w % 16) / 8;
    if (w % 8 != 0 || per_row * h > kMaxSrcVectors) {
        for (int v = 0; v < rows; ++v)
            for (int u = 0; u < cols; ++u)
                out[v * cols + u] = sadSse2(src, src_stride,
                                            ref + v * ref_stride + u,
                                            ref_stride, w, h);
        return;
    }
    __m128i block[kMaxSrcVectors];
    int n = 0;
    for (int r = 0; r < h; ++r) {
        const uint8_t *s = src + r * src_stride;
        int c = 0;
        for (; c + 16 <= w; c += 16)
            block[n++] =
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(s + c));
        if (c < w)
            block[n++] =
                _mm_loadl_epi64(reinterpret_cast<const __m128i *>(s + c));
    }
    for (int v = 0; v < rows; ++v) {
        for (int u = 0; u < cols; ++u) {
            const uint8_t *p = ref + v * ref_stride + u;
            __m128i acc = _mm_setzero_si128();
            int i = 0;
            for (int r = 0; r < h; ++r, p += ref_stride) {
                int c = 0;
                for (; c + 16 <= w; c += 16) {
                    const __m128i vr = _mm_loadu_si128(
                        reinterpret_cast<const __m128i *>(p + c));
                    acc = _mm_add_epi64(acc, _mm_sad_epu8(block[i++], vr));
                }
                if (c < w) {
                    const __m128i vr = _mm_loadl_epi64(
                        reinterpret_cast<const __m128i *>(p + c));
                    acc = _mm_add_epi64(acc, _mm_sad_epu8(block[i++], vr));
                }
            }
            out[v * cols + u] = static_cast<uint32_t>(hsum64(acc));
        }
    }
}

uint32_t
satdSse2(const uint8_t *a, int a_stride, const uint8_t *b, int b_stride,
         int w, int h)
{
    uint32_t total = 0;
    const __m128i zero = _mm_setzero_si128();
    for (int by = 0; by < h; by += 4) {
        for (int bx = 0; bx < w; bx += 4) {
            __m128i d[4];
            for (int r = 0; r < 4; ++r) {
                uint32_t wa, wb;
                std::memcpy(&wa, a + (by + r) * a_stride + bx, 4);
                std::memcpy(&wb, b + (by + r) * b_stride + bx, 4);
                const __m128i va = _mm_unpacklo_epi8(
                    _mm_cvtsi32_si128(static_cast<int>(wa)), zero);
                const __m128i vb = _mm_unpacklo_epi8(
                    _mm_cvtsi32_si128(static_cast<int>(wb)), zero);
                const __m128i diff = _mm_sub_epi16(va, vb);
                d[r] = _mm_srai_epi32(_mm_unpacklo_epi16(diff, diff), 16);
            }
            // Row butterflies act on elements within a row, so
            // transpose first and operate lane-wise.
            transpose4x32(d[0], d[1], d[2], d[3]);
            __m128i s0 = _mm_add_epi32(d[0], d[2]);
            __m128i s1 = _mm_add_epi32(d[1], d[3]);
            __m128i s2 = _mm_sub_epi32(d[0], d[2]);
            __m128i s3 = _mm_sub_epi32(d[1], d[3]);
            __m128i t0 = _mm_add_epi32(s0, s1);
            __m128i t1 = _mm_sub_epi32(s0, s1);
            __m128i t2 = _mm_add_epi32(s2, s3);
            __m128i t3 = _mm_sub_epi32(s2, s3);
            transpose4x32(t0, t1, t2, t3);
            s0 = _mm_add_epi32(t0, t2);
            s1 = _mm_add_epi32(t1, t3);
            s2 = _mm_sub_epi32(t0, t2);
            s3 = _mm_sub_epi32(t1, t3);
            const __m128i sum = _mm_add_epi32(
                _mm_add_epi32(abs32(_mm_add_epi32(s0, s1)),
                              abs32(_mm_sub_epi32(s0, s1))),
                _mm_add_epi32(abs32(_mm_add_epi32(s2, s3)),
                              abs32(_mm_sub_epi32(s2, s3))));
            total += static_cast<uint32_t>(hsum32(sum)) / 2;
        }
    }
    return total;
}

// ----- Copy / interpolation ----------------------------------------

void
copy2dSse2(const uint8_t *src, int src_stride, uint8_t *dst,
           int dst_stride, int w, int h)
{
    for (int r = 0; r < h; ++r)
        std::memcpy(dst + r * dst_stride, src + r * src_stride,
                    static_cast<size_t>(w));
}

/** Shared 2-tap half-pel core: dst = avg(src, src + off). */
inline void
interp2Tap(const uint8_t *src, int src_stride, int off, uint8_t *dst,
           int dst_stride, int w, int h)
{
    for (int r = 0; r < h; ++r) {
        const uint8_t *s = src + r * src_stride;
        uint8_t *d = dst + r * dst_stride;
        int c = 0;
        for (; c + 16 <= w; c += 16) {
            const __m128i v0 = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(s + c));
            const __m128i v1 = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(s + c + off));
            _mm_storeu_si128(reinterpret_cast<__m128i *>(d + c),
                             _mm_avg_epu8(v0, v1));
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
interpHSse2(const uint8_t *src, int src_stride, uint8_t *dst,
            int dst_stride, int w, int h)
{
    interp2Tap(src, src_stride, 1, dst, dst_stride, w, h);
}

void
interpVSse2(const uint8_t *src, int src_stride, uint8_t *dst,
            int dst_stride, int w, int h)
{
    interp2Tap(src, src_stride, src_stride, dst, dst_stride, w, h);
}

void
interpHVSse2(const uint8_t *src, int src_stride, uint8_t *dst,
             int dst_stride, int w, int h)
{
    const __m128i two = _mm_set1_epi16(2);
    for (int r = 0; r < h; ++r) {
        const uint8_t *s = src + r * src_stride;
        uint8_t *d = dst + r * dst_stride;
        int c = 0;
        for (; c + 8 <= w; c += 8) {
            const __m128i v00 = load8u16(s + c);
            const __m128i v01 = load8u16(s + c + 1);
            const __m128i v10 = load8u16(s + c + src_stride);
            const __m128i v11 = load8u16(s + c + src_stride + 1);
            __m128i sum = _mm_add_epi16(_mm_add_epi16(v00, v01),
                                        _mm_add_epi16(v10, v11));
            sum = _mm_srli_epi16(_mm_add_epi16(sum, two), 2);
            _mm_storel_epi64(reinterpret_cast<__m128i *>(d + c),
                             _mm_packus_epi16(sum, sum));
        }
        for (; c < w; ++c) {
            d[c] = static_cast<uint8_t>(
                (s[c] + s[c + 1] + s[c + src_stride] +
                 s[c + src_stride + 1] + 2) >> 2);
        }
    }
}

// ----- Transforms --------------------------------------------------

/** Forward 4x4 core on int16 rows `stride` apart. */
inline void
fwd4Core(const int16_t *in, int stride, int32_t out[16])
{
    __m128i c0 = load4s32(in + 0 * stride);
    __m128i c1 = load4s32(in + 1 * stride);
    __m128i c2 = load4s32(in + 2 * stride);
    __m128i c3 = load4s32(in + 3 * stride);
    // After the transpose, vector k holds input column k with one lane
    // per row, so the scalar row butterflies become lane-wise ops.
    transpose4x32(c0, c1, c2, c3);
    __m128i s0 = _mm_add_epi32(c0, c3);
    __m128i s1 = _mm_add_epi32(c1, c2);
    __m128i s2 = _mm_sub_epi32(c1, c2);
    __m128i s3 = _mm_sub_epi32(c0, c3);
    __m128i t0 = _mm_add_epi32(s0, s1);
    __m128i t1 = _mm_add_epi32(_mm_slli_epi32(s3, 1), s2);
    __m128i t2 = _mm_sub_epi32(s0, s1);
    __m128i t3 = _mm_sub_epi32(s3, _mm_slli_epi32(s2, 1));
    transpose4x32(t0, t1, t2, t3);
    s0 = _mm_add_epi32(t0, t3);
    s1 = _mm_add_epi32(t1, t2);
    s2 = _mm_sub_epi32(t1, t2);
    s3 = _mm_sub_epi32(t0, t3);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(out + 0),
                     _mm_add_epi32(s0, s1));
    _mm_storeu_si128(reinterpret_cast<__m128i *>(out + 4),
                     _mm_add_epi32(_mm_slli_epi32(s3, 1), s2));
    _mm_storeu_si128(reinterpret_cast<__m128i *>(out + 8),
                     _mm_sub_epi32(s0, s1));
    _mm_storeu_si128(reinterpret_cast<__m128i *>(out + 12),
                     _mm_sub_epi32(s3, _mm_slli_epi32(s2, 1)));
}

void
fwdTx4x4Sse2(const int16_t in[16], int32_t out[16])
{
    fwd4Core(in, 4, out);
}

void
fwdTx8x8Sse2(const int16_t residual[64], int32_t coefs[64])
{
    for (int sb = 0; sb < 4; ++sb) {
        const int ox = (sb & 1) * 4;
        const int oy = (sb >> 1) * 4;
        fwd4Core(residual + oy * 8 + ox, 8, coefs + sb * 16);
    }
}

/** Inverse 4x4 core writing int16 rows `out_stride` apart. */
inline void
inv4Core(const int32_t in[16], int16_t *out, int out_stride)
{
    const __m128i round = _mm_set1_epi32(32);
    __m128i c0 = _mm_loadu_si128(reinterpret_cast<const __m128i *>(in));
    __m128i c1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(in + 4));
    __m128i c2 =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(in + 8));
    __m128i c3 =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(in + 12));
    transpose4x32(c0, c1, c2, c3);
    __m128i e0 = _mm_add_epi32(c0, c2);
    __m128i e1 = _mm_sub_epi32(c0, c2);
    __m128i e2 = _mm_sub_epi32(_mm_srai_epi32(c1, 1), c3);
    __m128i e3 = _mm_add_epi32(c1, _mm_srai_epi32(c3, 1));
    __m128i t0 = _mm_add_epi32(e0, e3);
    __m128i t1 = _mm_add_epi32(e1, e2);
    __m128i t2 = _mm_sub_epi32(e1, e2);
    __m128i t3 = _mm_sub_epi32(e0, e3);
    transpose4x32(t0, t1, t2, t3);
    e0 = _mm_add_epi32(t0, t2);
    e1 = _mm_sub_epi32(t0, t2);
    e2 = _mm_sub_epi32(_mm_srai_epi32(t1, 1), t3);
    e3 = _mm_add_epi32(t1, _mm_srai_epi32(t3, 1));
    const __m128i o0 = _mm_srai_epi32(
        _mm_add_epi32(_mm_add_epi32(e0, e3), round), 6);
    const __m128i o1 = _mm_srai_epi32(
        _mm_add_epi32(_mm_add_epi32(e1, e2), round), 6);
    const __m128i o2 = _mm_srai_epi32(
        _mm_add_epi32(_mm_sub_epi32(e1, e2), round), 6);
    const __m128i o3 = _mm_srai_epi32(
        _mm_add_epi32(_mm_sub_epi32(e0, e3), round), 6);
    _mm_storel_epi64(reinterpret_cast<__m128i *>(out + 0 * out_stride),
                     wrapPack16(o0));
    _mm_storel_epi64(reinterpret_cast<__m128i *>(out + 1 * out_stride),
                     wrapPack16(o1));
    _mm_storel_epi64(reinterpret_cast<__m128i *>(out + 2 * out_stride),
                     wrapPack16(o2));
    _mm_storel_epi64(reinterpret_cast<__m128i *>(out + 3 * out_stride),
                     wrapPack16(o3));
}

void
invTx4x4Sse2(const int32_t in[16], int16_t out[16])
{
    inv4Core(in, out, 4);
}

void
invTx8x8Sse2(const int32_t coefs[64], int16_t residual[64])
{
    for (int sb = 0; sb < 4; ++sb) {
        const int ox = (sb & 1) * 4;
        const int oy = (sb >> 1) * 4;
        inv4Core(coefs + sb * 16, residual + oy * 8 + ox, 8);
    }
}

// ----- Quantization ------------------------------------------------

/**
 * Quantize 4 coefficients (one row of the 4x4 block) with the same
 * widened 64-bit math as the scalar path: |w| * mf runs in pmuludq
 * (32x32 -> 64), the rounding offset is added and the shift applied at
 * 64 bits, so even pathological coefficient magnitudes match exactly.
 */
inline __m128i
quantRow(__m128i w, __m128i mf, __m128i f64, int qbits)
{
    const __m128i sign = _mm_srai_epi32(w, 31);
    const __m128i absw = _mm_sub_epi32(_mm_xor_si128(w, sign), sign);
    const __m128i prod02 = _mm_mul_epu32(absw, mf);
    const __m128i prod13 = _mm_mul_epu32(_mm_srli_si128(absw, 4),
                                         _mm_srli_si128(mf, 4));
    const __m128i mag02 =
        _mm_srli_epi64(_mm_add_epi64(prod02, f64), qbits);
    const __m128i mag13 =
        _mm_srli_epi64(_mm_add_epi64(prod13, f64), qbits);
    const __m128i mag = _mm_unpacklo_epi32(
        _mm_shuffle_epi32(mag02, _MM_SHUFFLE(3, 3, 2, 0)),
        _mm_shuffle_epi32(mag13, _MM_SHUFFLE(3, 3, 2, 0)));
    return _mm_sub_epi32(_mm_xor_si128(mag, sign), sign);
}

int
quant4x4Sse2(const int32_t coefs[16], int16_t levels[16], int qp,
             bool intra)
{
    const int rem = qp % 6;
    const int qbits = 15 + qp / 6;
    const __m128i f64 = _mm_set1_epi64x(quantRound(qbits, intra));
    // Row position classes alternate a,c,a,c (even rows) and
    // c,b,c,b (odd rows).
    const __m128i mf_even = _mm_loadu_si128(
        reinterpret_cast<const __m128i *>(kQuantMfPos[rem].data()));
    const __m128i mf_odd = _mm_loadu_si128(
        reinterpret_cast<const __m128i *>(kQuantMfPos[rem].data() + 4));
    int nonzero = 0;
    const __m128i zero = _mm_setzero_si128();
    for (int r = 0; r < 4; ++r) {
        const __m128i w = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(coefs + r * 4));
        const __m128i lvl32 =
            quantRow(w, (r & 1) ? mf_odd : mf_even, f64, qbits);
        const __m128i lvl16 = wrapPack16(lvl32);
        _mm_storel_epi64(reinterpret_cast<__m128i *>(levels + r * 4),
                         lvl16);
        const int zmask =
            _mm_movemask_epi8(_mm_cmpeq_epi16(lvl16, zero)) & 0xFF;
        nonzero += 4 - __builtin_popcount(static_cast<unsigned>(zmask)) / 2;
    }
    return nonzero;
}

void
dequant4x4Sse2(const int16_t levels[16], int32_t coefs[16], int qp)
{
    const int rem = qp % 6;
    const int shift = qp / 6;
    // Two rows per 8-lane vector share the a,c,a,c,c,b,c,b pattern.
    const __m128i v = _mm_loadu_si128(
        reinterpret_cast<const __m128i *>(kDequantVPos16[rem].data()));
    for (int half = 0; half < 2; ++half) {
        const __m128i lv = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(levels + half * 8));
        const __m128i lo = _mm_mullo_epi16(lv, v);
        const __m128i hi = _mm_mulhi_epi16(lv, v);
        const __m128i p0 = _mm_unpacklo_epi16(lo, hi);
        const __m128i p1 = _mm_unpackhi_epi16(lo, hi);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(coefs + half * 8),
                         _mm_slli_epi32(p0, shift));
        _mm_storeu_si128(
            reinterpret_cast<__m128i *>(coefs + half * 8 + 4),
            _mm_slli_epi32(p1, shift));
    }
}

// ----- Residual / reconstruction -----------------------------------

void
diffBlockSse2(const uint8_t *src, int src_stride, const uint8_t *pred,
              int pred_stride, int16_t *out, int out_stride, int w, int h)
{
    for (int r = 0; r < h; ++r) {
        const uint8_t *s = src + r * src_stride;
        const uint8_t *p = pred + r * pred_stride;
        int16_t *o = out + r * out_stride;
        int c = 0;
        for (; c + 8 <= w; c += 8) {
            const __m128i vs = load8u16(s + c);
            const __m128i vp = load8u16(p + c);
            _mm_storeu_si128(reinterpret_cast<__m128i *>(o + c),
                             _mm_sub_epi16(vs, vp));
        }
        for (; c < w; ++c)
            o[c] = static_cast<int16_t>(s[c] - p[c]);
    }
}

void
addClampBlockSse2(const uint8_t *pred, int pred_stride,
                  const int16_t *residual, int res_stride, uint8_t *dst,
                  int dst_stride, int w, int h)
{
    for (int r = 0; r < h; ++r) {
        const uint8_t *p = pred + r * pred_stride;
        const int16_t *res = residual + r * res_stride;
        uint8_t *d = dst + r * dst_stride;
        int c = 0;
        for (; c + 8 <= w; c += 8) {
            const __m128i vp = load8u16(p + c);
            const __m128i vr = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(res + c));
            // Saturating add matches the scalar int path: sums above
            // int16 range only occur above 255 and clamp to 255 either
            // way; the minimum 0 + -32768 does not underflow.
            const __m128i sum = _mm_adds_epi16(vp, vr);
            _mm_storel_epi64(reinterpret_cast<__m128i *>(d + c),
                             _mm_packus_epi16(sum, sum));
        }
        for (; c < w; ++c)
            d[c] = clamp255(p[c] + res[c]);
    }
}

/**
 * Quantize 8 int16 coefficients (a row pair of one block, |w| <=
 * 9180) exactly as quant4x4 does: |w| * mf < 2^27 and + f < 2^31, so
 * 32-bit lanes hold the product the scalar path forms at 64 bits, and
 * the level (< 2^12) packs back to int16 without saturating.
 */
inline __m128i
quantRowPair(__m128i w, __m128i mf, __m128i f, __m128i qbits)
{
    const __m128i sign = _mm_srai_epi16(w, 15);
    const __m128i mag = _mm_sub_epi16(_mm_xor_si128(w, sign), sign);
    const __m128i lo = _mm_mullo_epi16(mag, mf);
    const __m128i hi = _mm_mulhi_epu16(mag, mf);
    const __m128i p0 = _mm_srl_epi32(
        _mm_add_epi32(_mm_unpacklo_epi16(lo, hi), f), qbits);
    const __m128i p1 = _mm_srl_epi32(
        _mm_add_epi32(_mm_unpackhi_epi16(lo, hi), f), qbits);
    const __m128i level = _mm_packs_epi32(p0, p1);
    return _mm_sub_epi16(_mm_xor_si128(level, sign), sign);
}

/**
 * Transform and quantize two 4x4 blocks from four rows of int16
 * residual (block 0 in lanes 0-3, block 1 in lanes 4-7) into
 * levels[0..31]; returns their nonzero count.
 *
 * The transform runs in 16-bit lanes: |residual| <= 255 and the core
 * matrix's largest row gain is 6, so |coef| <= 6 * 6 * 255 = 9180.
 * Columns go first (lane-wise across the rows; the separable integer
 * transform is exact in either order), then a per-block transpose
 * lines the rows up lane-wise, and two unpack steps of the inverse
 * transpose already leave each block's rows 0-1 and 2-3 contiguous.
 */
inline int
quantPair(const __m128i d[4], __m128i mf, __m128i f, __m128i qbits,
          int16_t *levels)
{
    __m128i s0 = _mm_add_epi16(d[0], d[3]);
    __m128i s1 = _mm_add_epi16(d[1], d[2]);
    __m128i s2 = _mm_sub_epi16(d[1], d[2]);
    __m128i s3 = _mm_sub_epi16(d[0], d[3]);
    const __m128i c0 = _mm_add_epi16(s0, s1);
    const __m128i c1 = _mm_add_epi16(_mm_add_epi16(s3, s3), s2);
    const __m128i c2 = _mm_sub_epi16(s0, s1);
    const __m128i c3 = _mm_sub_epi16(s3, _mm_add_epi16(s2, s2));

    // x_j = column j of both blocks, one lane per row.
    const __m128i r01lo = _mm_unpacklo_epi16(c0, c1);
    const __m128i r01hi = _mm_unpackhi_epi16(c0, c1);
    const __m128i r23lo = _mm_unpacklo_epi16(c2, c3);
    const __m128i r23hi = _mm_unpackhi_epi16(c2, c3);
    const __m128i a01 = _mm_unpacklo_epi32(r01lo, r23lo);
    const __m128i a23 = _mm_unpackhi_epi32(r01lo, r23lo);
    const __m128i b01 = _mm_unpacklo_epi32(r01hi, r23hi);
    const __m128i b23 = _mm_unpackhi_epi32(r01hi, r23hi);
    const __m128i x0 = _mm_unpacklo_epi64(a01, b01);
    const __m128i x1 = _mm_unpackhi_epi64(a01, b01);
    const __m128i x2 = _mm_unpacklo_epi64(a23, b23);
    const __m128i x3 = _mm_unpackhi_epi64(a23, b23);

    // Row butterflies: y_v = coefficient column v, one lane per row.
    s0 = _mm_add_epi16(x0, x3);
    s1 = _mm_add_epi16(x1, x2);
    s2 = _mm_sub_epi16(x1, x2);
    s3 = _mm_sub_epi16(x0, x3);
    const __m128i y0 = _mm_add_epi16(s0, s1);
    const __m128i y1 = _mm_add_epi16(_mm_add_epi16(s3, s3), s2);
    const __m128i y2 = _mm_sub_epi16(s0, s1);
    const __m128i y3 = _mm_sub_epi16(s3, _mm_add_epi16(s2, s2));

    // Back to raster: rows 0-1 / 2-3 of block 0 (k01, k23) and of
    // block 1 (m01, m23).
    const __m128i t01lo = _mm_unpacklo_epi16(y0, y1);
    const __m128i t01hi = _mm_unpackhi_epi16(y0, y1);
    const __m128i t23lo = _mm_unpacklo_epi16(y2, y3);
    const __m128i t23hi = _mm_unpackhi_epi16(y2, y3);
    const __m128i k01 =
        quantRowPair(_mm_unpacklo_epi32(t01lo, t23lo), mf, f, qbits);
    const __m128i k23 =
        quantRowPair(_mm_unpackhi_epi32(t01lo, t23lo), mf, f, qbits);
    const __m128i m01 =
        quantRowPair(_mm_unpacklo_epi32(t01hi, t23hi), mf, f, qbits);
    const __m128i m23 =
        quantRowPair(_mm_unpackhi_epi32(t01hi, t23hi), mf, f, qbits);

    __m128i *out = reinterpret_cast<__m128i *>(levels);
    _mm_storeu_si128(out + 0, k01);
    _mm_storeu_si128(out + 1, k23);
    _mm_storeu_si128(out + 2, m01);
    _mm_storeu_si128(out + 3, m23);

    // One mask bit per zero level.
    const __m128i zero = _mm_setzero_si128();
    const unsigned z = static_cast<unsigned>(_mm_movemask_epi8(
        _mm_packs_epi16(_mm_cmpeq_epi16(k01, zero),
                        _mm_cmpeq_epi16(k23, zero)))) |
        static_cast<unsigned>(_mm_movemask_epi8(
            _mm_packs_epi16(_mm_cmpeq_epi16(m01, zero),
                            _mm_cmpeq_epi16(m23, zero))))
            << 16;
    return 32 - __builtin_popcount(z);
}

/**
 * Two horizontally adjacent blocks per quantPair call. A 4x4 block
 * rides in the low half alone with zero residual in the other, which
 * quantizes to zero levels and adds nothing to the count.
 */
int
quantBlockSse2(const uint8_t *src, int src_stride, const uint8_t *pred,
               int pred_stride, int n, int qp, bool intra, int16_t *levels)
{
    const __m128i mf = _mm_loadu_si128(
        reinterpret_cast<const __m128i *>(kQuantMfPos16[qp % 6].data()));
    const int qbits = 15 + qp / 6;
    const __m128i f = _mm_set1_epi32(quantRound(qbits, intra));
    const __m128i shift = _mm_cvtsi32_si128(qbits);
    __m128i d[4];
    if (n == 4) {
        for (int r = 0; r < 4; ++r) {
            d[r] = _mm_sub_epi16(load4u16(src + r * src_stride),
                                 load4u16(pred + r * pred_stride));
        }
        int16_t pair[32];
        const int nonzero = quantPair(d, mf, f, shift, pair);
        std::memcpy(levels, pair, 16 * sizeof(int16_t));
        return nonzero;
    }
    int nonzero = 0;
    for (int by = 0; by < n; by += 4) {
        for (int bx = 0; bx < n; bx += 8, levels += 32) {
            for (int r = 0; r < 4; ++r) {
                d[r] = _mm_sub_epi16(
                    load8u16(src + (by + r) * src_stride + bx),
                    load8u16(pred + (by + r) * pred_stride + bx));
            }
            nonzero += quantPair(d, mf, f, shift, levels);
        }
    }
    return nonzero;
}

/** The scalar reconBlock composition with this TU's per-4x4 kernels. */
int
reconBlockSse2(const uint8_t *pred, int pred_stride, const int16_t *levels,
               int n, int qp, uint8_t *dst, int dst_stride)
{
    const __m128i zero = _mm_setzero_si128();
    int coded = 0;
    for (int by = 0; by < n; by += 4) {
        for (int bx = 0; bx < n; bx += 4, levels += 16) {
            const uint8_t *p = pred + by * pred_stride + bx;
            uint8_t *d = dst + by * dst_stride + bx;
            const __m128i any = _mm_or_si128(
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(levels)),
                _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(levels + 8)));
            if (_mm_movemask_epi8(_mm_cmpeq_epi8(any, zero)) == 0xFFFF) {
                for (int r = 0; r < 4; ++r)
                    std::memcpy(d + r * dst_stride, p + r * pred_stride, 4);
                continue;
            }
            ++coded;
            int32_t coefs[16];
            int16_t residual[16];
            dequant4x4Sse2(levels, coefs, qp);
            inv4Core(coefs, residual, 4);
            for (int r = 0; r < 4; ++r) {
                const __m128i vp = load4u16(p + r * pred_stride);
                const __m128i vr = _mm_loadl_epi64(
                    reinterpret_cast<const __m128i *>(residual + r * 4));
                // Saturating add: exact, as in addClampBlockSse2.
                const __m128i sum = _mm_adds_epi16(vp, vr);
                store4(d + r * dst_stride, _mm_packus_epi16(sum, sum));
            }
        }
    }
    return coded;
}

// ----- Deblocking --------------------------------------------------

/** One edge sample, as deblockEdgeHScalar filters it. */
inline void
filterEdgeSample(uint8_t *q0_ptr, int step, int alpha, int beta, int tc)
{
    const int p1 = q0_ptr[-2 * step];
    const int p0 = q0_ptr[-step];
    const int q0 = q0_ptr[0];
    const int q1 = q0_ptr[step];
    if (std::abs(p0 - q0) >= alpha || std::abs(p1 - p0) >= beta ||
        std::abs(q1 - q0) >= beta) {
        return;
    }
    int delta = ((q0 - p0) * 4 + (p1 - q1) + 4) >> 3;
    delta = delta < -tc ? -tc : (delta > tc ? tc : delta);
    q0_ptr[-step] = clamp255(p0 + delta);
    q0_ptr[0] = clamp255(q0 - delta);
}

/** The edge filter's thresholds as uint16 lanes. */
struct EdgeLimits {
    __m128i alpha, beta, tc, ntc;

    EdgeLimits(int a, int b, int t)
        : alpha(_mm_set1_epi16(static_cast<int16_t>(a))),
          beta(_mm_set1_epi16(static_cast<int16_t>(b))),
          tc(_mm_set1_epi16(static_cast<int16_t>(t))),
          ntc(_mm_set1_epi16(static_cast<int16_t>(-t)))
    {
    }
};

/**
 * Filter 8 edge samples held in uint16 lanes; p0 and q0 are replaced
 * by their filtered values (unchanged where the test fails).
 */
inline void
filterEdge8(__m128i p1, __m128i &p0, __m128i &q0, __m128i q1,
            const EdgeLimits &lim)
{
    const __m128i zero = _mm_setzero_si128();
    const __m128i dpq = _mm_sub_epi16(p0, q0);
    const __m128i abs_pq = _mm_max_epi16(dpq, _mm_sub_epi16(zero, dpq));
    const __m128i dp = _mm_sub_epi16(p1, p0);
    const __m128i abs_p = _mm_max_epi16(dp, _mm_sub_epi16(zero, dp));
    const __m128i dq = _mm_sub_epi16(q1, q0);
    const __m128i abs_q = _mm_max_epi16(dq, _mm_sub_epi16(zero, dq));
    const __m128i mask = _mm_and_si128(
        _mm_cmplt_epi16(abs_pq, lim.alpha),
        _mm_and_si128(_mm_cmplt_epi16(abs_p, lim.beta),
                      _mm_cmplt_epi16(abs_q, lim.beta)));
    __m128i delta = _mm_srai_epi16(
        _mm_add_epi16(
            _mm_add_epi16(_mm_slli_epi16(_mm_sub_epi16(q0, p0), 2),
                          _mm_sub_epi16(p1, q1)),
            _mm_set1_epi16(4)),
        3);
    delta = _mm_min_epi16(_mm_max_epi16(delta, lim.ntc), lim.tc);
    const __m128i new_p0 = _mm_add_epi16(p0, delta);
    const __m128i new_q0 = _mm_sub_epi16(q0, delta);
    p0 = _mm_or_si128(_mm_and_si128(mask, new_p0),
                      _mm_andnot_si128(mask, p0));
    q0 = _mm_or_si128(_mm_and_si128(mask, new_q0),
                      _mm_andnot_si128(mask, q0));
}

void
deblockEdgeHSse2(uint8_t *q0_row, int stride, int n, int alpha, int beta,
                 int tc)
{
    const EdgeLimits lim(alpha, beta, tc);
    int i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m128i p1 = load8u16(q0_row + i - 2 * stride);
        __m128i p0 = load8u16(q0_row + i - stride);
        __m128i q0 = load8u16(q0_row + i);
        const __m128i q1 = load8u16(q0_row + i + stride);
        filterEdge8(p1, p0, q0, q1, lim);
        _mm_storel_epi64(reinterpret_cast<__m128i *>(q0_row + i - stride),
                         _mm_packus_epi16(p0, p0));
        _mm_storel_epi64(reinterpret_cast<__m128i *>(q0_row + i),
                         _mm_packus_epi16(q0, q0));
    }
    for (; i < n; ++i)
        filterEdgeSample(q0_row + i, stride, alpha, beta, tc);
}

/**
 * Eight rows per pass: the 4 bytes p1 p0 q0 q1 of each row are
 * transposed into p1|p0 and q0|q1 vectors (8 rows each), filtered as
 * deblockEdgeH filters 8 columns, and p0|q0 are interleaved back into
 * one 2-byte store per row.
 */
void
deblockEdgeVSse2(uint8_t *q0_col, int stride, int n, int alpha, int beta,
                 int tc)
{
    const EdgeLimits lim(alpha, beta, tc);
    const __m128i zero = _mm_setzero_si128();
    int i = 0;
    for (; i + 8 <= n; i += 8) {
        uint8_t *base = q0_col + i * stride - 2;
        __m128i r[8];
        for (int k = 0; k < 8; ++k)
            r[k] = load4(base + k * stride);
        // Bytes of rows 0-3 then 4-7: p1 x4, p0 x4, q0 x4, q1 x4.
        const __m128i rows03 =
            _mm_unpacklo_epi16(_mm_unpacklo_epi8(r[0], r[1]),
                               _mm_unpacklo_epi8(r[2], r[3]));
        const __m128i rows47 =
            _mm_unpacklo_epi16(_mm_unpacklo_epi8(r[4], r[5]),
                               _mm_unpacklo_epi8(r[6], r[7]));
        const __m128i p = _mm_unpacklo_epi32(rows03, rows47);  // p1 | p0
        const __m128i q = _mm_unpackhi_epi32(rows03, rows47);  // q0 | q1
        __m128i p0 = _mm_unpackhi_epi8(p, zero);
        __m128i q0 = _mm_unpacklo_epi8(q, zero);
        filterEdge8(_mm_unpacklo_epi8(p, zero), p0, q0,
                    _mm_unpackhi_epi8(q, zero), lim);
        const __m128i packed = _mm_packus_epi16(p0, q0);
        // (p0, q0) byte pairs, row 0 in the lowest 16 bits.
        const __m128i pairs =
            _mm_unpacklo_epi8(packed, _mm_srli_si128(packed, 8));
        uint64_t lo = static_cast<uint64_t>(_mm_cvtsi128_si64(pairs));
        uint64_t hi = static_cast<uint64_t>(
            _mm_cvtsi128_si64(_mm_unpackhi_epi64(pairs, pairs)));
        for (int k = 0; k < 4; ++k, lo >>= 16, hi >>= 16) {
            const uint16_t a = static_cast<uint16_t>(lo);
            const uint16_t b = static_cast<uint16_t>(hi);
            std::memcpy(base + k * stride + 1, &a, 2);
            std::memcpy(base + (k + 4) * stride + 1, &b, 2);
        }
    }
    for (; i < n; ++i)
        filterEdgeSample(q0_col + i * stride, 1, alpha, beta, tc);
}

// ----- Metrics -----------------------------------------------------

uint64_t
sse8Sse2(const uint8_t *a, const uint8_t *b, size_t n)
{
    const __m128i zero = _mm_setzero_si128();
    uint64_t total = 0;
    size_t i = 0;
    // Chunk so the int32 accumulator lanes cannot overflow: each
    // 16-byte step adds at most 2 * 2 * 255^2 < 2^19 per lane.
    while (i + 16 <= n) {
        const size_t chunk_end =
            i + (((n - i) / 16 < 4096 ? (n - i) / 16 : 4096) * 16);
        __m128i acc = _mm_setzero_si128();
        for (; i < chunk_end; i += 16) {
            const __m128i va = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(a + i));
            const __m128i vb = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(b + i));
            const __m128i dlo = _mm_sub_epi16(
                _mm_unpacklo_epi8(va, zero), _mm_unpacklo_epi8(vb, zero));
            const __m128i dhi = _mm_sub_epi16(
                _mm_unpackhi_epi8(va, zero), _mm_unpackhi_epi8(vb, zero));
            acc = _mm_add_epi32(acc, _mm_madd_epi16(dlo, dlo));
            acc = _mm_add_epi32(acc, _mm_madd_epi16(dhi, dhi));
        }
        // Fold lanes at 64 bits: the 4-lane total can exceed int32.
        uint32_t lanes[4];
        _mm_storeu_si128(reinterpret_cast<__m128i *>(lanes), acc);
        total += static_cast<uint64_t>(lanes[0]) + lanes[1] + lanes[2] +
            lanes[3];
    }
    for (; i < n; ++i) {
        const int d = static_cast<int>(a[i]) - b[i];
        total += static_cast<uint64_t>(d * d);
    }
    return total;
}

void
ssimWindowSumsSse2(const uint8_t *a, int a_stride, const uint8_t *b,
                   int b_stride, int w, int h, uint32_t sums[5])
{
    if (w != 8) {
        // Tail windows narrower than 8 only occur on tiny planes.
        uint32_t sa = 0, sb = 0, saa = 0, sbb = 0, sab = 0;
        for (int y = 0; y < h; ++y) {
            const uint8_t *ra = a + y * a_stride;
            const uint8_t *rb = b + y * b_stride;
            for (int x = 0; x < w; ++x) {
                const uint32_t va = ra[x];
                const uint32_t vb = rb[x];
                sa += va;
                sb += vb;
                saa += va * va;
                sbb += vb * vb;
                sab += va * vb;
            }
        }
        sums[0] = sa;
        sums[1] = sb;
        sums[2] = saa;
        sums[3] = sbb;
        sums[4] = sab;
        return;
    }
    const __m128i zero = _mm_setzero_si128();
    __m128i acc_a = _mm_setzero_si128();
    __m128i acc_b = _mm_setzero_si128();
    __m128i acc_aa = _mm_setzero_si128();
    __m128i acc_bb = _mm_setzero_si128();
    __m128i acc_ab = _mm_setzero_si128();
    for (int y = 0; y < h; ++y) {
        const __m128i ra = _mm_loadl_epi64(
            reinterpret_cast<const __m128i *>(a + y * a_stride));
        const __m128i rb = _mm_loadl_epi64(
            reinterpret_cast<const __m128i *>(b + y * b_stride));
        acc_a = _mm_add_epi64(acc_a, _mm_sad_epu8(ra, zero));
        acc_b = _mm_add_epi64(acc_b, _mm_sad_epu8(rb, zero));
        const __m128i a16 = _mm_unpacklo_epi8(ra, zero);
        const __m128i b16 = _mm_unpacklo_epi8(rb, zero);
        acc_aa = _mm_add_epi32(acc_aa, _mm_madd_epi16(a16, a16));
        acc_bb = _mm_add_epi32(acc_bb, _mm_madd_epi16(b16, b16));
        acc_ab = _mm_add_epi32(acc_ab, _mm_madd_epi16(a16, b16));
    }
    sums[0] = static_cast<uint32_t>(_mm_cvtsi128_si32(acc_a));
    sums[1] = static_cast<uint32_t>(_mm_cvtsi128_si32(acc_b));
    sums[2] = static_cast<uint32_t>(hsum32(acc_aa));
    sums[3] = static_cast<uint32_t>(hsum32(acc_bb));
    sums[4] = static_cast<uint32_t>(hsum32(acc_ab));
}

} // namespace

const KernelOps *
sse2Ops()
{
    static const KernelOps table = [] {
        KernelOps t = *scalarOps();
        t.name = "sse2";
        t.isa = Isa::Sse2;
        t.sad = sadSse2;
        t.satd = satdSse2;
        t.sadMap = sadMapSse2;
        t.copy2d = copy2dSse2;
        t.interpH = interpHSse2;
        t.interpV = interpVSse2;
        t.interpHV = interpHVSse2;
        t.fwdTx4x4 = fwdTx4x4Sse2;
        t.invTx4x4 = invTx4x4Sse2;
        t.fwdTx8x8 = fwdTx8x8Sse2;
        t.invTx8x8 = invTx8x8Sse2;
        t.quant4x4 = quant4x4Sse2;
        t.dequant4x4 = dequant4x4Sse2;
        t.diffBlock = diffBlockSse2;
        t.addClampBlock = addClampBlockSse2;
        t.quantBlock = quantBlockSse2;
        t.reconBlock = reconBlockSse2;
        t.deblockEdgeH = deblockEdgeHSse2;
        t.deblockEdgeV = deblockEdgeVSse2;
        t.sse8 = sse8Sse2;
        t.ssimWindowSums = ssimWindowSumsSse2;
        return t;
    }();
    return &table;
}

} // namespace vbench::kernels

#else // !defined(__SSE2__)

namespace vbench::kernels {

const KernelOps *
sse2Ops()
{
    return nullptr;
}

} // namespace vbench::kernels

#endif
