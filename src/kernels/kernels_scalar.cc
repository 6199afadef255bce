/**
 * @file
 * Scalar reference implementations of every kernel in the dispatch
 * table. These define the semantics the vector backends must match
 * bit-exactly; they are also the production path on hosts without SSE2.
 *
 * This translation unit is compiled with auto-vectorization disabled
 * (see src/kernels/CMakeLists.txt) so VBENCH_ISA=scalar measures a
 * genuinely scalar instruction stream, reproducing the paper's Fig. 8
 * "no SIMD" point rather than whatever the compiler happened to
 * vectorize.
 */

#include "kernels/kernel_ops.h"

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

uint32_t
sadScalar(const uint8_t *a, int a_stride, const uint8_t *b, int b_stride,
          int w, int h)
{
    uint32_t sum = 0;
    for (int r = 0; r < h; ++r) {
        const uint8_t *pa = a + r * a_stride;
        const uint8_t *pb = b + r * b_stride;
        uint32_t row = 0;
        for (int c = 0; c < w; ++c)
            row += static_cast<uint32_t>(std::abs(pa[c] - pb[c]));
        sum += row;
    }
    return sum;
}

void
sadMapScalar(const uint8_t *src, int src_stride, const uint8_t *ref,
             int ref_stride, int w, int h, int cols, int rows,
             uint32_t *out)
{
    for (int v = 0; v < rows; ++v)
        for (int u = 0; u < cols; ++u)
            out[v * cols + u] = sadScalar(src, src_stride,
                                          ref + v * ref_stride + u,
                                          ref_stride, w, h);
}

uint32_t
satdScalar(const uint8_t *a, int a_stride, const uint8_t *b, int b_stride,
           int w, int h)
{
    uint32_t total = 0;
    for (int by = 0; by < h; by += 4) {
        for (int bx = 0; bx < w; bx += 4) {
            int32_t d[16];
            for (int r = 0; r < 4; ++r) {
                const uint8_t *pa = a + (by + r) * a_stride + bx;
                const uint8_t *pb = b + (by + r) * b_stride + bx;
                for (int c = 0; c < 4; ++c)
                    d[r * 4 + c] = pa[c] - pb[c];
            }
            // 4x4 Hadamard: rows then columns of butterflies.
            for (int r = 0; r < 4; ++r) {
                int32_t *row = d + r * 4;
                const int32_t s0 = row[0] + row[2];
                const int32_t s1 = row[1] + row[3];
                const int32_t s2 = row[0] - row[2];
                const int32_t s3 = row[1] - row[3];
                row[0] = s0 + s1;
                row[1] = s0 - s1;
                row[2] = s2 + s3;
                row[3] = s2 - s3;
            }
            uint32_t sum = 0;
            for (int c = 0; c < 4; ++c) {
                const int32_t s0 = d[c] + d[8 + c];
                const int32_t s1 = d[4 + c] + d[12 + c];
                const int32_t s2 = d[c] - d[8 + c];
                const int32_t s3 = d[4 + c] - d[12 + c];
                sum += std::abs(s0 + s1) + std::abs(s0 - s1) +
                    std::abs(s2 + s3) + std::abs(s2 - s3);
            }
            total += sum / 2; // Hadamard gain normalization
        }
    }
    return total;
}

void
sadX4Scalar(const uint8_t *src, int src_stride, const uint8_t *const ref[4],
            int ref_stride, int w, int h, uint32_t out[4])
{
    for (int k = 0; k < 4; ++k)
        out[k] = sadScalar(src, src_stride, ref[k], ref_stride, w, h);
}

void
satdX4Scalar(const uint8_t *src, int src_stride,
             const uint8_t *const ref[4], int ref_stride, int w, int h,
             uint32_t out[4])
{
    for (int k = 0; k < 4; ++k)
        out[k] = satdScalar(src, src_stride, ref[k], ref_stride, w, h);
}

void
copy2dScalar(const uint8_t *src, int src_stride, uint8_t *dst,
             int dst_stride, int w, int h)
{
    for (int r = 0; r < h; ++r)
        std::memcpy(dst + r * dst_stride, src + r * src_stride,
                    static_cast<size_t>(w));
}

void
interpHScalar(const uint8_t *src, int src_stride, uint8_t *dst,
              int dst_stride, int w, int h)
{
    for (int r = 0; r < h; ++r) {
        const uint8_t *s = src + r * src_stride;
        uint8_t *d = dst + r * dst_stride;
        for (int c = 0; c < w; ++c)
            d[c] = static_cast<uint8_t>((s[c] + s[c + 1] + 1) >> 1);
    }
}

void
interpVScalar(const uint8_t *src, int src_stride, uint8_t *dst,
              int dst_stride, int w, int h)
{
    for (int r = 0; r < h; ++r) {
        const uint8_t *s = src + r * src_stride;
        uint8_t *d = dst + r * dst_stride;
        for (int c = 0; c < w; ++c)
            d[c] = static_cast<uint8_t>((s[c] + s[c + src_stride] + 1) >> 1);
    }
}

void
interpHVScalar(const uint8_t *src, int src_stride, uint8_t *dst,
               int dst_stride, int w, int h)
{
    for (int r = 0; r < h; ++r) {
        const uint8_t *s = src + r * src_stride;
        uint8_t *d = dst + r * dst_stride;
        for (int c = 0; c < w; ++c) {
            d[c] = static_cast<uint8_t>(
                (s[c] + s[c + 1] + s[c + src_stride] +
                 s[c + src_stride + 1] + 2) >> 2);
        }
    }
}

/** Forward 4x4 core with a row stride, shared by the 4x4/8x8 entries. */
void
fwd4Core(const int16_t *in, int stride, int32_t out[16])
{
    int32_t tmp[16];
    // Rows.
    for (int r = 0; r < 4; ++r) {
        const int a = in[r * stride + 0];
        const int b = in[r * stride + 1];
        const int c = in[r * stride + 2];
        const int d = in[r * stride + 3];
        const int s0 = a + d;
        const int s1 = b + c;
        const int s2 = b - c;
        const int s3 = a - d;
        tmp[r * 4 + 0] = s0 + s1;
        tmp[r * 4 + 1] = 2 * s3 + s2;
        tmp[r * 4 + 2] = s0 - s1;
        tmp[r * 4 + 3] = s3 - 2 * s2;
    }
    // Columns.
    for (int c = 0; c < 4; ++c) {
        const int a = tmp[0 * 4 + c];
        const int b = tmp[1 * 4 + c];
        const int cc = tmp[2 * 4 + c];
        const int d = tmp[3 * 4 + c];
        const int s0 = a + d;
        const int s1 = b + cc;
        const int s2 = b - cc;
        const int s3 = a - d;
        out[0 * 4 + c] = s0 + s1;
        out[1 * 4 + c] = 2 * s3 + s2;
        out[2 * 4 + c] = s0 - s1;
        out[3 * 4 + c] = s3 - 2 * s2;
    }
}

void
fwdTx4x4Scalar(const int16_t in[16], int32_t out[16])
{
    fwd4Core(in, 4, out);
}

void
fwdTx8x8Scalar(const int16_t residual[64], int32_t coefs[64])
{
    for (int sb = 0; sb < 4; ++sb) {
        const int ox = (sb & 1) * 4;
        const int oy = (sb >> 1) * 4;
        fwd4Core(residual + oy * 8 + ox, 8, coefs + sb * 16);
    }
}

/** Inverse 4x4 core writing rows `out_stride` apart. */
void
inv4Core(const int32_t in[16], int16_t *out, int out_stride)
{
    int32_t tmp[16];
    // Rows.
    for (int r = 0; r < 4; ++r) {
        const int a = in[r * 4 + 0];
        const int b = in[r * 4 + 1];
        const int c = in[r * 4 + 2];
        const int d = in[r * 4 + 3];
        const int e0 = a + c;
        const int e1 = a - c;
        const int e2 = (b >> 1) - d;
        const int e3 = b + (d >> 1);
        tmp[r * 4 + 0] = e0 + e3;
        tmp[r * 4 + 1] = e1 + e2;
        tmp[r * 4 + 2] = e1 - e2;
        tmp[r * 4 + 3] = e0 - e3;
    }
    // Columns with final rounding.
    for (int c = 0; c < 4; ++c) {
        const int a = tmp[0 * 4 + c];
        const int b = tmp[1 * 4 + c];
        const int cc = tmp[2 * 4 + c];
        const int d = tmp[3 * 4 + c];
        const int e0 = a + cc;
        const int e1 = a - cc;
        const int e2 = (b >> 1) - d;
        const int e3 = b + (d >> 1);
        out[0 * out_stride + c] = static_cast<int16_t>((e0 + e3 + 32) >> 6);
        out[1 * out_stride + c] = static_cast<int16_t>((e1 + e2 + 32) >> 6);
        out[2 * out_stride + c] = static_cast<int16_t>((e1 - e2 + 32) >> 6);
        out[3 * out_stride + c] = static_cast<int16_t>((e0 - e3 + 32) >> 6);
    }
}

void
invTx4x4Scalar(const int32_t in[16], int16_t out[16])
{
    inv4Core(in, out, 4);
}

void
invTx8x8Scalar(const int32_t coefs[64], int16_t residual[64])
{
    for (int sb = 0; sb < 4; ++sb) {
        const int ox = (sb & 1) * 4;
        const int oy = (sb >> 1) * 4;
        inv4Core(coefs + sb * 16, residual + oy * 8 + ox, 8);
    }
}

int
quant4x4Scalar(const int32_t coefs[16], int16_t levels[16], int qp,
               bool intra)
{
    const int rem = qp % 6;
    const int qbits = 15 + qp / 6;
    const int64_t f = quantRound(qbits, intra);
    int nonzero = 0;
    for (int i = 0; i < 16; ++i) {
        const int mf = kQuantMfPos[rem][i];
        const int64_t w = coefs[i];
        const int64_t mag = ((w < 0 ? -w : w) * mf + f) >> qbits;
        const int16_t level = static_cast<int16_t>(w < 0 ? -mag : mag);
        levels[i] = level;
        if (level != 0)
            ++nonzero;
    }
    return nonzero;
}

void
dequant4x4Scalar(const int16_t levels[16], int32_t coefs[16], int qp)
{
    const int rem = qp % 6;
    const int shift = qp / 6;
    for (int i = 0; i < 16; ++i) {
        coefs[i] = (static_cast<int32_t>(levels[i]) *
                    kDequantV[rem][posClass(i)])
            << shift;
    }
}

void
diffBlockScalar(const uint8_t *src, int src_stride, const uint8_t *pred,
                int pred_stride, int16_t *out, int out_stride, int w,
                int h)
{
    for (int r = 0; r < h; ++r) {
        const uint8_t *s = src + r * src_stride;
        const uint8_t *p = pred + r * pred_stride;
        int16_t *o = out + r * out_stride;
        for (int c = 0; c < w; ++c)
            o[c] = static_cast<int16_t>(s[c] - p[c]);
    }
}

void
addClampBlockScalar(const uint8_t *pred, int pred_stride,
                    const int16_t *residual, int res_stride, uint8_t *dst,
                    int dst_stride, int w, int h)
{
    for (int r = 0; r < h; ++r) {
        const uint8_t *p = pred + r * pred_stride;
        const int16_t *res = residual + r * res_stride;
        uint8_t *d = dst + r * dst_stride;
        for (int c = 0; c < w; ++c)
            d[c] = clamp255(p[c] + res[c]);
    }
}

int
quantBlockScalar(const uint8_t *src, int src_stride, const uint8_t *pred,
                 int pred_stride, int n, int qp, bool intra,
                 int16_t *levels)
{
    int nonzero = 0;
    for (int by = 0; by < n; by += 4) {
        for (int bx = 0; bx < n; bx += 4, levels += 16) {
            int16_t residual[16];
            int32_t coefs[16];
            diffBlockScalar(src + by * src_stride + bx, src_stride,
                            pred + by * pred_stride + bx, pred_stride,
                            residual, 4, 4, 4);
            fwdTx4x4Scalar(residual, coefs);
            nonzero += quant4x4Scalar(coefs, levels, qp, intra);
        }
    }
    return nonzero;
}

int
reconBlockScalar(const uint8_t *pred, int pred_stride,
                 const int16_t *levels, int n, int qp, uint8_t *dst,
                 int dst_stride)
{
    int coded = 0;
    for (int by = 0; by < n; by += 4) {
        for (int bx = 0; bx < n; bx += 4, levels += 16) {
            const uint8_t *p = pred + by * pred_stride + bx;
            uint8_t *d = dst + by * dst_stride + bx;
            bool any = false;
            for (int i = 0; i < 16 && !any; ++i)
                any = levels[i] != 0;
            if (!any) {
                copy2dScalar(p, pred_stride, d, dst_stride, 4, 4);
                continue;
            }
            ++coded;
            int32_t coefs[16];
            int16_t residual[16];
            dequant4x4Scalar(levels, coefs, qp);
            invTx4x4Scalar(coefs, residual);
            addClampBlockScalar(p, pred_stride, residual, 4, d, dst_stride,
                                4, 4);
        }
    }
    return coded;
}

/**
 * Filter one edge sample: p1/p0 sit before the edge, q0/q1 after,
 * `step` apart in memory.
 */
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

void
deblockEdgeHScalar(uint8_t *q0_row, int stride, int n, int alpha,
                   int beta, int tc)
{
    for (int i = 0; i < n; ++i)
        filterEdgeSample(q0_row + i, stride, alpha, beta, tc);
}

void
deblockEdgeVScalar(uint8_t *q0_col, int stride, int n, int alpha,
                   int beta, int tc)
{
    for (int i = 0; i < n; ++i)
        filterEdgeSample(q0_col + i * stride, 1, alpha, beta, tc);
}

uint64_t
sse8Scalar(const uint8_t *a, const uint8_t *b, size_t n)
{
    uint64_t sum = 0;
    for (size_t i = 0; i < n; ++i) {
        const int d = static_cast<int>(a[i]) - b[i];
        sum += static_cast<uint64_t>(d * d);
    }
    return sum;
}

void
ssimWindowSumsScalar(const uint8_t *a, int a_stride, const uint8_t *b,
                     int b_stride, int w, int h, uint32_t sums[5])
{
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
}

} // namespace

const KernelOps *
scalarOps()
{
    static const KernelOps table = {
        "scalar",
        Isa::Scalar,
        sadScalar,
        satdScalar,
        sadX4Scalar,
        satdX4Scalar,
        sadMapScalar,
        copy2dScalar,
        interpHScalar,
        interpVScalar,
        interpHVScalar,
        fwdTx4x4Scalar,
        invTx4x4Scalar,
        fwdTx8x8Scalar,
        invTx8x8Scalar,
        quant4x4Scalar,
        dequant4x4Scalar,
        diffBlockScalar,
        addClampBlockScalar,
        quantBlockScalar,
        reconBlockScalar,
        deblockEdgeHScalar,
        deblockEdgeVScalar,
        sse8Scalar,
        ssimWindowSumsScalar,
    };
    return &table;
}

} // namespace vbench::kernels
