#include "ngc/transform8.h"

#include "codec/transform.h"
#include "kernels/kernel_ops.h"
#include "kernels/quant_tables.h"

namespace vbench::ngc {

namespace {

/** 2x2 Hadamard butterfly (self-inverse up to a factor of 4). */
void
hadamard2x2(const int32_t in[4], int32_t out[4])
{
    out[0] = in[0] + in[1] + in[2] + in[3];
    out[1] = in[0] - in[1] + in[2] - in[3];
    out[2] = in[0] + in[1] - in[2] - in[3];
    out[3] = in[0] - in[1] - in[2] + in[3];
}

} // namespace

int
forwardTransform8x8(const int16_t residual[64], int16_t dc_levels[4],
                    int16_t ac_levels[64], int qp, bool intra)
{
    int32_t coefs[4][16];
    kernels::ops().fwdTx8x8(residual, &coefs[0][0]);

    // Second-level transform over the four DC coefficients.
    const int32_t dc[4] = {coefs[0][0], coefs[1][0], coefs[2][0],
                           coefs[3][0]};
    int32_t had[4];
    hadamard2x2(dc, had);

    const int rem = qp % 6;
    const int qbits = 15 + qp / 6;
    const int64_t f = kernels::quantRound(qbits, intra);
    const int mf = codec::quantMfDc(rem);
    int nonzero = 0;
    for (int i = 0; i < 4; ++i) {
        const int64_t w = had[i];
        // The Hadamard has gain 4, so quantize with one extra shift
        // (an effective step of 2x) to stay in the same scale family.
        const int64_t mag = ((w < 0 ? -w : w) * mf + 2 * f) >> (qbits + 1);
        dc_levels[i] = static_cast<int16_t>(w < 0 ? -mag : mag);
        if (dc_levels[i] != 0)
            ++nonzero;
    }

    for (int sb = 0; sb < 4; ++sb) {
        coefs[sb][0] = 0;  // energy moved into the DC transform
        nonzero += codec::quantize4x4(coefs[sb], ac_levels + sb * 16, qp,
                                      intra);
    }
    return nonzero;
}

void
inverseTransform8x8(const int16_t dc_levels[4], const int16_t ac_levels[64],
                    int qp, int16_t residual[64])
{
    const int rem = qp % 6;
    const int shift = qp / 6;
    const int v = codec::dequantVDc(rem);

    int32_t had[4];
    for (int i = 0; i < 4; ++i)
        had[i] = (static_cast<int32_t>(dc_levels[i]) * v) << (shift + 1);
    int32_t dc[4];
    hadamard2x2(had, dc);
    for (int i = 0; i < 4; ++i)
        dc[i] = (dc[i] + 2) >> 2;  // inverse Hadamard normalization

    int32_t coefs[4][16];
    for (int sb = 0; sb < 4; ++sb) {
        codec::dequantize4x4(ac_levels + sb * 16, coefs[sb], qp);
        coefs[sb][0] = dc[sb];
    }
    kernels::ops().invTx8x8(&coefs[0][0], residual);
}

} // namespace vbench::ngc
