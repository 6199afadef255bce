#pragma once

/**
 * @file
 * Block reconstruction shared by encoder and decoder: dequantize,
 * inverse-transform, add to prediction, clamp.
 */

#include <cstdint>

#include "codec/transform.h"
#include "codec/types.h"
#include "kernels/kernel_ops.h"
#include "video/plane.h"

namespace vbench::codec {

/**
 * Reconstruct an n x n block region of `recon` at (x, y) from a
 * prediction buffer and the quantized levels of its (n/4)^2 transform
 * blocks (raster order of 4x4 blocks; each block raster layout).
 *
 * @param recon destination plane.
 * @param x, y block origin.
 * @param n block edge (16 luma, 8 chroma).
 * @param pred n*n prediction samples, row-major.
 * @param levels (n/4)*(n/4) blocks of 16 levels each.
 * @param qp quantizer the levels were produced at.
 * @return number of transform blocks that had residual.
 */
inline int
reconstructBlock(video::Plane &recon, int x, int y, int n,
                 const uint8_t *pred, const int16_t *levels, int qp)
{
    const int blocks_per_side = n / 4;
    const int recon_stride = recon.width();
    const kernels::KernelOps &k = kernels::ops();
    int coded_blocks = 0;
    for (int by = 0; by < blocks_per_side; ++by) {
        for (int bx = 0; bx < blocks_per_side; ++bx) {
            const int16_t *block_levels =
                levels + (by * blocks_per_side + bx) * 16;
            bool any = false;
            for (int i = 0; i < 16; ++i) {
                if (block_levels[i] != 0) {
                    any = true;
                    break;
                }
            }
            const int ox = bx * 4;
            const int oy = by * 4;
            uint8_t *dst = recon.row(y + oy) + x + ox;
            const uint8_t *pred_blk = pred + oy * n + ox;
            if (!any) {
                k.copy2d(pred_blk, n, dst, recon_stride, 4, 4);
                continue;
            }
            ++coded_blocks;
            int32_t coefs[16];
            int16_t residual[16];
            dequantize4x4(block_levels, coefs, qp);
            inverseTransform4x4(coefs, residual);
            k.addClampBlock(pred_blk, n, residual, 4, dst, recon_stride,
                            4, 4);
        }
    }
    return coded_blocks;
}

/** Copy a prediction buffer straight into the reconstruction plane. */
inline void
copyPrediction(video::Plane &recon, int x, int y, int n,
               const uint8_t *pred)
{
    kernels::ops().copy2d(pred, n, recon.row(y) + x, recon.width(), n, n);
}

/** recon = clamp(pred + residual) over the n x n block at (x, y). */
inline void
addResidual(video::Plane &recon, int x, int y, int n, const uint8_t *pred,
            int pred_stride, const int16_t *residual, int res_stride)
{
    kernels::ops().addClampBlock(pred, pred_stride, residual, res_stride,
                                 recon.row(y) + x, recon.width(), n, n);
}

} // namespace vbench::codec
