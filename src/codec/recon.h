#pragma once

/**
 * @file
 * Block reconstruction shared by encoder and decoder: dequantize,
 * inverse-transform, add to prediction, clamp.
 */

#include <cstdint>

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
    return kernels::ops().reconBlock(pred, n, levels, n, qp,
                                     recon.row(y) + x, recon.width());
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
