#pragma once

/**
 * @file
 * NGC transform-unit syntax, shared by encoder and decoder: the 2x2
 * Hadamard DC mini-block followed by four 4x4 AC blocks (whose
 * position 0 is structurally zero), the level layout of a whole coded
 * CU, and its reconstruction.
 *
 * A coded size x size CU carries its levels in coding order:
 * (size/8)^2 luma TUs of 4 DC + 64 AC levels, then per chroma plane
 * (size/16)^2 such TUs, or one 16-level 4x4 block when the chroma CU
 * is 4x4.
 */

#include <cstdint>

#include "codec/recon.h"
#include "codec/residual.h"
#include "codec/syntax.h"
#include "kernels/kernel_ops.h"
#include "ngc/ngc_types.h"
#include "ngc/transform8.h"
#include "video/frame.h"

namespace vbench::ngc {

/** Write one hierarchical 8x8 TU. */
inline void
writeTu8(codec::SyntaxWriter &writer, const int16_t dc_levels[4],
         const int16_t ac_levels[64], bool luma)
{
    int count = 0;
    for (int i = 0; i < 4; ++i)
        count += dc_levels[i] != 0;
    writer.ue(count, nctx::kDcCount, 3);
    int prev = -1;
    for (int i = 0; i < 4; ++i) {
        if (dc_levels[i] == 0)
            continue;
        writer.ue(static_cast<uint32_t>(i - prev - 1), codec::ctx::kRun,
                  3);
        const int16_t level = dc_levels[i];
        const uint32_t mag = level < 0 ? -level : level;
        writer.ue(mag - 1, codec::ctx::kLevel, 4);
        writer.bypass(level < 0);
        prev = i;
    }
    for (int sb = 0; sb < 4; ++sb)
        codec::writeResidualBlock(writer, ac_levels + sb * 16, luma);
}

/**
 * Parse one hierarchical 8x8 TU.
 * @return total nonzero levels, or -1 on corrupt syntax.
 */
inline int
readTu8(codec::SyntaxReader &reader, int16_t dc_levels[4],
        int16_t ac_levels[64], bool luma)
{
    for (int i = 0; i < 4; ++i)
        dc_levels[i] = 0;
    const uint32_t count = reader.ue(nctx::kDcCount, 3);
    if (count > 4)
        return -1;
    int pos = -1;
    for (uint32_t i = 0; i < count; ++i) {
        const uint32_t run = reader.ue(codec::ctx::kRun, 3);
        // Bound before the int cast: a corrupt run near UINT32_MAX
        // would wrap `pos` negative and index below the DC array.
        if (run > 3)
            return -1;
        pos += static_cast<int>(run) + 1;
        if (pos > 3)
            return -1;
        const uint32_t mag = reader.ue(codec::ctx::kLevel, 4) + 1;
        if (mag > 32767)
            return -1;
        dc_levels[pos] = reader.bypass() ? -static_cast<int16_t>(mag)
                                         : static_cast<int16_t>(mag);
    }
    int nonzero = static_cast<int>(count);
    for (int sb = 0; sb < 4; ++sb) {
        const int n =
            codec::readResidualBlock(reader, ac_levels + sb * 16, luma);
        if (n < 0 || ac_levels[sb * 16] != 0)
            return -1;  // position 0 must stay structural zero
        nonzero += n;
    }
    return nonzero;
}

/// Levels of one 8x8 TU: 4 DC then 64 AC.
inline constexpr int kTuLevels = 68;
/// Levels of the largest coded CU (32x32: 16 luma + 2x4 chroma TUs).
inline constexpr int kMaxCuLevels = 24 * kTuLevels;

/** Levels a coded size x size CU carries. */
inline int
cuLevelCount(int size)
{
    const int tus = size / 8;
    const int ctus = size / 16;
    return tus * tus * kTuLevels +
        2 * (ctus > 0 ? ctus * ctus * kTuLevels : 16);
}

/** Write a coded CU's levels. */
inline void
writeCuLevels(codec::SyntaxWriter &writer, int size, const int16_t *levels)
{
    const int tus = size / 8;
    const int ctus = size / 16;
    for (int t = 0; t < tus * tus; ++t, levels += kTuLevels)
        writeTu8(writer, levels, levels + 4, true);
    for (int plane = 0; plane < 2; ++plane) {
        if (ctus == 0) {
            codec::writeResidualBlock(writer, levels, false);
            levels += 16;
        }
        for (int t = 0; t < ctus * ctus; ++t, levels += kTuLevels)
            writeTu8(writer, levels, levels + 4, false);
    }
}

/**
 * Parse a coded CU's levels.
 * @return the CU's nonzero levels, its 4x4 chroma blocks' included (the
 *         count the encoder codes the CU with), or -1 on corrupt syntax.
 */
inline int
readCuLevels(codec::SyntaxReader &reader, int size, int16_t *levels)
{
    const int tus = size / 8;
    const int ctus = size / 16;
    int nonzero = 0;
    for (int t = 0; t < tus * tus; ++t, levels += kTuLevels) {
        const int n = readTu8(reader, levels, levels + 4, true);
        if (n < 0)
            return -1;
        nonzero += n;
    }
    for (int plane = 0; plane < 2; ++plane) {
        if (ctus == 0) {
            const int n = codec::readResidualBlock(reader, levels, false);
            if (n < 0)
                return -1;
            nonzero += n;
            levels += 16;
        }
        for (int t = 0; t < ctus * ctus; ++t, levels += kTuLevels) {
            const int n = readTu8(reader, levels, levels + 4, false);
            if (n < 0)
                return -1;
            nonzero += n;
        }
    }
    return nonzero;
}

/**
 * Reconstruct the size x size CU at luma (x, y) from its predictions
 * and levels; null `levels` is a skipped CU, whose reconstruction is
 * its prediction. Returns the number of inverse-transformed blocks.
 */
inline int
reconstructCu(video::Frame &recon, int x, int y, int size, int qp,
              const uint8_t *pred_y, const uint8_t *pred_u,
              const uint8_t *pred_v, const int16_t *levels)
{
    const int csize = size / 2;
    const int cx = x / 2;
    const int cy = y / 2;
    if (!levels) {
        codec::copyPrediction(recon.y(), x, y, size, pred_y);
        codec::copyPrediction(recon.u(), cx, cy, csize, pred_u);
        codec::copyPrediction(recon.v(), cx, cy, csize, pred_v);
        return 0;
    }
    int inv_blocks = 0;
    int16_t residual[64];
    const int tus = size / 8;
    for (int ty = 0; ty < tus; ++ty) {
        for (int tx = 0; tx < tus; ++tx, levels += kTuLevels) {
            inverseTransform8x8(levels, levels + 4, qp, residual);
            codec::addResidual(recon.y(), x + tx * 8, y + ty * 8, 8,
                               pred_y + ty * 8 * size + tx * 8, size,
                               residual, 8);
            ++inv_blocks;
        }
    }
    const int ctus = size / 16;
    for (int plane = 0; plane < 2; ++plane) {
        video::Plane &rplane = plane == 0 ? recon.u() : recon.v();
        const uint8_t *pred_c = plane == 0 ? pred_u : pred_v;
        if (ctus == 0) {
            kernels::ops().reconBlock(pred_c, 4, levels, 4, qp,
                                      rplane.row(cy) + cx, rplane.width());
            levels += 16;
            ++inv_blocks;
        }
        for (int ty = 0; ty < ctus; ++ty) {
            for (int tx = 0; tx < ctus; ++tx, levels += kTuLevels) {
                inverseTransform8x8(levels, levels + 4, qp, residual);
                codec::addResidual(rplane, cx + tx * 8, cy + ty * 8, 8,
                                   pred_c + ty * 8 * csize + tx * 8, csize,
                                   residual, 8);
                ++inv_blocks;
            }
        }
    }
    return inv_blocks;
}

} // namespace vbench::ngc
