#pragma once

/**
 * @file
 * Half-pel motion compensation (bilinear interpolation) against padded
 * reference planes. Shared verbatim by encoder and decoder.
 */

#include <cstdint>

#include "codec/refplane.h"
#include "codec/types.h"

namespace vbench::codec {

/**
 * Fetch a motion-compensated w x h block.
 *
 * @param ref padded reference plane.
 * @param x, y block position in the current frame (full-pel).
 * @param mv motion vector in half-pel units.
 * @param w, h block size.
 * @param out destination, row-major w x h.
 *
 * The caller must keep x + (mv.x >> 1) within [-kRefPad + 1,
 * width + kRefPad - w - 1] (the search clamps guarantee this).
 */
void motionCompensate(const RefPlane &ref, int x, int y, MotionVector mv,
                      int w, int h, uint8_t *out);

/** A read-only block of samples, rows `stride` apart. */
struct BlockRef {
    const uint8_t *data;
    int stride;
};

/**
 * The block motionCompensate() would write, read in place where the
 * reference holds it: a full-pel MV reads the plane itself, a half-pel
 * MV the half-pel plane of its phase once RefPlane::buildHalfPel() has
 * run. Otherwise the block is interpolated into `scratch` (w x h).
 * Same position contract as motionCompensate().
 */
inline BlockRef
compensatedBlock(const RefPlane &ref, int x, int y, MotionVector mv, int w,
                 int h, uint8_t *scratch)
{
    const int phase = (mv.x & 1) + 2 * (mv.y & 1);
    if (phase != 0 && !ref.hasHalfPel()) {
        motionCompensate(ref, x, y, mv, w, h, scratch);
        return {scratch, w};
    }
    return {ref.phasePtr(phase, x + (mv.x >> 1), y + (mv.y >> 1)),
            ref.stride()};
}

/**
 * Inter prediction of the n x n block at (x, y), row-major into `pred`:
 * one MV for the whole block (parts = 1) or one per n/2 x n/2 quadrant
 * in raster order (parts = 4, n <= 16). Each MV is shifted right by
 * `shift` first (1 halves luma MVs for chroma). Encoders and decoders
 * build every inter prediction through here.
 */
void predictInter(const RefPlane &ref, int x, int y, int n, int parts,
                  const MotionVector *mv, int shift, uint8_t *pred);

/**
 * Whether a w x h compensation at (x, y) with `mv` — including the +1
 * sample half-pel filters read — stays inside the reference padding.
 * Decoders reject coded MVs that do not.
 */
inline bool
mvInsideReference(MotionVector mv, int x, int y, int w, int h, int frame_w,
                  int frame_h)
{
    const int ix = x + (mv.x >> 1);
    const int iy = y + (mv.y >> 1);
    return ix >= -kRefPad && iy >= -kRefPad &&
        ix + w + 1 <= frame_w + kRefPad && iy + h + 1 <= frame_h + kRefPad;
}

/**
 * Clamp a motion vector so that a w x h compensation at (x, y) —
 * including the +1 sample half-pel filters read — stays inside the
 * reference padding. Identity for any in-range vector, so applying it
 * on both encoder and decoder skip paths preserves bit-exactness while
 * making hostile predictor chains safe.
 */
inline MotionVector
clampMvForBlock(MotionVector mv, int x, int y, int w, int h, int frame_w,
                int frame_h)
{
    const int min_x = 2 * (-kRefPad + 1 - x);
    const int max_x = 2 * (frame_w + kRefPad - w - 1 - x);
    const int min_y = 2 * (-kRefPad + 1 - y);
    const int max_y = 2 * (frame_h + kRefPad - h - 1 - y);
    mv.x = static_cast<int16_t>(clampInt(mv.x, min_x, max_x));
    mv.y = static_cast<int16_t>(clampInt(mv.y, min_y, max_y));
    return mv;
}

} // namespace vbench::codec
