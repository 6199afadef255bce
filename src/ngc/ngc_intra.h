#pragma once

/**
 * @file
 * NGC intra prediction: six predictors over arbitrary power-of-two
 * block sizes (8..32), including two 45-degree angular modes that VBC
 * lacks. Neighbors are read from the reconstructed plane with
 * availability-aware clamping, identically on both sides.
 */

#include <cstdint>

#include "ngc/ngc_types.h"
#include "video/frame.h"
#include "video/plane.h"

namespace vbench::ngc {

/**
 * Generate an n x n prediction for the block at (x, y).
 *
 * @param mode predictor; must satisfy ngcIntraAvailable(mode, x, y,
 *        slice_top).
 * @param slice_top first pixel row of the enclosing entropy slice;
 *        rows above it are treated as outside the frame so slices
 *        decode independently. 0 (the default) is the frame top.
 */
void ngcIntraPredict(NgcIntraMode mode, const video::Plane &recon, int x,
                     int y, int n, uint8_t *out, int slice_top = 0);

/**
 * Availability of a predictor at a block position. Blocks on the
 * slice's first pixel row (`slice_top`) have no top neighbor, exactly
 * like blocks on the frame top.
 */
bool ngcIntraAvailable(NgcIntraMode mode, int x, int y,
                       int slice_top = 0);

/**
 * Intra prediction of a whole size x size CU at luma (x, y): luma from
 * `mode`, chroma from `mode` where it is available at the chroma
 * position and DC elsewhere (the chroma mode is derived, never coded).
 */
void ngcIntraPredictCu(NgcIntraMode mode, const video::Frame &recon, int x,
                       int y, int size, int slice_top, uint8_t *pred_y,
                       uint8_t *pred_u, uint8_t *pred_v);

} // namespace vbench::ngc
