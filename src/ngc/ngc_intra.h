#pragma once

/**
 * @file
 * NGC intra prediction: six predictors over square blocks of 4, 8, 16
 * or 32 samples (the CU sizes and their chroma), including two
 * 45-degree angular modes that VBC lacks. Neighbors are read from the
 * reconstructed plane with availability-aware clamping, identically on
 * both sides.
 *
 * A prediction reads its edge samples once and fills whole rows. DC,
 * V, H and TM read the top row and the left column in place. The
 * diagonal modes gather an edge array of 2n + 1 samples and filter it
 * (1-2-1) into 2n - 1 samples, one per diagonal:
 * - DDL: the top row from the block's first column on, extended n + 1
 *   samples past the block; row r of the prediction is the filtered
 *   array from sample r on.
 * - DDR: the left column bottom-up, then the top-left corner, then the
 *   top row; row r is the filtered array from sample n - 1 - r on.
 *
 * Edge samples outside the plane are clamped exactly as
 * Plane::atClamped clamps them, so each predicted sample is the same
 * formula as a per-pixel loop over atClamped reads.
 */

#include <cstdint>

#include "ngc/ngc_types.h"
#include "video/frame.h"
#include "video/plane.h"

namespace vbench::ngc {

/**
 * Generate an n x n prediction for the block at (x, y); n is 4, 8, 16
 * or 32.
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
