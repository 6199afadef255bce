#pragma once

/**
 * @file
 * Block motion estimation: SAD kernels and the integer + half-pel
 * search strategies (diamond, hexagon, exhaustive).
 */

#include <cstdint>

#include "codec/refplane.h"
#include "codec/types.h"
#include "uarch/probe.h"
#include "video/plane.h"

namespace vbench::codec {

/** Integer-search strategies, in increasing effort order. */
enum class SearchKind : uint8_t { Diamond = 0, Hex = 1, Full = 2 };

/** Sum of absolute differences between two strided blocks. */
uint32_t sadBlock(const uint8_t *a, int a_stride, const uint8_t *b,
                  int b_stride, int w, int h);

/**
 * Sum of absolute Hadamard-transformed differences (SATD) over the 4x4
 * sub-blocks of a block. Approximates post-transform residual cost far
 * better than SAD, which is why production encoders switch to it for
 * sub-pel refinement; ~4x the arithmetic of SAD.
 * Block dimensions must be multiples of 4.
 */
uint32_t satdBlock(const uint8_t *a, int a_stride, const uint8_t *b,
                   int b_stride, int w, int h);

/** Exp-Golomb bit cost of coding an MV against its predictor. */
uint32_t mvBits(MotionVector mv, MotionVector pred);

/** Inputs to one block search. */
struct MeContext {
    const video::Plane *src = nullptr;  ///< current source plane
    /// Padded reference. Half-pel candidates are read from its half-pel
    /// planes when built, and interpolated one by one otherwise.
    const RefPlane *ref = nullptr;
    int block_x = 0;
    int block_y = 0;
    int block_w = 16;
    int block_h = 16;
    MotionVector pred;                  ///< MV predictor (half-pel)
    /// Extra full-pel-rounded search seed (half-pel units). Encoder-side
    /// hint only — never enters the bitstream, so callers may seed from
    /// state the decoder cannot see (e.g. the row above a slice head,
    /// where `pred` must act as if the frame started). Ignored unless
    /// has_seed is set.
    MotionVector seed;
    bool has_seed = false;
    double lambda = 1.0;                ///< SAD-domain rate weight
    SearchKind kind = SearchKind::Hex;
    int range = 16;                     ///< full-pel search radius
    bool subpel = true;                 ///< half-pel refinement
    int subpel_iters = 1;               ///< refinement rounds
    /// Score sub-pel candidates with SATD instead of SAD (slower,
    /// better rate prediction; the x264 subme >= 2 behaviour).
    bool satd_subpel = false;
    uarch::UarchProbe *probe = nullptr;
};

/** Search outcome. */
struct MeResult {
    MotionVector mv;        ///< best MV, half-pel units
    uint32_t cost = 0;      ///< sad + lambda * mv bits
    uint32_t sad = 0;
    uint32_t candidates = 0;///< positions evaluated
};

/**
 * Run the configured search. The returned MV is clamped so that all
 * motion compensation reads stay inside the padded reference.
 */
MeResult motionSearch(const MeContext &ctx);

} // namespace vbench::codec
