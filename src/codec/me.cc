#include "codec/me.h"

#include <algorithm>
#include <vector>

#include "codec/golomb.h"
#include "codec/interp.h"
#include "kernels/kernel_ops.h"

namespace vbench::codec {

namespace {

/** Search state shared by the strategies. */
struct SearchState {
    const MeContext &ctx;
    int min_mx, max_mx, min_my, max_my;  ///< full-pel MV bounds
    const uint8_t *src_ptr;
    int src_stride;
    MotionVector best;      ///< half-pel
    uint32_t best_cost = UINT32_MAX;
    uint32_t best_sad = 0;
    uint32_t candidates = 0;
    uint64_t decisions = 0; ///< improvement bits for the branch model
    int n_decisions = 0;

    explicit
    SearchState(const MeContext &c)
        : ctx(c),
          src_ptr(c.src->row(c.block_y) + c.block_x),
          src_stride(c.src->width())
    {
        // Keep every read (including +1 for half-pel) inside the pad.
        const int margin = kRefPad - 2;
        min_mx = -(c.block_x + margin);
        max_mx = c.ref->width() + margin - c.block_w - c.block_x;
        min_my = -(c.block_y + margin);
        max_my = c.ref->height() + margin - c.block_h - c.block_y;
    }

    /** Cost of a full-pel candidate; updates best. */
    void
    tryFullPel(int mx, int my)
    {
        mx = clampInt(mx, min_mx, max_mx);
        my = clampInt(my, min_my, max_my);
        const MotionVector mv{static_cast<int16_t>(mx * 2),
                              static_cast<int16_t>(my * 2)};
        if (candidates > 0 && mv == best)
            return;
        evaluateFullPel(mx, my);
    }

    /** SAD-score a full-pel candidate inside the bounds; updates best. */
    void
    evaluateFullPel(int mx, int my)
    {
        const uint8_t *ref_ptr =
            ctx.ref->ptr(ctx.block_x + mx, ctx.block_y + my);
        const uint32_t sad = sadBlock(src_ptr, src_stride, ref_ptr,
                                      ctx.ref->stride(), ctx.block_w,
                                      ctx.block_h);
        finish(MotionVector{static_cast<int16_t>(mx * 2),
                            static_cast<int16_t>(my * 2)},
               sad);
    }

    /** Cost of a half-pel candidate; updates best. */
    void
    tryHalfPel(MotionVector mv)
    {
        mv.x = static_cast<int16_t>(
            clampInt(mv.x, min_mx * 2, max_mx * 2));
        mv.y = static_cast<int16_t>(
            clampInt(mv.y, min_my * 2, max_my * 2));
        if (mv == best)
            return;
        finish(mv, distortion(mv, ctx.satd_subpel));
    }

    /**
     * Re-score the current best with SATD so integer and sub-pel
     * candidates compete in the same metric.
     */
    void
    rescoreWithSatd()
    {
        best_sad = distortion(best, true);
        best_cost = best_sad +
            static_cast<uint32_t>(ctx.lambda * mvBits(best, ctx.pred) +
                                  0.5);
    }

    /**
     * SATD or SAD of the block at `mv`, read in place from the
     * reference or, for a half-pel MV, from its half-pel plane when
     * built (RefPlane::buildHalfPel).
     */
    uint32_t
    distortion(MotionVector mv, bool satd) const
    {
        uint8_t scratch[32 * 32];  // max block any codec searches
        const BlockRef pred =
            compensatedBlock(*ctx.ref, ctx.block_x, ctx.block_y, mv,
                             ctx.block_w, ctx.block_h, scratch);
        return satd ? satdBlock(src_ptr, src_stride, pred.data, pred.stride,
                                ctx.block_w, ctx.block_h)
                    : sadBlock(src_ptr, src_stride, pred.data, pred.stride,
                               ctx.block_w, ctx.block_h);
    }

    void
    finish(MotionVector mv, uint32_t sad)
    {
        consider(mv, sad,
                 sad + static_cast<uint32_t>(
                           ctx.lambda * mvBits(mv, ctx.pred) + 0.5));
    }

    /** Count a candidate whose cost is already known; updates best. */
    void
    consider(MotionVector mv, uint32_t sad, uint32_t cost)
    {
        ++candidates;
        const bool improved = cost < best_cost;
        if (n_decisions < 64) {
            decisions |= static_cast<uint64_t>(improved) << n_decisions;
            ++n_decisions;
        }
        if (improved) {
            best_cost = cost;
            best_sad = sad;
            best = mv;
        }
    }

    /**
     * Count @p n candidates known not to beat the best, as finish()
     * would have counted them: no improvement bits.
     */
    void
    countRejected(uint32_t n)
    {
        candidates += n;
        n_decisions = static_cast<int>(
            std::min<uint32_t>(static_cast<uint32_t>(n_decisions) + n, 64));
    }
};

const int kSmallDiamond[4][2] = {{0, -1}, {-1, 0}, {1, 0}, {0, 1}};
const int kHexagon[6][2] = {
    {-2, 0}, {-1, -2}, {1, -2}, {2, 0}, {1, 2}, {-1, 2},
};

/**
 * Final 3x3 square refinement. Axis-only patterns stall when the best
 * position is diagonally adjacent; the square pass fixes that, as in
 * x264's SQUARE/UMH endgames.
 */
void
squareRefine(SearchState &state, int max_iters)
{
    for (int iter = 0; iter < max_iters; ++iter) {
        const MotionVector center = state.best;
        for (int dy = -1; dy <= 1; ++dy) {
            for (int dx = -1; dx <= 1; ++dx) {
                if (dx == 0 && dy == 0)
                    continue;
                state.tryFullPel(center.x / 2 + dx, center.y / 2 + dy);
            }
        }
        if (state.best == center)
            break;
    }
}

void
diamondSearch(SearchState &state, int max_iters)
{
    for (int iter = 0; iter < max_iters; ++iter) {
        const MotionVector center = state.best;
        for (const auto &d : kSmallDiamond) {
            state.tryFullPel(center.x / 2 + d[0], center.y / 2 + d[1]);
        }
        if (state.best == center)
            break;
    }
    squareRefine(state, 2);
}

void
hexSearch(SearchState &state, int max_iters)
{
    for (int iter = 0; iter < max_iters; ++iter) {
        const MotionVector center = state.best;
        for (const auto &d : kHexagon) {
            state.tryFullPel(center.x / 2 + d[0], center.y / 2 + d[1]);
        }
        if (state.best == center)
            break;
    }
    squareRefine(state, 2);
}

/**
 * Exhaustive search. Visits exactly the positions of a raster scan over
 * the (2 range + 1)^2 window around the clamped predictor, in raster
 * order, each clamped into the MV bounds as tryFullPel clamps it, the
 * current best skipped. One sadMap kernel call first computes the SAD
 * of every position of the clamped window; the scan then prices each
 * position with the rate term finish() would add, from one per-window
 * table, and applies finish()'s bookkeeping. A row that is not clamped
 * horizontally and whose cheapest cost does not beat the best holds no
 * improvement: it is counted in one step, one position short when the
 * current best lies in it (that position is skipped). The winner, its
 * cost, the candidate count and the branch-model decisions are those
 * of the plain raster scan.
 */
void
fullSearch(SearchState &state)
{
    const MeContext &ctx = state.ctx;
    const int cx = clampInt((ctx.pred.x + 1) / 2, state.min_mx,
                            state.max_mx);
    const int cy = clampInt((ctx.pred.y + 1) / 2, state.min_my,
                            state.max_my);
    // Every raster position clamps into [x0, x1] x [y0, y1].
    const int x0 = clampInt(cx - ctx.range, state.min_mx, state.max_mx);
    const int x1 = clampInt(cx + ctx.range, state.min_mx, state.max_mx);
    const int y0 = clampInt(cy - ctx.range, state.min_my, state.max_my);
    const int y1 = clampInt(cy + ctx.range, state.min_my, state.max_my);
    const int columns = x1 - x0 + 1;
    const int rows = y1 - y0 + 1;
    const bool columns_clamped =
        cx - ctx.range < state.min_mx || cx + ctx.range > state.max_mx;

    // Scratch: the SAD map, then each column's MV bits, then one row of
    // costs. The presets' ranges (up to 12) fit on the stack. The MV
    // bounds keep the map's one-column over-read (kernel_ops.h) inside
    // the reference pad.
    constexpr size_t kStackScratch = 2048;
    const size_t map_cells = static_cast<size_t>(columns) * rows;
    const size_t scratch_cells = map_cells + 2 * static_cast<size_t>(columns);
    uint32_t stack_scratch[kStackScratch];
    std::vector<uint32_t> heap_scratch;
    uint32_t *map = stack_scratch;
    if (scratch_cells > kStackScratch) {
        heap_scratch.resize(scratch_cells);
        map = heap_scratch.data();
    }
    uint32_t *column_bits = map + map_cells;
    uint32_t *costs = column_bits + columns;

    kernels::ops().sadMap(state.src_ptr, state.src_stride,
                          ctx.ref->ptr(ctx.block_x + x0, ctx.block_y + y0),
                          ctx.ref->stride(), ctx.block_w, ctx.block_h,
                          columns, rows, map);

    // The rate term, exactly as finish() rounds it, by MV bits: a
    // column part plus a row part. se() bits grow with the magnitude,
    // so the window's corners bound the sum; se() of any int32 takes at
    // most 66 bits.
    const auto col_bits = [&](int x) { return seBits(2 * x - ctx.pred.x); };
    const auto row_bits = [&](int y) { return seBits(2 * y - ctx.pred.y); };
    uint32_t rate[2 * 66 + 1];
    const uint32_t max_bits = std::max(col_bits(x0), col_bits(x1)) +
        std::max(row_bits(y0), row_bits(y1));
    for (uint32_t bits = 0; bits <= max_bits; ++bits)
        rate[bits] = static_cast<uint32_t>(ctx.lambda * bits + 0.5);
    for (int u = 0; u < columns; ++u)
        column_bits[u] = col_bits(x0 + u);

    // The seeds were evaluated first, so the raster scan's best-skip
    // guard (candidates > 0) always holds.
    for (int my = -ctx.range; my <= ctx.range; ++my) {
        const int y = clampInt(cy + my, state.min_my, state.max_my);
        const uint32_t *sads = map + static_cast<size_t>(y - y0) * columns;
        const uint32_t *row_rate = rate + row_bits(y);
        uint32_t cheapest = UINT32_MAX;
        for (int u = 0; u < columns; ++u) {
            costs[u] = sads[u] + row_rate[column_bits[u]];
            cheapest = std::min(cheapest, costs[u]);
        }
        if (!columns_clamped && cheapest >= state.best_cost) {
            const bool best_in_row = state.best.y == 2 * y &&
                state.best.x >= 2 * x0 && state.best.x <= 2 * x1;
            state.countRejected(static_cast<uint32_t>(columns) -
                                best_in_row);
            continue;
        }
        for (int mx = -ctx.range; mx <= ctx.range; ++mx) {
            const int x = clampInt(cx + mx, state.min_mx, state.max_mx);
            const MotionVector mv{static_cast<int16_t>(x * 2),
                                  static_cast<int16_t>(y * 2)};
            if (mv == state.best)
                continue;
            state.consider(mv, sads[x - x0], costs[x - x0]);
        }
    }
}

} // namespace

uint32_t
sadBlock(const uint8_t *a, int a_stride, const uint8_t *b, int b_stride,
         int w, int h)
{
    return kernels::ops().sad(a, a_stride, b, b_stride, w, h);
}

uint32_t
satdBlock(const uint8_t *a, int a_stride, const uint8_t *b, int b_stride,
          int w, int h)
{
    return kernels::ops().satd(a, a_stride, b, b_stride, w, h);
}

uint32_t
mvBits(MotionVector mv, MotionVector pred)
{
    return seBits(mv.x - pred.x) + seBits(mv.y - pred.y);
}

MeResult
motionSearch(const MeContext &ctx)
{
    SearchState state(ctx);

    // Seed candidates: zero MV, the predictor, and (when the caller
    // supplied one) the extra hint. The hint matters at slice heads,
    // where the rate predictor resets to zero but real motion hasn't:
    // without it the pattern search walks from (0,0) every time.
    state.tryFullPel(0, 0);
    state.tryFullPel((ctx.pred.x + 1) / 2, (ctx.pred.y + 1) / 2);
    if (ctx.has_seed)
        state.tryFullPel((ctx.seed.x + 1) / 2, (ctx.seed.y + 1) / 2);

    switch (ctx.kind) {
      case SearchKind::Diamond:
        diamondSearch(state, ctx.range);
        break;
      case SearchKind::Hex:
        hexSearch(state, ctx.range);
        break;
      case SearchKind::Full:
        fullSearch(state);
        break;
    }

    uint32_t subpel_evals = 0;
    if (ctx.subpel) {
        if (ctx.satd_subpel)
            state.rescoreWithSatd();
        for (int iter = 0; iter < ctx.subpel_iters; ++iter) {
            const MotionVector center = state.best;
            for (int dy = -1; dy <= 1; ++dy) {
                for (int dx = -1; dx <= 1; ++dx) {
                    if (dx == 0 && dy == 0)
                        continue;
                    state.tryHalfPel(
                        MotionVector{static_cast<int16_t>(center.x + dx),
                                     static_cast<int16_t>(center.y + dy)});
                    ++subpel_evals;
                }
            }
            if (state.best == center)
                break;
        }
    }

    if (ctx.probe) {
        const uint64_t area = static_cast<uint64_t>(ctx.block_w) *
            ctx.block_h;
        const uint64_t sad_units =
            std::max<uint64_t>(1, state.candidates * area / 256);
        ctx.probe->record(
            uarch::KernelId::Sad, sad_units, state.decisions,
            state.n_decisions,
            {uarch::MemRegion{state.src_ptr,
                              static_cast<uint32_t>(ctx.block_w),
                              static_cast<uint32_t>(ctx.block_h),
                              static_cast<uint32_t>(state.src_stride),
                              false},
             uarch::MemRegion{
                 ctx.ref->ptr(ctx.block_x - ctx.range,
                              ctx.block_y - ctx.range / 2),
                 static_cast<uint32_t>(ctx.block_w + 2 * ctx.range),
                 static_cast<uint32_t>(ctx.block_h + ctx.range),
                 static_cast<uint32_t>(ctx.ref->stride()), false}});
        ctx.probe->record(uarch::KernelId::MotionSearchCtl,
                          state.candidates, state.decisions,
                          state.n_decisions);
        if (subpel_evals > 0) {
            ctx.probe->record(uarch::KernelId::SubpelInterp,
                              std::max<uint64_t>(1,
                                                 subpel_evals * area / 256));
        }
    }

    MeResult result;
    result.mv = state.best;
    result.cost = state.best_cost;
    result.sad = state.best_sad;
    result.candidates = state.candidates;
    return result;
}

} // namespace vbench::codec
