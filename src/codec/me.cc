#include "codec/me.h"

#include <algorithm>
#include <vector>

#include "codec/golomb.h"
#include "codec/interp.h"
#include "kernels/kernel_ops.h"

namespace vbench::codec {

namespace {

/** Most candidates one search step scores: the square and the ring. */
constexpr int kMaxStep = 8;

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

    /** A full-pel candidate clamped into the bounds, in half-pel units. */
    MotionVector
    fullPel(int mx, int my) const
    {
        return MotionVector{
            static_cast<int16_t>(clampInt(mx, min_mx, max_mx) * 2),
            static_cast<int16_t>(clampInt(my, min_my, max_my) * 2)};
    }

    /** A half-pel candidate clamped into the bounds. */
    MotionVector
    halfPel(MotionVector mv) const
    {
        return MotionVector{
            static_cast<int16_t>(clampInt(mv.x, min_mx * 2, max_mx * 2)),
            static_cast<int16_t>(clampInt(mv.y, min_my * 2, max_my * 2))};
    }

    /**
     * Evaluate one search step's clamped candidates in order, updating
     * best: a full-pel candidate equal to the best is skipped once any
     * candidate has been counted, a half-pel one (scored in the sub-pel
     * metric) always. A candidate's cost depends only on its MV, so all
     * of them are scored first, four at a time, and then replayed
     * through consider() one by one, the skip rule reading the best the
     * earlier ones left. Where the clamp folds candidates onto each
     * other or onto the best, and where seeds repeat, a skipped
     * candidate's score goes unused; comparing MVs to avoid that cost
     * more than it saved.
     */
    void
    tryStep(const MotionVector *mvs, int n, bool half_pel)
    {
        BlockRef blocks[kMaxStep];
        uint8_t scratch[kMaxStep][32 * 32];  // max block any codec searches
        for (int i = 0; i < n; ++i)
            blocks[i] = compensatedBlock(*ctx.ref, ctx.block_x, ctx.block_y,
                                         mvs[i], ctx.block_w, ctx.block_h,
                                         scratch[i]);
        uint32_t dist[kMaxStep];
        distortions(blocks, n, half_pel && ctx.satd_subpel, dist);
        // Every cost first: they do not depend on each other, so only
        // the comparisons with the best remain in sequence.
        uint32_t cost[kMaxStep];
        for (int i = 0; i < n; ++i)
            cost[i] = dist[i] + rate(mvs[i]);
        for (int i = 0; i < n; ++i) {
            if ((half_pel || candidates > 0) && mvs[i] == best)
                continue;
            consider(mvs[i], dist[i], cost[i]);
        }
    }

    /**
     * Re-score the current best with SATD so integer and sub-pel
     * candidates compete in the same metric.
     */
    void
    rescoreWithSatd()
    {
        best_sad = distortion(best, true);
        best_cost = best_sad + rate(best);
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

    /**
     * SATD or SAD of the block against each of n blocks: four at a time
     * through the x4 kernels while the groups share a stride (a
     * reference without half-pel planes mixes plane and scratch
     * blocks), the rest one by one. A last group of one to three takes
     * single calls: an x4 SATD costs about three single ones
     * (bench_kernels).
     */
    void
    distortions(const BlockRef *blocks, int n, bool satd,
                uint32_t *out) const
    {
        const kernels::KernelOps &k = kernels::ops();
        int i = 0;
        for (; i + 4 <= n; i += 4) {
            const BlockRef *group = blocks + i;
            if (group[1].stride != group[0].stride ||
                group[2].stride != group[0].stride ||
                group[3].stride != group[0].stride)
                break;
            const uint8_t *const refs[4] = {group[0].data, group[1].data,
                                            group[2].data, group[3].data};
            (satd ? k.satdX4 : k.sadX4)(src_ptr, src_stride, refs,
                                        group[0].stride, ctx.block_w,
                                        ctx.block_h, out + i);
        }
        for (; i < n; ++i)
            out[i] = (satd ? k.satd : k.sad)(src_ptr, src_stride,
                                             blocks[i].data, blocks[i].stride,
                                             ctx.block_w, ctx.block_h);
    }

    /** The rate term of a candidate's cost: uint32(λ·bits + 0.5). */
    uint32_t
    rate(MotionVector mv) const
    {
        return static_cast<uint32_t>(ctx.lambda * mvBits(mv, ctx.pred) +
                                     0.5);
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
     * Count @p n candidates known not to beat the best, as consider()
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
/// The 3x3 square around a center, in raster order.
const int kSquare[8][2] = {
    {-1, -1}, {0, -1}, {1, -1}, {-1, 0}, {1, 0}, {-1, 1}, {0, 1}, {1, 1},
};

/**
 * Step a full-pel pattern around the best, one batch of candidates per
 * step, until a step leaves the best where it was or max_iters steps
 * have run.
 */
template <int N>
void
descend(SearchState &state, const int (&pattern)[N][2], int max_iters)
{
    static_assert(N <= kMaxStep);
    for (int iter = 0; iter < max_iters; ++iter) {
        const MotionVector center = state.best;
        MotionVector mvs[N];
        for (int i = 0; i < N; ++i)
            mvs[i] = state.fullPel(center.x / 2 + pattern[i][0],
                                   center.y / 2 + pattern[i][1]);
        state.tryStep(mvs, N, false);
        if (state.best == center)
            break;
    }
}

/**
 * Diamond or hexagon descent, then two rounds of 3x3 square
 * refinement. Axis-only patterns stall when the best position is
 * diagonally adjacent; the square pass fixes that, as in x264's
 * SQUARE/UMH endgames.
 */
template <int N>
void
patternSearch(SearchState &state, const int (&pattern)[N][2], int max_iters)
{
    descend(state, pattern, max_iters);
    descend(state, kSquare, 2);
}

/**
 * Exhaustive search. Visits exactly the positions of a raster scan over
 * the (2 range + 1)^2 window around the clamped predictor, in raster
 * order, each clamped into the MV bounds as fullPel() clamps it, the
 * current best skipped. One sadMap kernel call first computes the SAD
 * of every position of the clamped window; the scan then prices each
 * position with the rate term rate() would add, from one per-window
 * table, and applies consider()'s bookkeeping. A row that is not clamped
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

    // The rate term, exactly as rate() rounds it, by MV bits: a
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
    const MotionVector seeds[3] = {
        state.fullPel(0, 0),
        state.fullPel((ctx.pred.x + 1) / 2, (ctx.pred.y + 1) / 2),
        state.fullPel((ctx.seed.x + 1) / 2, (ctx.seed.y + 1) / 2)};
    state.tryStep(seeds, ctx.has_seed ? 3 : 2, false);

    switch (ctx.kind) {
      case SearchKind::Diamond:
        patternSearch(state, kSmallDiamond, ctx.range);
        break;
      case SearchKind::Hex:
        patternSearch(state, kHexagon, ctx.range);
        break;
      case SearchKind::Full:
        fullSearch(state);
        break;
    }

    uint32_t subpel_evals = 0;
    if (ctx.subpel) {
        if (ctx.satd_subpel)
            state.rescoreWithSatd();
        // The 8-position half-pel ring around the best, one batch per
        // round.
        for (int iter = 0; iter < ctx.subpel_iters; ++iter) {
            const MotionVector center = state.best;
            MotionVector ring[8];
            for (int i = 0; i < 8; ++i)
                ring[i] = state.halfPel(MotionVector{
                    static_cast<int16_t>(center.x + kSquare[i][0]),
                    static_cast<int16_t>(center.y + kSquare[i][1])});
            state.tryStep(ring, 8, true);
            subpel_evals += 8;
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
