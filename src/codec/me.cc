#include "codec/me.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
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

    /** Cost of a half-pel candidate (interpolating); updates best. */
    void
    tryHalfPel(MotionVector mv)
    {
        mv.x = static_cast<int16_t>(
            clampInt(mv.x, min_mx * 2, max_mx * 2));
        mv.y = static_cast<int16_t>(
            clampInt(mv.y, min_my * 2, max_my * 2));
        if (mv == best)
            return;
        uint8_t temp[32 * 32];  // max block any codec searches
        motionCompensate(*ctx.ref, ctx.block_x, ctx.block_y, mv,
                         ctx.block_w, ctx.block_h, temp);
        const uint32_t distortion = ctx.satd_subpel
            ? satdBlock(src_ptr, src_stride, temp, ctx.block_w,
                        ctx.block_w, ctx.block_h)
            : sadBlock(src_ptr, src_stride, temp, ctx.block_w,
                       ctx.block_w, ctx.block_h);
        finish(mv, distortion);
    }

    /**
     * Re-score the current best with SATD so integer and sub-pel
     * candidates compete in the same metric.
     */
    void
    rescoreWithSatd()
    {
        uint8_t temp[32 * 32];
        motionCompensate(*ctx.ref, ctx.block_x, ctx.block_y, best,
                         ctx.block_w, ctx.block_h, temp);
        best_sad = satdBlock(src_ptr, src_stride, temp, ctx.block_w,
                             ctx.block_w, ctx.block_h);
        best_cost = best_sad +
            static_cast<uint32_t>(ctx.lambda * mvBits(best, ctx.pred) +
                                  0.5);
    }

    void
    finish(MotionVector mv, uint32_t sad)
    {
        ++candidates;
        const uint32_t bits = mvBits(mv, ctx.pred);
        const uint32_t cost =
            sad + static_cast<uint32_t>(ctx.lambda * bits + 0.5);
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

/** |a - b| of two pixel sums (both below 2^31). */
inline uint32_t
absDiff(uint32_t a, uint32_t b)
{
    return static_cast<uint32_t>(std::abs(static_cast<int32_t>(a - b)));
}

/**
 * Exhaustive search by successive elimination. Visits exactly the
 * positions of a raster scan over the (2 range + 1)^2 window around the
 * clamped predictor, in raster order, each clamped into the MV bounds
 * as tryFullPel clamps it, the current best skipped. Before any SAD is
 * computed, one sliding-window pass over the clamped window gives every
 * position the pixel sums of the reference block's four quadrants. By
 * the triangle inequality SAD >= sum over quadrants of |src quadrant
 * sum - ref quadrant sum|, so a candidate whose bound plus the rate
 * term finish() would add already reaches the best cost cannot win: it
 * is counted as finish() would count it, but its SAD is never
 * computed. The winner, its cost, the candidate count and the
 * branch-model decisions are those of the plain raster scan.
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

    // Quadrants tile the block's even-sized core; for an odd size the
    // last row/column is simply left out of the bound.
    const int qw = ctx.block_w / 2;
    const int qh = ctx.block_h / 2;

    // quad[v * tw + u]: sum of the qw x qh reference area whose top-left
    // is window offset (u, v); quadrant (i, j) of candidate (x, y) sits
    // at offset (x - x0 + i qw, y - y0 + j qh). cols holds the running
    // qh-row sums of each reference column. The pass reads exactly the
    // pixels the window's SADs would read. cost_floor is one row's bound
    // plus rate per column. All scratch is sized from the clamped
    // window.
    const int tw = columns + qw;
    const int th = y1 - y0 + 1 + qh;
    const int span = tw + qw - 1;
    std::vector<uint32_t> scratch(static_cast<size_t>(tw) * th + span +
                                  2 * static_cast<size_t>(columns));
    uint32_t *quad = scratch.data();
    uint32_t *cols = quad + static_cast<size_t>(tw) * th;
    uint32_t *column_bits = cols + span;
    uint32_t *cost_floor = column_bits + columns;

    const int ref_stride = ctx.ref->stride();
    const uint8_t *window =
        ctx.ref->ptr(ctx.block_x + x0, ctx.block_y + y0);
    for (int r = 0; r < qh; ++r)
        for (int c = 0; c < span; ++c)
            cols[c] += window[r * ref_stride + c];
    for (int v = 0; v < th; ++v) {
        if (v > 0) {
            const uint8_t *leaving = window + (v - 1) * ref_stride;
            const uint8_t *entering = leaving + qh * ref_stride;
            for (int c = 0; c < span; ++c)
                cols[c] += entering[c] - leaving[c];
        }
        uint32_t *out = quad + static_cast<size_t>(v) * tw;
        uint32_t sum = 0;
        for (int c = 0; c < qw; ++c)
            sum += cols[c];
        out[0] = sum;
        for (int u = 1; u < tw; ++u) {
            sum += cols[u + qw - 1] - cols[u - 1];
            out[u] = sum;
        }
    }

    uint32_t src_quad[4] = {0, 0, 0, 0};
    for (int r = 0; r < 2 * qh; ++r)
        for (int c = 0; c < 2 * qw; ++c)
            src_quad[(r >= qh) * 2 + (c >= qw)] +=
                state.src_ptr[r * state.src_stride + c];

    // The rate term, exactly as finish() rounds it, by MV bits: a
    // column part plus a row part. se() bits grow with the magnitude,
    // so the window's corners bound the sum.
    const auto col_bits = [&](int x) { return seBits(2 * x - ctx.pred.x); };
    const auto row_bits = [&](int y) { return seBits(2 * y - ctx.pred.y); };
    std::vector<uint32_t> rate(std::max(col_bits(x0), col_bits(x1)) +
                               std::max(row_bits(y0), row_bits(y1)) + 1);
    for (size_t bits = 0; bits < rate.size(); ++bits)
        rate[bits] = static_cast<uint32_t>(
            ctx.lambda * static_cast<uint32_t>(bits) + 0.5);
    for (int u = 0; u < columns; ++u)
        column_bits[u] = col_bits(x0 + u);

    for (int my = -ctx.range; my <= ctx.range; ++my) {
        const int y = clampInt(cy + my, state.min_my, state.max_my);
        const uint32_t *top = quad + static_cast<size_t>(y - y0) * tw;
        const uint32_t *bottom = top + static_cast<size_t>(qh) * tw;
        const uint32_t *row_rate = rate.data() + row_bits(y);
        for (int u = 0; u < columns; ++u) {
            cost_floor[u] = absDiff(src_quad[0], top[u]) +
                absDiff(src_quad[1], top[u + qw]) +
                absDiff(src_quad[2], bottom[u]) +
                absDiff(src_quad[3], bottom[u + qw]) +
                row_rate[column_bits[u]];
        }
        // Rejections are tallied locally and flushed, in order, before
        // the next evaluation. The seeds were evaluated first, so the
        // raster scan's best-skip guard (candidates > 0) always holds.
        uint32_t rejected = 0;
        for (int mx = -ctx.range; mx <= ctx.range; ++mx) {
            const int x = clampInt(cx + mx, state.min_mx, state.max_mx);
            if (MotionVector{static_cast<int16_t>(x * 2),
                             static_cast<int16_t>(y * 2)} == state.best)
                continue;
            if (cost_floor[x - x0] >= state.best_cost) {
                ++rejected;
                continue;
            }
            state.countRejected(rejected);
            rejected = 0;
            state.evaluateFullPel(x, y);
        }
        state.countRejected(rejected);
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
