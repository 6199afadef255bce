/**
 * @file
 * Motion-search bound tests: blocks flush against every frame edge,
 * with search ranges larger than the reference pad and predictors
 * pointing far outside the frame. The SearchState MV clamp must keep
 * every candidate — including the +1 half-pel taps — inside the
 * padded reference, and every half-pel candidate inside the samples
 * its half-pel planes hold. The sanitize build of this test turns any
 * escape into an ASan report instead of a silent wild read.
 */

#include <gtest/gtest.h>

#include "codec/interp.h"
#include "codec/me.h"
#include "codec/refplane.h"
#include "video/plane.h"
#include "video/rng.h"

namespace vbench::codec {
namespace {

video::Plane
randomPlane(int w, int h, uint64_t seed)
{
    video::Rng rng(seed);
    video::Plane p(w, h);
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x)
            p.at(x, y) = static_cast<uint8_t>(rng.below(256));
    return p;
}

/**
 * Search `ctx` on a reference with half-pel planes and on the same
 * reference without them: the winning MV must lie inside the search
 * clamp, both must agree, and compensating at the winner must read
 * inside the pad (ASan-checked in the sanitize build).
 */
void
expectSearchStaysInside(MeContext ctx, const RefPlane &ref,
                        const RefPlane &plain)
{
    // The search clamp keeps full-pel candidates within kRefPad - 2 of
    // the frame, so half-pel refinement (+1 sample) stays in the pad.
    const int margin = kRefPad - 2;
    const int bx = ctx.block_x;
    const int by = ctx.block_y;
    const int bs = ctx.block_w;
    ctx.ref = &ref;
    const MeResult r = motionSearch(ctx);
    EXPECT_GE(r.mv.x, 2 * (-(bx + margin)));
    EXPECT_LE(r.mv.x, 2 * (ref.width() + margin - bs - bx));
    EXPECT_GE(r.mv.y, 2 * (-(by + margin)));
    EXPECT_LE(r.mv.y, 2 * (ref.height() + margin - bs - by));
    EXPECT_GT(r.candidates, 0u);

    ctx.ref = &plain;
    const MeResult interpolated = motionSearch(ctx);
    EXPECT_EQ(r.mv, interpolated.mv);
    EXPECT_EQ(r.cost, interpolated.cost);
    EXPECT_EQ(r.candidates, interpolated.candidates);

    uint8_t out[32 * 32];
    motionCompensate(ref, bx, by, r.mv, bs, bs, out);
    uint8_t scratch[32 * 32];
    const BlockRef block = compensatedBlock(ref, bx, by, r.mv, bs, bs,
                                            scratch);
    EXPECT_EQ(sadBlock(block.data, block.stride, out, bs, bs, bs), 0u);
}

TEST(MeBounds, BlocksFlushAgainstEveryFrameEdge)
{
    constexpr int kW = 64;
    constexpr int kH = 48;
    const video::Plane cur = randomPlane(kW, kH, 21);
    const video::Plane prev = randomPlane(kW, kH, 22);
    // The same reference twice: one interpolating every half-pel
    // candidate, one reading them from its half-pel planes.
    const RefPlane plain(prev);
    RefPlane ref(prev);
    ref.buildHalfPel();

    const MotionVector pulls[] = {
        {-512, -512}, {512, -512}, {-512, 512}, {512, 512}, {0, 0}};

    // Every block size the codecs search, each scored four candidates
    // at a time in both sub-pel metrics.
    for (const int bs : {32, 16, 8}) {
        // Corners, mid-edges, and center: every way a block can touch
        // the frame boundary.
        const int xs[] = {0, (kW - bs) / 2, kW - bs};
        const int ys[] = {0, (kH - bs) / 2, kH - bs};
        for (const int by : ys) {
            for (const int bx : xs) {
                for (const auto kind : {SearchKind::Diamond,
                                        SearchKind::Hex,
                                        SearchKind::Full}) {
                    for (const MotionVector pull : pulls) {
                        for (const bool satd : {false, true}) {
                            MeContext ctx;
                            ctx.src = &cur;
                            ctx.block_x = bx;
                            ctx.block_y = by;
                            ctx.block_w = bs;
                            ctx.block_h = bs;
                            ctx.pred = pull;
                            ctx.lambda = 2.0;
                            ctx.kind = kind;
                            // Larger than kRefPad: unclamped candidates
                            // would walk off the padded buffer.
                            ctx.range = kRefPad + 16;
                            ctx.subpel = true;
                            ctx.subpel_iters = 2;
                            ctx.satd_subpel = satd;
                            expectSearchStaysInside(ctx, ref, plain);
                        }
                    }
                }
            }
        }
    }
}

} // namespace
} // namespace vbench::codec
