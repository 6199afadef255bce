/**
 * @file
 * Motion estimation: the searches must find known displacements, and
 * the exhaustive search must report exactly what a plain raster scan
 * computing every SAD reports.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <type_traits>
#include <utility>
#include <vector>

#include "codec/me.h"
#include "uarch/probe.h"
#include "video/rng.h"

namespace vbench::codec {
namespace {

using video::Plane;

/**
 * Textured plane whose SAD landscape is unimodal within the search
 * window: dominant low-frequency structure (period ~60 px, so no
 * aliases inside a +-16 px search) plus light noise for uniqueness.
 * Gradient-descent searches (diamond/hex) need this to be a fair test;
 * with real video they rely on MV predictors for the same reason.
 */
Plane
texturedPlane(int w, int h, uint64_t seed)
{
    video::Rng rng(seed);
    Plane p(w, h);
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x)
            p.at(x, y) = static_cast<uint8_t>(
                128 + 55 * std::sin(x * 0.105) + 45 * std::cos(y * 0.093) +
                rng.range(-4, 4));
    return p;
}

/** Shift a plane by (dx, dy) with edge clamping. */
Plane
shifted(const Plane &src, int dx, int dy)
{
    Plane out(src.width(), src.height());
    for (int y = 0; y < src.height(); ++y)
        for (int x = 0; x < src.width(); ++x)
            out.at(x, y) = src.atClamped(x - dx, y - dy);
    return out;
}

TEST(Sad, ZeroForIdenticalBlocks)
{
    const Plane p = texturedPlane(64, 64, 1);
    EXPECT_EQ(sadBlock(p.row(8) + 8, 64, p.row(8) + 8, 64, 16, 16), 0u);
}

TEST(Sad, MatchesManualComputation)
{
    const Plane a = texturedPlane(32, 32, 2);
    const Plane b = texturedPlane(32, 32, 3);
    uint32_t manual = 0;
    for (int r = 0; r < 8; ++r)
        for (int c = 0; c < 8; ++c)
            manual += std::abs(a.at(4 + c, 4 + r) - b.at(4 + c, 4 + r));
    EXPECT_EQ(sadBlock(a.row(4) + 4, 32, b.row(4) + 4, 32, 8, 8), manual);
}

TEST(MvBits, ZeroDeltaIsCheapest)
{
    const MotionVector pred{6, -4};
    const uint32_t zero_cost = mvBits(pred, pred);
    EXPECT_EQ(zero_cost, 2u);  // two 1-bit ue(0)
    EXPECT_GT(mvBits(MotionVector{20, 0}, pred), zero_cost);
}

/**
 * gtest names each case after the raw bytes of its parameter, so the
 * three bytes after the one-byte `kind` are a zeroed member rather
 * than implicit padding: uninitialized padding gave the cases a
 * different name from run to run.
 */
struct SearchCase {
    SearchCase(SearchKind k, int r, int x, int y)
        : kind(k), range(r), dx(x), dy(y)
    {
    }
    SearchKind kind;
    uint8_t zero[3] = {};
    int range;
    int dx, dy;  ///< true full-pel displacement
};
static_assert(std::has_unique_object_representations_v<SearchCase>,
              "SearchCase must have no padding bytes");

class SearchSweep : public ::testing::TestWithParam<SearchCase>
{
};

TEST_P(SearchSweep, RecoversTrueMotion)
{
    const SearchCase param = GetParam();
    const Plane ref_src = texturedPlane(128, 96, 44);
    // Current frame is the reference with content shifted by
    // (dx, dy): cur(x) = ref(x - dx), so the MV pointing from a
    // current block into the reference is exactly (-dx, -dy).
    const Plane cur = shifted(ref_src, param.dx, param.dy);
    const RefPlane ref(ref_src);

    MeContext me;
    me.src = &cur;
    me.ref = &ref;
    me.block_x = 48;
    me.block_y = 40;
    me.pred = MotionVector{0, 0};
    me.lambda = 1.0;
    me.kind = param.kind;
    me.range = param.range;
    me.subpel = false;
    const MeResult result = motionSearch(me);
    EXPECT_EQ(result.mv.x, -param.dx * 2);
    EXPECT_EQ(result.mv.y, -param.dy * 2);
    EXPECT_LT(result.sad, 16u * 16u * 2u);
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, SearchSweep,
    ::testing::Values(SearchCase{SearchKind::Full, 8, 5, -3},
                      SearchCase{SearchKind::Full, 8, -7, 6},
                      SearchCase{SearchKind::Diamond, 16, 3, 2},
                      SearchCase{SearchKind::Hex, 16, 6, -5},
                      SearchCase{SearchKind::Hex, 16, -9, 8},
                      SearchCase{SearchKind::Diamond, 16, 0, 0}));

TEST(MotionSearch, SubpelRefinementImprovesHalfPelShift)
{
    // Build a half-pel shifted current frame: cur(x) = avg(ref(x),
    // ref(x+1)) so the best match is at mv.x = +1 (half-pel).
    const Plane ref_src = texturedPlane(128, 96, 55);
    Plane cur(128, 96);
    for (int y = 0; y < 96; ++y)
        for (int x = 0; x < 128; ++x)
            cur.at(x, y) =
                static_cast<uint8_t>((ref_src.at(x, y) +
                                      ref_src.atClamped(x + 1, y) + 1) /
                                     2);
    const RefPlane ref(ref_src);

    MeContext me;
    me.src = &cur;
    me.ref = &ref;
    me.block_x = 48;
    me.block_y = 40;
    me.lambda = 1.0;
    me.kind = SearchKind::Hex;
    me.range = 16;

    me.subpel = false;
    const MeResult integer_only = motionSearch(me);
    me.subpel = true;
    const MeResult refined = motionSearch(me);
    EXPECT_LT(refined.sad, integer_only.sad);
    EXPECT_EQ(refined.mv.x, 1);
    EXPECT_EQ(refined.mv.y, 0);
}

TEST(MotionSearch, PredictorBiasBreaksTies)
{
    // On a flat frame every position has equal SAD; the cost model
    // must prefer the predictor.
    Plane flat(64, 64, 100);
    const RefPlane ref(flat);
    MeContext me;
    me.src = &flat;
    me.ref = &ref;
    me.block_x = 16;
    me.block_y = 16;
    me.pred = MotionVector{4, 4};
    me.lambda = 4.0;
    me.kind = SearchKind::Hex;
    me.range = 8;
    me.subpel = false;
    const MeResult result = motionSearch(me);
    // Zero MV and predictor both cost ~nothing in SAD; either is
    // acceptable, but cost must reflect mv bits.
    EXPECT_LE(mvBits(result.mv, me.pred), mvBits(MotionVector{16, 0},
                                                 me.pred));
}

TEST(MotionSearch, FullSearchNeverWorseThanHex)
{
    const Plane ref_src = texturedPlane(160, 128, 66);
    const Plane cur = shifted(ref_src, -6, 7);
    const RefPlane ref(ref_src);
    MeContext me;
    me.src = &cur;
    me.ref = &ref;
    me.block_x = 64;
    me.block_y = 48;
    me.lambda = 1.0;
    me.subpel = false;

    me.kind = SearchKind::Hex;
    me.range = 16;
    const MeResult hex = motionSearch(me);
    me.kind = SearchKind::Full;
    me.range = 10;
    const MeResult full = motionSearch(me);
    EXPECT_LE(full.cost, hex.cost);
    EXPECT_GT(full.candidates, hex.candidates);
}

TEST(Satd, ZeroForIdenticalBlocks)
{
    const Plane p = texturedPlane(64, 64, 21);
    EXPECT_EQ(satdBlock(p.row(8) + 8, 64, p.row(8) + 8, 64, 16, 16), 0u);
}

TEST(Satd, PenalizesStructuredResidualMoreThanSad)
{
    // A flat DC offset concentrates into one Hadamard coefficient —
    // cheap to code. A random-sign residual of the same SAD spreads
    // over all coefficients: SATD must charge it more. That transform
    // awareness is the reason the metric exists.
    video::Rng rng(31);
    Plane a(16, 16, 100);
    Plane dc(16, 16, 108);
    Plane noisy(16, 16);
    for (int y = 0; y < 16; ++y)
        for (int x = 0; x < 16; ++x)
            noisy.at(x, y) =
                static_cast<uint8_t>(100 + (rng.below(2) ? 8 : -8));
    const uint32_t sad_dc = sadBlock(a.data(), 16, dc.data(), 16, 16, 16);
    const uint32_t sad_noisy =
        sadBlock(a.data(), 16, noisy.data(), 16, 16, 16);
    EXPECT_EQ(sad_dc, sad_noisy);  // same SAD by construction
    const uint32_t satd_dc =
        satdBlock(a.data(), 16, dc.data(), 16, 16, 16);
    const uint32_t satd_noisy =
        satdBlock(a.data(), 16, noisy.data(), 16, 16, 16);
    EXPECT_GT(satd_noisy, 2 * satd_dc);
}

TEST(Satd, SubpelRefinementStillFindsHalfPelShift)
{
    const Plane ref_src = texturedPlane(128, 96, 57);
    Plane cur(128, 96);
    for (int y = 0; y < 96; ++y)
        for (int x = 0; x < 128; ++x)
            cur.at(x, y) =
                static_cast<uint8_t>((ref_src.at(x, y) +
                                      ref_src.atClamped(x + 1, y) + 1) /
                                     2);
    const RefPlane ref(ref_src);
    MeContext me;
    me.src = &cur;
    me.ref = &ref;
    me.block_x = 48;
    me.block_y = 40;
    me.lambda = 1.0;
    me.kind = SearchKind::Hex;
    me.range = 16;
    me.subpel = true;
    me.satd_subpel = true;
    const MeResult result = motionSearch(me);
    EXPECT_EQ(result.mv.x, 1);
    EXPECT_EQ(result.mv.y, 0);
}

/** Every (kernel, units, decisions) record a search reports. */
class RecordingProbe : public uarch::UarchProbe
{
  public:
    struct Record {
        uarch::KernelId id;
        uint64_t units;
        uint64_t decision_bits;
        int n_decisions;
    };
    std::vector<Record> records;

    using uarch::UarchProbe::record;
    void
    record(uarch::KernelId id, uint64_t units, uint64_t decision_bits,
           int n_decisions,
           std::initializer_list<uarch::MemRegion>) override
    {
        records.push_back({id, units, decision_bits, n_decisions});
    }
};

/** What the plain raster scan reports, including its branch record. */
struct RasterOutcome {
    MeResult result;
    uint64_t decisions = 0;
    int n_decisions = 0;
};

/**
 * The exhaustive search as a plain raster loop that computes every
 * visited position's SAD: the seeds, then the (2 range + 1)^2 window
 * around the clamped predictor, each position clamped into the MV
 * bounds, the current best skipped. No sub-pel refinement.
 */
RasterOutcome
rasterFullSearch(const MeContext &ctx)
{
    const int margin = kRefPad - 2;
    const int min_mx = -(ctx.block_x + margin);
    const int max_mx =
        ctx.ref->width() + margin - ctx.block_w - ctx.block_x;
    const int min_my = -(ctx.block_y + margin);
    const int max_my =
        ctx.ref->height() + margin - ctx.block_h - ctx.block_y;
    const uint8_t *src = ctx.src->row(ctx.block_y) + ctx.block_x;

    RasterOutcome out;
    MeResult &best = out.result;
    best.cost = UINT32_MAX;
    auto try_pel = [&](int mx, int my) {
        mx = clampInt(mx, min_mx, max_mx);
        my = clampInt(my, min_my, max_my);
        const MotionVector mv{static_cast<int16_t>(mx * 2),
                              static_cast<int16_t>(my * 2)};
        if (best.candidates > 0 && mv == best.mv)
            return;
        const uint32_t sad = sadBlock(
            src, ctx.src->width(),
            ctx.ref->ptr(ctx.block_x + mx, ctx.block_y + my),
            ctx.ref->stride(), ctx.block_w, ctx.block_h);
        ++best.candidates;
        const uint32_t cost = sad +
            static_cast<uint32_t>(ctx.lambda * mvBits(mv, ctx.pred) + 0.5);
        const bool improved = cost < best.cost;
        if (out.n_decisions < 64) {
            out.decisions |= static_cast<uint64_t>(improved)
                << out.n_decisions;
            ++out.n_decisions;
        }
        if (improved) {
            best.cost = cost;
            best.sad = sad;
            best.mv = mv;
        }
    };
    try_pel(0, 0);
    try_pel((ctx.pred.x + 1) / 2, (ctx.pred.y + 1) / 2);
    if (ctx.has_seed)
        try_pel((ctx.seed.x + 1) / 2, (ctx.seed.y + 1) / 2);
    const int cx = clampInt((ctx.pred.x + 1) / 2, min_mx, max_mx);
    const int cy = clampInt((ctx.pred.y + 1) / 2, min_my, max_my);
    for (int my = -ctx.range; my <= ctx.range; ++my)
        for (int mx = -ctx.range; mx <= ctx.range; ++mx)
            try_pel(cx + mx, cy + my);
    return out;
}

/** Search with subpel off and compare against the raster loop. */
void
expectMatchesRasterScan(MeContext me)
{
    me.kind = SearchKind::Full;
    me.subpel = false;
    RecordingProbe probe;
    me.probe = &probe;
    const RasterOutcome want = rasterFullSearch(me);
    const MeResult got = motionSearch(me);
    EXPECT_EQ(got.mv, want.result.mv);
    EXPECT_EQ(got.cost, want.result.cost);
    EXPECT_EQ(got.sad, want.result.sad);
    EXPECT_EQ(got.candidates, want.result.candidates);

    // The uarch model sees the raster scan's work and branch record.
    ASSERT_EQ(probe.records.size(), 2u);
    const RecordingProbe::Record &sad = probe.records[0];
    const RecordingProbe::Record &ctl = probe.records[1];
    EXPECT_EQ(sad.id, uarch::KernelId::Sad);
    EXPECT_EQ(sad.units,
              std::max<uint64_t>(1, uint64_t{want.result.candidates} *
                                        me.block_w * me.block_h / 256));
    EXPECT_EQ(ctl.id, uarch::KernelId::MotionSearchCtl);
    EXPECT_EQ(ctl.units, want.result.candidates);
    EXPECT_EQ(ctl.decision_bits, want.decisions);
    EXPECT_EQ(ctl.n_decisions, want.n_decisions);
}

TEST(MotionSearch, FullSearchMatchesRasterScanExactly)
{
    // Noise planes give weak quadrant bounds (most SADs computed);
    // shifted texture gives useful ones (most candidates eliminated). On
    // a ramp every residual block has one sign, so the bound equals the
    // SAD and candidates one cost unit apart meet at its edge.
    constexpr int kW = 96;
    constexpr int kH = 80;
    video::Rng rng(17);
    Plane noise_ref(kW, kH);
    Plane ramp_ref(kW, kH);
    for (int y = 0; y < kH; ++y) {
        for (int x = 0; x < kW; ++x) {
            noise_ref.at(x, y) = static_cast<uint8_t>(rng.below(256));
            ramp_ref.at(x, y) = static_cast<uint8_t>(20 + x + y);
        }
    }
    const Plane noise_cur = shifted(noise_ref, 3, -2);
    const Plane texture_ref = texturedPlane(kW, kH, 6);
    const Plane texture_cur = shifted(texture_ref, -5, 4);
    const Plane ramp_cur = shifted(ramp_ref, 2, 1);
    const RefPlane noise(noise_ref);
    const RefPlane texture(texture_ref);
    const RefPlane ramp(ramp_ref);
    const std::pair<const Plane *, const RefPlane *> planes[] = {
        {&noise_cur, &noise}, {&texture_cur, &texture},
        {&ramp_cur, &ramp}};

    for (const int bs : {8, 16, 32}) {
        const int xs[] = {0, (kW - bs) / 2, kW - bs};
        const int ys[] = {0, (kH - bs) / 2, kH - bs};
        for (const int range : {4, 8, 12, 64}) {
            for (const auto &[cur, ref] : planes) {
                for (const int by : ys) {
                    for (const int bx : xs) {
                        // Predictors pulling the window against each
                        // frame edge and corner, plus a nearby one.
                        const MotionVector pulls[] = {
                            {-512, 0}, {512, 0}, {0, -512}, {0, 512},
                            {-512, -512}, {512, 512},
                            {static_cast<int16_t>(rng.range(-20, 20)),
                             static_cast<int16_t>(rng.range(-20, 20))}};
                        for (const MotionVector pull : pulls) {
                            MeContext me;
                            me.src = cur;
                            me.ref = ref;
                            me.block_x = bx;
                            me.block_y = by;
                            me.block_w = bs;
                            me.block_h = bs;
                            me.pred = pull;
                            me.has_seed = rng.below(2) == 0;
                            me.seed = MotionVector{
                                static_cast<int16_t>(rng.range(-30, 30)),
                                static_cast<int16_t>(rng.range(-30, 30))};
                            me.lambda =
                                static_cast<double>(rng.below(4000)) / 100;
                            me.range = range;
                            SCOPED_TRACE(::testing::Message()
                                         << "bs=" << bs << " range=" << range
                                         << " block=(" << bx << "," << by
                                         << ") pred=(" << pull.x << ","
                                         << pull.y << ") lambda="
                                         << me.lambda);
                            expectMatchesRasterScan(me);
                        }
                    }
                }
            }
        }
    }
}

TEST(MotionSearch, ClampsNearFrameBorder)
{
    const Plane ref_src = texturedPlane(64, 64, 77);
    const Plane cur = shifted(ref_src, 30, 30);
    const RefPlane ref(ref_src);
    MeContext me;
    me.src = &cur;
    me.ref = &ref;
    me.block_x = 0;
    me.block_y = 0;
    me.lambda = 1.0;
    me.kind = SearchKind::Full;
    me.range = 60;  // would escape the pad without clamping
    me.subpel = true;
    const MeResult result = motionSearch(me);  // must not crash
    EXPECT_GT(result.candidates, 100u);
}

} // namespace
} // namespace vbench::codec
