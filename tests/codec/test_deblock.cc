/**
 * @file
 * In-loop deblocking filter unit tests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "codec/deblock.h"
#include "ngc/ngc_types.h"
#include "video/rng.h"

namespace vbench::codec {
namespace {

using video::Frame;
using video::Plane;

/** Frame with a hard vertical step at x = 8 in every plane. */
Frame
stepFrame(int w, int h, int left, int right)
{
    Frame f(w, h);
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x)
            f.y().at(x, y) = static_cast<uint8_t>(x < 8 ? left : right);
    return f;
}

MbGrid
uniformGrid(int cols, int rows, MbMode mode, bool coded, int qp)
{
    MbGrid grid(cols, rows);
    for (int mby = 0; mby < rows; ++mby) {
        for (int mbx = 0; mbx < cols; ++mbx) {
            MbInfo &info = grid.at(mbx, mby);
            info.mode = mode;
            info.coded = coded;
            info.qp = static_cast<uint8_t>(qp);
        }
    }
    return grid;
}

double
stepHeight(const Plane &p, int x, int y)
{
    return std::abs(p.at(x, y) - p.at(x - 1, y));
}

TEST(Deblock, SmoothsModerateBlockEdges)
{
    // A step of 24 at QP 36 is inside the alpha threshold: filtered.
    Frame f = stepFrame(32, 32, 100, 124);
    const double before = stepHeight(f.y(), 8, 10);
    MbGrid grid = uniformGrid(2, 2, MbMode::Intra, true, 36);
    deblockFrame(f, grid);
    EXPECT_LT(stepHeight(f.y(), 8, 10), before);
}

TEST(Deblock, PreservesRealEdges)
{
    // A step of 200 exceeds alpha at QP 30: a real image edge, not a
    // blocking artifact — must pass through untouched.
    Frame f = stepFrame(32, 32, 20, 220);
    MbGrid grid = uniformGrid(2, 2, MbMode::Intra, true, 30);
    deblockFrame(f, grid);
    EXPECT_EQ(stepHeight(f.y(), 8, 10), 200);
}

TEST(Deblock, SkipsUncodedStationaryBlocks)
{
    // Neither side coded, same MV, inter mode: boundary strength 0.
    Frame f = stepFrame(32, 32, 100, 124);
    MbGrid grid = uniformGrid(2, 2, MbMode::Skip, false, 36);
    deblockFrame(f, grid);
    EXPECT_EQ(stepHeight(f.y(), 8, 10), 24);
}

TEST(Deblock, MotionDifferenceTriggersFiltering)
{
    Frame f = stepFrame(32, 32, 100, 124);
    MbGrid grid = uniformGrid(2, 2, MbMode::Inter16, false, 36);
    // Give the right-hand macroblocks a different MV (>= 1 pixel).
    grid.at(1, 0).mv = MotionVector{4, 0};
    grid.at(1, 1).mv = MotionVector{4, 0};
    deblockFrame(f, grid);
    // Only the x = 16 macroblock boundary sees the MV difference; the
    // step at x = 8 is inside MB 0 and stays (uncoded).
    EXPECT_EQ(stepHeight(f.y(), 8, 10), 24);
}

TEST(Deblock, LowQpFiltersLess)
{
    Frame a = stepFrame(32, 32, 100, 112);
    Frame b = stepFrame(32, 32, 100, 112);
    MbGrid strong = uniformGrid(2, 2, MbMode::Intra, true, 44);
    MbGrid weak = uniformGrid(2, 2, MbMode::Intra, true, 16);
    deblockFrame(a, strong);
    deblockFrame(b, weak);
    // At QP 16 the thresholds are small: barely any change.
    EXPECT_LE(stepHeight(a.y(), 8, 10), stepHeight(b.y(), 8, 10));
}

TEST(Deblock, FiltersChromaPlanesToo)
{
    Frame f(32, 32);
    for (int y = 0; y < 16; ++y)
        for (int x = 0; x < 16; ++x)
            f.u().at(x, y) = static_cast<uint8_t>(x < 4 ? 100 : 120);
    MbGrid grid = uniformGrid(2, 2, MbMode::Intra, true, 36);
    deblockFrame(f, grid);
    EXPECT_LT(std::abs(f.u().at(4, 8) - f.u().at(3, 8)), 20);
}

TEST(Deblock, DeterministicAndIdempotentShape)
{
    video::Rng rng(8);
    Frame f(48, 48);
    for (int y = 0; y < 48; ++y)
        for (int x = 0; x < 48; ++x)
            f.y().at(x, y) = static_cast<uint8_t>(rng.below(256));
    Frame g = f;
    MbGrid grid = uniformGrid(3, 3, MbMode::Intra, true, 32);
    deblockFrame(f, grid);
    deblockFrame(g, grid);
    EXPECT_TRUE(f == g);
}

// ----- Per-sample reference ------------------------------------------
//
// A copy of deblockPlane as it was before vertical edges became one
// kernel call per macroblock-tall span: every sample of every vertical
// edge filtered in x-major order with its decision recorded inline,
// then the horizontal edges sample by sample.

const uint8_t kRefAlpha[52] = {
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    4, 4, 5, 6, 7, 8, 9, 10, 12, 13, 15, 17, 20, 22, 25, 28,
    32, 36, 40, 45, 50, 56, 63, 71, 80, 90, 101, 113, 127, 144, 162, 182,
    203, 226, 255, 255,
};

const uint8_t kRefBeta[52] = {
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 6, 6, 7, 7, 8, 8,
    9, 9, 10, 10, 11, 11, 12, 12, 13, 13, 14, 14, 15, 15, 16, 16,
    17, 17, 18, 18,
};

int
refStrength(const MbInfo &p, const MbInfo &q)
{
    if (p.mode == MbMode::Intra || q.mode == MbMode::Intra)
        return 2;
    if (p.coded || q.coded)
        return 1;
    if (p.ref != q.ref || std::abs(p.mv.x - q.mv.x) >= 2 ||
        std::abs(p.mv.y - q.mv.y) >= 2) {
        return 1;
    }
    return 0;
}

bool
refFilterSample(uint8_t *q0_ptr, int step, int qp, int bs)
{
    const int p1 = q0_ptr[-2 * step];
    const int p0 = q0_ptr[-step];
    const int q0 = q0_ptr[0];
    const int q1 = q0_ptr[step];
    if (std::abs(p0 - q0) >= kRefAlpha[qp] ||
        std::abs(p1 - p0) >= kRefBeta[qp] ||
        std::abs(q1 - q0) >= kRefBeta[qp]) {
        return false;
    }
    const int tc = 1 + (qp >> 3) + bs;
    const int delta =
        std::clamp(((q0 - p0) * 4 + (p1 - q1) + 4) >> 3, -tc, tc);
    q0_ptr[-step] = static_cast<uint8_t>(std::clamp(p0 + delta, 0, 255));
    q0_ptr[0] = static_cast<uint8_t>(std::clamp(q0 - delta, 0, 255));
    return true;
}

void
refDeblockPlane(Plane &plane, const MbGrid &grid, int shift,
                uint64_t &edges, uint64_t &decisions, int &n_decisions)
{
    const int w = plane.width();
    const int h = plane.height();
    for (int x = 4; x < w; x += 4) {
        for (int y = 0; y < h; ++y) {
            const MbInfo &p = grid.at((x - 1) >> shift, y >> shift);
            const MbInfo &q = grid.at(x >> shift, y >> shift);
            const int bs = refStrength(p, q);
            if (bs == 0)
                continue;
            const int qp = (p.qp + q.qp + 1) / 2;
            const bool filtered = refFilterSample(&plane.at(x, y), 1, qp, bs);
            ++edges;
            if (n_decisions < 64) {
                decisions |= static_cast<uint64_t>(filtered) << n_decisions;
                ++n_decisions;
            }
        }
    }
    for (int y = 4; y < h; y += 4) {
        for (int x = 0; x < w; ++x) {
            const MbInfo &p = grid.at(x >> shift, (y - 1) >> shift);
            const MbInfo &q = grid.at(x >> shift, y >> shift);
            const int bs = refStrength(p, q);
            if (bs == 0)
                continue;
            refFilterSample(&plane.at(x, y), w, (p.qp + q.qp + 1) / 2, bs);
            ++edges;
        }
    }
}

/** The Deblock record a frame produces: units, decision bits, count. */
struct DeblockRecord {
    int records = 0;
    uint64_t units = 0;
    uint64_t decisions = 0;
    int n_decisions = 0;

    bool
    operator==(const DeblockRecord &o) const
    {
        return records == o.records && units == o.units &&
            decisions == o.decisions && n_decisions == o.n_decisions;
    }
};

DeblockRecord
refDeblockFrame(Frame &f, const MbGrid &grid)
{
    uint64_t edges = 0;
    DeblockRecord rec;
    refDeblockPlane(f.y(), grid, 4, edges, rec.decisions, rec.n_decisions);
    refDeblockPlane(f.u(), grid, 3, edges, rec.decisions, rec.n_decisions);
    refDeblockPlane(f.v(), grid, 3, edges, rec.decisions, rec.n_decisions);
    if (edges > 0) {
        rec.records = 1;
        rec.units = (edges + 15) / 16;
    } else {
        rec.decisions = 0;
        rec.n_decisions = 0;
    }
    return rec;
}

class DeblockRecorder final : public uarch::UarchProbe
{
  public:
    void
    record(uarch::KernelId id, uint64_t units, uint64_t decision_bits,
           int n_decisions, std::initializer_list<uarch::MemRegion>) override
    {
        if (id != uarch::KernelId::Deblock)
            return;
        ++rec.records;
        rec.units = units;
        rec.decisions = decision_bits;
        rec.n_decisions = n_decisions;
    }
    using uarch::UarchProbe::record;

    DeblockRecord rec;
};

Frame
randomFrame(video::Rng &rng, int w, int h)
{
    Frame f(w, h);
    // Smooth-ish content so most edge tests pass, with random steps
    // so some fail.
    for (Plane *p : {&f.y(), &f.u(), &f.v()}) {
        int base = static_cast<int>(rng.below(256));
        for (int y = 0; y < p->height(); ++y) {
            for (int x = 0; x < p->width(); ++x) {
                if (rng.below(16) == 0)
                    base = static_cast<int>(rng.below(256));
                p->at(x, y) = static_cast<uint8_t>(
                    std::clamp(base + static_cast<int>(rng.range(-6, 6)), 0,
                               255));
            }
        }
    }
    return f;
}

MbGrid
randomGrid(video::Rng &rng, int cols, int rows)
{
    MbGrid grid(cols, rows);
    for (int mby = 0; mby < rows; ++mby) {
        for (int mbx = 0; mbx < cols; ++mbx) {
            MbInfo &info = grid.at(mbx, mby);
            info.mode = static_cast<MbMode>(rng.below(4));
            info.coded = rng.below(3) == 0;
            info.mv = MotionVector{static_cast<int16_t>(rng.range(-3, 3)),
                                   static_cast<int16_t>(rng.range(-3, 3))};
            info.ref = static_cast<int8_t>(rng.below(2));
            info.qp = static_cast<uint8_t>(rng.range(10, 51));
        }
    }
    return grid;
}

/** Deblock a copy both ways; pixels and the probe record must agree. */
void
expectMatchesReference(const Frame &frame, const MbGrid &grid,
                       const char *what)
{
    Frame want = frame;
    const DeblockRecord want_rec = refDeblockFrame(want, grid);
    Frame got = frame;
    DeblockRecorder probe;
    deblockFrame(got, grid, &probe);
    EXPECT_TRUE(want == got) << what;
    EXPECT_TRUE(want_rec == probe.rec)
        << what << ": units " << want_rec.units << " vs " << probe.rec.units
        << ", decisions " << want_rec.decisions << " vs "
        << probe.rec.decisions << ", count " << want_rec.n_decisions
        << " vs " << probe.rec.n_decisions;
    Frame unprobed = frame;
    deblockFrame(unprobed, grid);
    EXPECT_TRUE(want == unprobed) << what << " (no probe)";
}

TEST(Deblock, MatchesPerSampleReference)
{
    video::Rng rng(26);
    // VBC frame sizes (macroblock-aligned planes).
    for (const auto &[w, h] : {std::pair{16, 16}, std::pair{48, 32},
                               std::pair{176, 112}, std::pair{192, 128}}) {
        for (int trial = 0; trial < 3; ++trial) {
            const Frame f = randomFrame(rng, w, h);
            expectMatchesReference(f, randomGrid(rng, w / 16, h / 16),
                                   "vbc");
        }
    }
    // NGC: its 16x16 deblocking grid built from random 8x8 cells.
    for (int trial = 0; trial < 3; ++trial) {
        const int w = 96;
        const int h = 64;
        ngc::CellGrid cells(w / 8, h / 8);
        for (int cy = 0; cy < cells.rows(); ++cy) {
            for (int cx = 0; cx < cells.cols(); ++cx) {
                ngc::CellInfo &cell = cells.at(cx, cy);
                cell.mode = static_cast<ngc::CuMode>(rng.below(3));
                cell.coded = rng.below(3) == 0;
                cell.mv = MotionVector{
                    static_cast<int16_t>(rng.range(-3, 3)),
                    static_cast<int16_t>(rng.range(-3, 3))};
                cell.ref = static_cast<int8_t>(rng.below(2));
            }
        }
        const Frame f = randomFrame(rng, w, h);
        expectMatchesReference(
            f, ngc::deblockGrid(cells, static_cast<int>(rng.range(20, 45))),
            "ngc");
    }
    // Inter, uncoded, one MV per macroblock column: bs is 0 inside every
    // macroblock (x = 4 in luma), so the first 64 decisions come from
    // the x = 16 and later columns, in x-major order.
    {
        MbGrid grid = uniformGrid(6, 4, MbMode::Inter16, false, 40);
        for (int mby = 0; mby < 4; ++mby)
            for (int mbx = 0; mbx < 6; ++mbx)
                grid.at(mbx, mby).mv =
                    MotionVector{static_cast<int16_t>(4 * mbx), 0};
        const Frame f = randomFrame(rng, 96, 64);
        expectMatchesReference(f, grid, "bs 0 at x = 4");
    }
}

} // namespace
} // namespace vbench::codec
