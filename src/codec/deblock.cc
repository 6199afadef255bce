#include "codec/deblock.h"

#include <algorithm>
#include <cstdlib>

#include "kernels/kernel_ops.h"

namespace vbench::codec {

namespace {

/** H.264 alpha threshold table indexed by QP. */
const uint8_t kAlpha[52] = {
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    4, 4, 5, 6, 7, 8, 9, 10, 12, 13, 15, 17, 20, 22, 25, 28,
    32, 36, 40, 45, 50, 56, 63, 71, 80, 90, 101, 113, 127, 144, 162, 182,
    203, 226, 255, 255,
};

/** H.264 beta threshold table indexed by QP. */
const uint8_t kBeta[52] = {
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 6, 6, 7, 7, 8, 8,
    9, 9, 10, 10, 11, 11, 12, 12, 13, 13, 14, 14, 15, 15, 16, 16,
    17, 17, 18, 18,
};

/**
 * Boundary strength between the macroblocks containing the two sides
 * of an edge: 2 across intra, 1 if residual was coded or motion
 * differs by a pixel or more, 0 (no filtering) otherwise.
 */
int
boundaryStrength(const MbInfo &p, const MbInfo &q)
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

/** Clip limit: grows with QP and strength. */
inline int
clipLimit(int qp, int bs)
{
    return 1 + (qp >> 3) + bs;
}

/**
 * The probe's decision bits: whether each vertical-edge sample with
 * bs != 0 passes the filter test, in x-major order, appended until 64
 * are recorded. Reads the plane before its vertical edges are
 * filtered, which is exact: edge x reads columns x-2..x+1 and writes
 * x-1 and x, and edges are 4 apart, so no vertical edge reads a
 * sample another one writes.
 */
void
recordVerticalDecisions(const video::Plane &plane, const MbGrid &grid,
                        int shift, uint64_t &decisions, int &n_decisions)
{
    const int w = plane.width();
    const int h = plane.height();
    for (int x = 4; x < w && n_decisions < 64; x += 4) {
        const int mbx_q = x >> shift;
        const int mbx_p = (x - 1) >> shift;
        for (int y = 0; y < h && n_decisions < 64; ++y) {
            const int mby = y >> shift;
            const MbInfo &p = grid.at(mbx_p, mby);
            const MbInfo &q = grid.at(mbx_q, mby);
            if (boundaryStrength(p, q) == 0)
                continue;
            const int qp = (p.qp + q.qp + 1) / 2;
            const uint8_t *s = plane.row(y) + x;
            const bool filtered = std::abs(s[-1] - s[0]) < kAlpha[qp] &&
                std::abs(s[-2] - s[-1]) < kBeta[qp] &&
                std::abs(s[1] - s[0]) < kBeta[qp];
            decisions |= static_cast<uint64_t>(filtered) << n_decisions;
            ++n_decisions;
        }
    }
}

/**
 * Deblock one plane. `shift` converts sample coordinates to luma
 * macroblock coordinates (4 for luma, 3 for chroma). With `record`
 * set, the plane's vertical-edge decisions are appended for the probe.
 */
void
deblockPlane(video::Plane &plane, const MbGrid &grid, int shift,
             bool record, uint64_t &edges, uint64_t &decisions,
             int &n_decisions)
{
    const int w = plane.width();
    const int h = plane.height();
    const int stride = plane.width();
    const kernels::KernelOps &k = kernels::ops();
    if (record && n_decisions < 64)
        recordVerticalDecisions(plane, grid, shift, decisions, n_decisions);

    // Vertical edges (filter across columns). No vertical edge reads
    // what another writes (see recordVerticalDecisions), so the order
    // is free: for a fixed edge column and macroblock row the p and q
    // macroblocks, hence bs and qp, are fixed, and each macroblock-tall
    // span is one kernel call.
    for (int x = 4; x < w; x += 4) {
        const int mbx_q = x >> shift;
        const int mbx_p = (x - 1) >> shift;
        for (int y = 0; y < h;) {
            const int mby = y >> shift;
            const int span_end = std::min(h, (mby + 1) << shift);
            const MbInfo &p = grid.at(mbx_p, mby);
            const MbInfo &q = grid.at(mbx_q, mby);
            const int bs = boundaryStrength(p, q);
            if (bs != 0) {
                const int qp = (p.qp + q.qp + 1) / 2;
                k.deblockEdgeV(plane.row(y) + x, stride, span_end - y,
                               kAlpha[qp], kBeta[qp], clipLimit(qp, bs));
                edges += static_cast<uint64_t>(span_end - y);
            }
            y = span_end;
        }
    }
    // Horizontal edges (filter across rows), after all vertical ones.
    // bs and qp are constant within a macroblock-wide span of the
    // edge, so each span is one vectorizable kernel call.
    for (int y = 4; y < h; y += 4) {
        const int mby_q = y >> shift;
        const int mby_p = (y - 1) >> shift;
        for (int x = 0; x < w;) {
            const int mbx = x >> shift;
            const int seg_end = std::min(w, (mbx + 1) << shift);
            const MbInfo &p = grid.at(mbx, mby_p);
            const MbInfo &q = grid.at(mbx, mby_q);
            const int bs = boundaryStrength(p, q);
            if (bs != 0) {
                const int qp = (p.qp + q.qp + 1) / 2;
                k.deblockEdgeH(&plane.at(x, y), stride, seg_end - x,
                               kAlpha[qp], kBeta[qp], clipLimit(qp, bs));
                edges += static_cast<uint64_t>(seg_end - x);
            }
            x = seg_end;
        }
    }
}

} // namespace

void
deblockFrame(video::Frame &recon, const MbGrid &grid,
             uarch::UarchProbe *probe)
{
    uint64_t edges = 0;
    uint64_t decisions = 0;
    int n_decisions = 0;
    const bool record = probe != nullptr;
    deblockPlane(recon.y(), grid, 4, record, edges, decisions, n_decisions);
    deblockPlane(recon.u(), grid, 3, record, edges, decisions, n_decisions);
    deblockPlane(recon.v(), grid, 3, record, edges, decisions, n_decisions);
    if (probe && edges > 0) {
        probe->record(uarch::KernelId::Deblock,
                      (edges + 15) / 16, decisions, n_decisions,
                      {uarch::MemRegion{recon.y().data(),
                                        static_cast<uint32_t>(
                                            recon.y().size()),
                                        1, 0, true}});
    }
}

} // namespace vbench::codec
