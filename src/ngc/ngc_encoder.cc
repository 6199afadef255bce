#include "ngc/ngc_encoder.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>

#include "codec/deblock.h"
#include "codec/interp.h"
#include "codec/me.h"
#include "codec/refplane.h"
#include "codec/syntax.h"
#include "codec/transform.h"
#include "kernels/kernel_ops.h"
#include "ngc/ngc_bitstream.h"
#include "ngc/ngc_intra.h"
#include "ngc/ngc_residual.h"
#include "ngc/transform8.h"
#include "obs/clock.h"
#include "obs/trace.h"

namespace vbench::ngc {

namespace {

using codec::ByteBuffer;
using codec::EncodeResult;
using codec::FrameStats;
using codec::FrameType;
using codec::MeContext;
using codec::MeResult;
using codec::MotionVector;
using codec::RefFrame;
using codec::SearchKind;
using codec::SyntaxWriter;
using uarch::KernelId;
using video::Frame;
using video::Plane;
using video::Video;

namespace ctx = codec::ctx;

/** Search/tool parameters resolved from (profile, speed). */
struct NgcTools {
    SearchKind search = SearchKind::Hex;
    int range = 16;
    bool subpel = true;
    int subpel_iters = 2;
    int refs = 2;
    int max_depth = 2;       ///< 0: SB only, 1: +16, 2: +8
    double lambda_scale = 1.0;
};

NgcTools
toolsFor(NgcProfile profile, int speed)
{
    NgcTools t;
    switch (std::clamp(speed, 0, 2)) {
      case 0:
        t.range = 32;
        t.subpel_iters = 3;
        t.refs = 3;
        t.max_depth = 2;
        break;
      case 1:
        t.range = 16;
        t.subpel_iters = 2;
        t.refs = 2;
        t.max_depth = 2;
        break;
      case 2:
        t.range = 8;
        t.subpel_iters = 1;
        t.refs = 1;
        t.max_depth = 1;
        break;
    }
    if (profile == NgcProfile::Vp9Like) {
        // VP9-like: even deeper search, slightly lower lambda (spends
        // bits for quality), exhaustive at the slowest speed.
        t.lambda_scale = 0.9;
        if (speed == 0) {
            t.search = SearchKind::Full;
            t.range = 8;
            t.refs = 3;
        }
    }
    return t;
}

/** One node of the partition plan. */
struct CuPlan {
    bool split = false;
    uint32_t cost = UINT32_MAX;
    MeResult me;
    int ref = 0;
    uint32_t inter_cost = UINT32_MAX;
    NgcIntraMode intra_mode = NgcIntraMode::Dc;
    uint32_t intra_cost = UINT32_MAX;
    int child[4] = {-1, -1, -1, -1};
};

/**
 * Everything the serial entropy pass needs about one analyzed leaf CU.
 * Residual levels live in the owning SbRecord's shared coefficient
 * vector (fixed per-leaf arrays sized for the worst case would cost
 * tens of megabytes per frame), consumed by a sequential cursor in the
 * exact order analysis appended them.
 */
struct LeafRecord {
    uint8_t size = 0;
    bool use_inter = false;
    bool skip = false;
    NgcIntraMode intra_mode = NgcIntraMode::Dc;
    MotionVector mv;
    MotionVector pred_mv;
    int8_t ref = 0;
    int32_t nonzero = 0;   ///< feeds the entropy decision hash
};

/**
 * Analyzed state of one superblock: the quadtree shape (pre-order
 * split flags), its leaves, and their residual levels. Produced —
 * possibly in parallel, in wavefront order — by analysis; replayed
 * strictly in raster order by the entropy pass, which is how the
 * arithmetic-coded stream stays byte-identical for every thread count.
 */
struct SbRecord {
    std::vector<uint8_t> splits;
    std::vector<LeafRecord> leaves;
    std::vector<int16_t> coeffs;

    void
    clear()
    {
        splits.clear();
        leaves.clear();
        coeffs.clear();
    }
};

/** Per-worker scratch: the CU plan arena and stage accumulator. */
struct NgcWorkerCtx {
    obs::StageAccum *acc = nullptr; ///< the slot's stage time when traced
    std::vector<CuPlan> arena;
};

/**
 * NGC's block policy for the shared frame pipeline: 32x32 superblocks
 * at wavefront lag 3 — the diagonal-down-left intra predictor reads
 * the top row out to x + 2*size, one full superblock past the
 * top-right neighbor plus its first column.
 */
class NgcPolicy final : public codec::BlockPolicy
{
  public:
    NgcPolicy(const NgcTools &tools, NgcProfile profile)
        : BlockPolicy(kSbSize, /*lag=*/3), tools_(tools), profile_(profile)
    {
    }

    void
    attach(const codec::PipelineLayout &layout,
           uarch::UarchProbe *probe) override
    {
        layout_ = &layout;
        probe_ = probe;
        padded_w_ = layout.padded_w;
        padded_h_ = layout.padded_h;
        sb_cols_ = layout.cols;
        wctx_ = std::vector<NgcWorkerCtx>(
            static_cast<size_t>(layout.threads));
        sb_records_.resize(static_cast<size_t>(layout.cols) * layout.rows);
    }

    void
    writeHeader(ByteBuffer &out,
                const codec::HeaderFields &common) const override
    {
        NgcStreamHeader header;
        static_cast<codec::HeaderFields &>(header) = common;
        header.profile = profile_;
        header.num_refs = static_cast<uint32_t>(tools_.refs);
        writeNgcHeader(out, header);
    }

    void
    beginFrame(const Frame &original, FrameType type, int qp) override
    {
        src_ = padFrame(original);
        type_ = type;
        if (type == FrameType::I)
            refs_.clear();
        recon_ = Frame(padded_w_, padded_h_);
        cells_ = CellGrid(padded_w_ / 8, padded_h_ / 8);
        qp_ = qp;
        lambda_sad_ = codec::sadLambda(qp) * tools_.lambda_scale;
    }

    void
    analyzeCell(int row, int col, int slot, obs::StageAccum *acc) override
    {
        NgcWorkerCtx &wc = wctx_[static_cast<size_t>(slot)];
        wc.acc = acc;
        analyzeSuperblock(col, row, type_, wc);
    }

    std::unique_ptr<SyntaxWriter>
    makeWriter(ByteBuffer &out) const override
    {
        return std::make_unique<codec::ArithSyntaxWriter>(
            out, nctx::kNumContexts);
    }

    void
    writeCell(int row, int col, SyntaxWriter &writer,
              codec::SliceState &slice) override
    {
        SbCursor cur;
        writeTree(record(row, col), cur, kSbSize, 0, type_, writer,
                  slice.stats);
    }

    KernelId
    entropyKernel() const override
    {
        return KernelId::EntropyArith;
    }

    uint64_t
    entropyDecisions(uint64_t hash, int row, int col) override
    {
        for (const LeafRecord &leaf : record(row, col).leaves)
            hash = hash * 0x9E3779B97F4A7C15ull +
                static_cast<uint64_t>(leaf.nonzero);
        return hash;
    }

    void
    finishFrame(obs::StageAccum *acc) override
    {
        {
            obs::ScopedStage db(acc, obs::Stage::Deblock);
            codec::deblockFrame(recon_, deblockGrid(cells_, qp_), probe_);
        }
        obs::ScopedStage setup(acc, obs::Stage::FrameSetup);
        codec::pushReference(refs_, recon_, tools_.refs);
    }

  private:
    SbRecord &
    record(int sby, int sbx)
    {
        return sb_records_[static_cast<size_t>(sby) * sb_cols_ + sbx];
    }

    /** Top pixel row of the slice holding luma row `y`. */
    int
    sliceTopPx(int y) const
    {
        return layout_->slice_top_row[static_cast<size_t>(y / kSbSize)] *
            kSbSize;
    }

    Frame
    padFrame(const Frame &src) const
    {
        Frame out(padded_w_, padded_h_);
        video::padPlaneInto(src.y(), out.y());
        video::padPlaneInto(src.u(), out.u());
        video::padPlaneInto(src.v(), out.v());
        if (probe_) {
            probe_->record(KernelId::FrameCopy, out.pixelCount() / 64);
        }
        return out;
    }

    // ----- Superblock analysis (wavefront-parallel) ------------------

    void
    analyzeSuperblock(int sbx, int sby, FrameType type, NgcWorkerCtx &wc)
    {
        SbRecord &rec = record(sby, sbx);
        rec.clear();
        int root;
        {
            obs::ScopedStage ps(wc.acc, obs::Stage::PartitionSearch);
            wc.arena.clear();
            root = planCu(sbx * kSbSize, sby * kSbSize, kSbSize, 0, type,
                          wc);
        }
        analyzeTree(root, sbx * kSbSize, sby * kSbSize, kSbSize, type, wc,
                    rec);
    }

    // ----- Partition planning ---------------------------------------

    /** Plan a CU; returns the arena index. Costs are SAD-domain. */
    int
    planCu(int x, int y, int size, int depth, FrameType type,
           NgcWorkerCtx &wc)
    {
        std::vector<CuPlan> &arena = wc.arena;
        const int idx = static_cast<int>(arena.size());
        arena.emplace_back();

        // Spatial prediction stops at the slice boundary: intra treats
        // the slice-top row like the frame edge and the cell MV
        // predictor ignores neighbors above it, so every slice decodes
        // with no cross-slice state.
        const int slice_top_px = sliceTopPx(y);
        // Intra estimate on the current reconstruction state.
        const uint32_t intra_tried =
            bestIntra(x, y, size, slice_top_px, type, arena[idx].intra_mode,
                      arena[idx].intra_cost);
        if (probe_ && intra_tried > 0)
            probe_->record(KernelId::IntraPredict,
                           intra_tried * size * size / 256 + 1);

        if (type == FrameType::P && !refs_.empty()) {
            const MotionVector pred_mv =
                cellMvPredictor(cells_, x / 8, y / 8, slice_top_px / 8);
            // CUs on a slice-head row lose their top neighbors for
            // rate prediction; peek across the boundary for a search
            // seed only (encoder-side, never in the bitstream). CUs
            // below the head — and everything at slice_count == 1 —
            // get no seed, so single-slice streams stay bit-identical.
            MotionVector seed_mv;
            bool has_seed = false;
            if (slice_top_px > 0 && y == slice_top_px) {
                seed_mv = cellMvPredictor(cells_, x / 8, y / 8, 0);
                has_seed = seed_mv.x != pred_mv.x ||
                    seed_mv.y != pred_mv.y;
            }
            for (int r = 0;
                 r < static_cast<int>(refs_.size()) && r < tools_.refs;
                 ++r) {
                MeContext me;
                me.src = &src_.y();
                me.ref = &refs_[r].y;
                me.block_x = x;
                me.block_y = y;
                me.block_w = size;
                me.block_h = size;
                me.pred = pred_mv;
                me.seed = seed_mv;
                me.has_seed = has_seed;
                me.lambda = lambda_sad_;
                me.kind = tools_.search;
                me.range = tools_.range;
                me.subpel = tools_.subpel;
                me.subpel_iters = tools_.subpel_iters;
                me.satd_subpel = true;  // next-gen: always SATD subpel
                me.probe = probe_;
                const MeResult res = codec::motionSearch(me);
                CuPlan &node = arena[idx];
                const uint32_t cost = res.cost +
                    static_cast<uint32_t>(lambda_sad_ * (r == 0 ? 1 : 3));
                if (cost < node.inter_cost) {
                    node.inter_cost = cost;
                    node.me = res;
                    node.ref = r;
                }
            }
        }

        {
            CuPlan &node = arena[idx];
            node.cost = std::min(node.intra_cost, node.inter_cost);
        }

        const int max_size_for_depth =
            kSbSize >> tools_.max_depth;  // smallest allowed leaf
        if (size > kMinCu && size > max_size_for_depth) {
            const int half = size / 2;
            int children[4];
            uint32_t split_cost =
                static_cast<uint32_t>(lambda_sad_ * 6);  // tree overhead
            for (int q = 0; q < 4; ++q) {
                children[q] = planCu(x + (q & 1) * half,
                                     y + (q >> 1) * half, half, depth + 1,
                                     type, wc);
                split_cost += arena[children[q]].cost;
            }
            CuPlan &node = arena[idx];
            if (split_cost < node.cost) {
                node.split = true;
                node.cost = split_cost;
                for (int q = 0; q < 4; ++q)
                    node.child[q] = children[q];
            }
            if (probe_)
                probe_->record(KernelId::ModeDecision, 2,
                               node.split ? 1 : 0, 1);
        }
        return idx;
    }

    /**
     * Lower `cost` / `mode` to the cheapest available intra predictor
     * of the CU: SATD plus a mode-rate bias, and a P-frame penalty.
     * Returns the number of modes tried.
     */
    uint32_t
    bestIntra(int x, int y, int size, int slice_top_px, FrameType type,
              NgcIntraMode &mode, uint32_t &cost) const
    {
        uint8_t pred[kSbSize * kSbSize];
        uint32_t tried = 0;
        for (int m = 0; m < kNgcIntraModes; ++m) {
            const NgcIntraMode candidate = static_cast<NgcIntraMode>(m);
            if (!ngcIntraAvailable(candidate, x, y, slice_top_px))
                continue;
            ngcIntraPredict(candidate, recon_.y(), x, y, size, pred,
                            slice_top_px);
            ++tried;
            const uint32_t sad = codec::satdBlock(
                src_.y().row(y) + x, padded_w_, pred, size, size, size);
            const uint32_t c = sad +
                static_cast<uint32_t>(lambda_sad_ * 8) +
                (type == FrameType::P ? sad / 4 : 0);
            if (c < cost) {
                cost = c;
                mode = candidate;
            }
        }
        return tried;
    }

    // ----- Leaf analysis --------------------------------------------

    void
    analyzeTree(int idx, int x, int y, int size, FrameType type,
                NgcWorkerCtx &wc, SbRecord &rec)
    {
        const CuPlan &node = wc.arena[idx];
        if (size > kMinCu)
            rec.splits.push_back(node.split ? 1 : 0);
        if (node.split) {
            const int half = size / 2;
            for (int q = 0; q < 4; ++q) {
                analyzeTree(node.child[q], x + (q & 1) * half,
                            y + (q >> 1) * half, half, type, wc, rec);
            }
            return;
        }
        analyzeLeaf(node, x, y, size, type, wc, rec);
    }

    void
    analyzeLeaf(const CuPlan &node, int x, int y, int size, FrameType type,
                NgcWorkerCtx &wc, SbRecord &rec)
    {
        if (probe_)
            probe_->record(KernelId::Dispatch, size * size / 256 + 1);

        const int slice_top_px = sliceTopPx(y);
        const MotionVector pred_mv =
            cellMvPredictor(cells_, x / 8, y / 8, slice_top_px / 8);
        const bool inter_valid =
            type == FrameType::P && node.inter_cost != UINT32_MAX;

        // Re-evaluate intra against the true reconstruction (the plan
        // estimate may have used stale in-SB neighbors).
        NgcIntraMode intra_mode = NgcIntraMode::Dc;
        uint32_t intra_cost = UINT32_MAX;
        {
            obs::ScopedStage intra_stage(wc.acc,
                                         obs::Stage::IntraDecision);
            bestIntra(x, y, size, slice_top_px, type, intra_mode,
                      intra_cost);
        }

        const bool use_inter =
            inter_valid && node.inter_cost <= intra_cost;
        if (probe_)
            probe_->record(KernelId::ModeDecision, 2, use_inter ? 1 : 0,
                           1);

        // Predictions and residuals. Declarations stay outside the
        // timing scope; the reconstruction and record sections below
        // consume them.
        uint8_t pred_y[kSbSize * kSbSize];
        uint8_t pred_u[16 * 16];
        uint8_t pred_v[16 * 16];
        const int csize = size / 2;
        const int cx = x / 2;
        const int cy = y / 2;
        MotionVector mv{};
        int ref = 0;
        const bool intra = !use_inter;
        const int tus = size / 8;
        // Chroma uses hierarchical TUs when the chroma CU is at least 8
        // wide, plain 4x4 otherwise.
        const int ctus = csize >= 8 ? csize / 8 : 0;
        int16_t levels[kMaxCuLevels];  // coding order (ngc_residual.h)
        int16_t *lv = levels;
        int nonzero = 0;
        // Manual start/stop (no early return below) keeps the large
        // prediction+residual section at its natural indentation.
        const uint64_t tq_start = wc.acc ? obs::nowNs() : 0;
        if (use_inter) {
            mv = node.me.mv;
            ref = node.ref;
            codec::predictInter(refs_[ref].y, x, y, size, 1, &mv, 0, pred_y);
            codec::predictInter(refs_[ref].u, cx, cy, csize, 1, &mv, 1,
                                pred_u);
            codec::predictInter(refs_[ref].v, cx, cy, csize, 1, &mv, 1,
                                pred_v);
        } else {
            ngcIntraPredictCu(intra_mode, recon_, x, y, size, slice_top_px,
                              pred_y, pred_u, pred_v);
        }

        // Residuals.
        for (int ty = 0; ty < tus; ++ty) {
            for (int tx = 0; tx < tus; ++tx) {
                int16_t residual[64];
                kernels::ops().diffBlock(
                    src_.y().row(y + ty * 8) + x + tx * 8,
                    src_.y().width(), pred_y + ty * 8 * size + tx * 8,
                    size, residual, 8, 8, 8);
                nonzero +=
                    forwardTransform8x8(residual, lv, lv + 4, qp_, intra);
                lv += kTuLevels;
            }
        }

        for (int plane = 0; plane < 2; ++plane) {
            const Plane &splane = plane == 0 ? src_.u() : src_.v();
            const uint8_t *pred_c = plane == 0 ? pred_u : pred_v;
            if (ctus > 0) {
                for (int ty = 0; ty < ctus; ++ty) {
                    for (int tx = 0; tx < ctus; ++tx) {
                        int16_t residual[64];
                        kernels::ops().diffBlock(
                            splane.row(cy + ty * 8) + cx + tx * 8,
                            splane.width(),
                            pred_c + ty * 8 * csize + tx * 8, csize,
                            residual, 8, 8, 8);
                        nonzero += forwardTransform8x8(
                            residual, lv, lv + 4, qp_, intra);
                        lv += kTuLevels;
                    }
                }
            } else {
                int16_t residual[16];
                kernels::ops().diffBlock(splane.row(cy) + cx,
                                         splane.width(), pred_c, 4,
                                         residual, 4, 4, 4);
                int32_t coefs[16];
                codec::forwardTransform4x4(residual, coefs);
                nonzero += codec::quantize4x4(coefs, lv, qp_, intra);
                lv += 16;
            }
        }
        if (probe_) {
            probe_->record(KernelId::TransformFwd,
                           static_cast<uint64_t>(size) * size / 16 + 8);
            probe_->record(KernelId::Quant,
                           static_cast<uint64_t>(size) * size / 16 + 8,
                           nonzero != 0, 1);
        }
        if (wc.acc)
            wc.acc->add(obs::Stage::TransformQuant,
                        obs::nowNs() - tq_start);

        const bool coded = nonzero != 0;
        const bool skip = use_inter && ref == 0 && mv == pred_mv && !coded;

        // --- Record for the serial entropy pass. ---
        LeafRecord leaf;
        leaf.size = static_cast<uint8_t>(size);
        leaf.use_inter = use_inter;
        leaf.skip = skip;
        leaf.intra_mode = intra_mode;
        leaf.mv = mv;
        leaf.pred_mv = pred_mv;
        leaf.ref = static_cast<int8_t>(ref);
        leaf.nonzero = nonzero;
        rec.leaves.push_back(leaf);
        if (!skip)
            rec.coeffs.insert(rec.coeffs.end(), levels, lv);

        // --- Reconstruction. ---
        {
            obs::ScopedStage recon(wc.acc, obs::Stage::Reconstruct);
            const int inv_blocks =
                reconstructCu(recon_, x, y, size, qp_, pred_y, pred_u,
                              pred_v, skip ? nullptr : levels);
            if (probe_ && inv_blocks > 0) {
                probe_->record(KernelId::Dequant, inv_blocks * 4);
                probe_->record(KernelId::TransformInv, inv_blocks * 4);
                probe_->record(
                    KernelId::Reconstruct,
                    static_cast<uint64_t>(size) * size / 16,
                    static_cast<uint64_t>(inv_blocks), 6,
                    {uarch::MemRegion{recon_.y().row(y) + x,
                                      static_cast<uint32_t>(size),
                                      static_cast<uint32_t>(size),
                                      static_cast<uint32_t>(padded_w_),
                                      true}});
            }
        }

        // --- Cell state. ---
        cells_.fill(x, y, size,
                    CellInfo{skip ? CuMode::Skip
                                  : (use_inter ? CuMode::Inter
                                               : CuMode::Intra),
                             use_inter ? mv : MotionVector{},
                             static_cast<int8_t>(ref), coded});
    }

    // ----- Serial entropy pass --------------------------------------

    /** Cursors into one SbRecord during replay. */
    struct SbCursor {
        size_t split = 0;
        size_t leaf = 0;
        size_t coeff = 0;
    };

    /**
     * Replay one analyzed quadtree in the exact traversal order the
     * analysis recorded it. The only raster-order coder state — the
     * arithmetic contexts, frame stats, and the entropy hash — is
     * touched here, which is what makes the stream thread-count
     * invariant.
     */
    void
    writeTree(const SbRecord &rec, SbCursor &cur, int size, int depth,
              FrameType type, SyntaxWriter &writer, FrameStats &stats)
    {
        bool split = false;
        if (size > kMinCu) {
            split = rec.splits[cur.split++] != 0;
            writer.bit(split ? 1 : 0, nctx::kSplit + std::min(depth, 1));
        }
        if (split) {
            for (int q = 0; q < 4; ++q)
                writeTree(rec, cur, size / 2, depth + 1, type, writer,
                          stats);
            return;
        }
        writeLeaf(rec, cur, type, writer, stats);
    }

    void
    writeLeaf(const SbRecord &rec, SbCursor &cur, FrameType type,
              SyntaxWriter &writer, FrameStats &stats)
    {
        const LeafRecord &leaf = rec.leaves[cur.leaf++];
        if (type == FrameType::P)
            writer.bit(leaf.skip ? 1 : 0, nctx::kSkip);
        if (!leaf.skip) {
            if (type == FrameType::P)
                writer.bit(leaf.use_inter ? 1 : 0, nctx::kIsInter);
            if (leaf.use_inter) {
                if (tools_.refs > 1)
                    writer.ue(static_cast<uint32_t>(leaf.ref),
                              ctx::kRefIdx, 2);
                writer.se(leaf.mv.x - leaf.pred_mv.x, ctx::kMvX, 4);
                writer.se(leaf.mv.y - leaf.pred_mv.y, ctx::kMvY, 4);
            } else {
                writer.ue(static_cast<int>(leaf.intra_mode),
                          nctx::kIntraMode, 3);
            }
            writeCuLevels(writer, leaf.size, rec.coeffs.data() + cur.coeff);
            cur.coeff += static_cast<size_t>(cuLevelCount(leaf.size));
        } else {
            ++stats.skip_mbs;
        }
        if (!leaf.use_inter)
            ++stats.intra_mbs;
    }

    NgcTools tools_;
    NgcProfile profile_;
    const codec::PipelineLayout *layout_ = nullptr;
    uarch::UarchProbe *probe_ = nullptr;
    int padded_w_ = 0;
    int padded_h_ = 0;
    int sb_cols_ = 0;

    std::vector<NgcWorkerCtx> wctx_;
    std::vector<SbRecord> sb_records_;
    Frame src_;
    FrameType type_ = FrameType::I;
    Frame recon_;
    CellGrid cells_;
    std::deque<RefFrame> refs_;
    int qp_ = 26;
    double lambda_sad_ = 1.0;
};

} // namespace

NgcEncoder::NgcEncoder(const NgcConfig &config) : config_(config) {}

namespace {

/**
 * The frame pipeline with NGC's policy: the configured speed for the
 * coding pass, the fastest speed for the two-pass analysis pass.
 */
codec::FramePipeline
ngcPipeline(const NgcConfig &config)
{
    const NgcProfile profile = config.profile;
    const NgcTools tools = toolsFor(profile, config.speed);
    return codec::FramePipeline(
        config, obs::Track::NgcEncode,
        [profile, tools](bool first_pass) {
            return std::make_unique<NgcPolicy>(
                first_pass ? toolsFor(profile, 2) : tools, profile);
        });
}

} // namespace

codec::PassOneStats
collectNgcPassOneStats(const NgcConfig &config, const video::Video &source)
{
    return ngcPipeline(config).passOneStats(source);
}

EncodeResult
NgcEncoder::encode(const video::Video &source)
{
    return ngcPipeline(config_).encode(source);
}

} // namespace vbench::ngc
