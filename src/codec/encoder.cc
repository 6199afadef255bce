#include "codec/encoder.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>

#include "codec/bitstream.h"
#include "codec/deblock.h"
#include "codec/interp.h"
#include "codec/intra.h"
#include "codec/mbinfo.h"
#include "codec/me.h"
#include "codec/recon.h"
#include "codec/refplane.h"
#include "codec/residual.h"
#include "codec/syntax.h"
#include "codec/transform.h"
#include "kernels/kernel_ops.h"
#include "obs/trace.h"

namespace vbench::codec {

namespace {

using uarch::KernelId;
using uarch::MemRegion;
using video::Frame;
using video::Plane;
using video::Video;

/** Pad a frame to macroblock-aligned dimensions by edge replication. */
Frame
padFrame(const Frame &src, int padded_w, int padded_h,
         uarch::UarchProbe *probe)
{
    Frame out(padded_w, padded_h);
    video::padPlaneInto(src.y(), out.y());
    video::padPlaneInto(src.u(), out.u());
    video::padPlaneInto(src.v(), out.v());
    if (probe) {
        probe->record(KernelId::FrameCopy, out.pixelCount() / 64, 0, 0,
                      {MemRegion{src.y().data(),
                                 static_cast<uint32_t>(src.y().size()), 1,
                                 0, false}});
    }
    return out;
}

/**
 * Cheap scene-change detector: subsampled mean absolute luma
 * difference between consecutive source frames. Runs on the source, so
 * both two-pass passes and any instrumented re-run make the identical
 * decision.
 */
bool
isSceneCut(const Frame &current, const Frame &previous)
{
    const Plane &a = current.y();
    const Plane &b = previous.y();
    int64_t sum = 0;
    int64_t count = 0;
    for (int y = 0; y < a.height(); y += 4) {
        const uint8_t *ra = a.row(y);
        const uint8_t *rb = b.row(y);
        for (int x = 0; x < a.width(); x += 4) {
            sum += std::abs(ra[x] - rb[x]);
            ++count;
        }
    }
    // A hard cut replaces essentially every pixel; gradual motion
    // rarely exceeds a mean difference of ~20.
    return count > 0 && sum > 28 * count;
}

/** Fixed-capacity candidate description for one macroblock mode. */
struct ModeCandidate {
    MbMode mode = MbMode::Intra;
    MotionVector mv[4];     ///< partition MVs (1 used for Inter16)
    int ref = 0;
    IntraMode luma_mode = IntraMode::Dc;
    uint32_t est_cost = UINT32_MAX;  ///< SAD + lambda * bit estimate
    bool is_skip_seed = false;       ///< the predictor/skip candidate
};

/**
 * Everything the serial entropy pass needs about one analyzed
 * macroblock. Rows of these are produced (possibly in parallel, in
 * wavefront order) by analysis and consumed strictly in raster order
 * by the writer, which is how the bitstream stays byte-identical for
 * every thread count.
 */
struct MbRecord {
    ModeCandidate cand;
    IntraMode chroma_mode = IntraMode::Dc;
    MotionVector pred_mv;
    int qp = 0;            ///< final macroblock QP (AQ applied)
    bool skip = false;     ///< collapsed to the one-bit skip flag
    bool coded = false;    ///< any nonzero residual
    int nonzero = 0;       ///< nonzero transform blocks (entropy hash)
    int16_t levels_y[16 * 16];
    int16_t levels_u[4 * 16];
    int16_t levels_v[4 * 16];
};

/**
 * Per-worker scratch arena: everything a row analysis mutates that is
 * not the shared frame state. One per wavefront slot, reused across
 * every macroblock and frame, so the hot loop performs no allocation
 * at any thread count (the RD trial plane used to be allocated per
 * trial).
 */
struct WorkerCtx {
    obs::StageAccum *acc = nullptr; ///< the slot's stage time when traced
    Plane rd_scratch;               ///< 16x16 RD trial reconstruction
    uint8_t pred_y[kMbSize * kMbSize];
    uint8_t pred_u[8 * 8];
    uint8_t pred_v[8 * 8];

    WorkerCtx() : rd_scratch(kMbSize, kMbSize) {}
};

/** Variance of a 16x16 luma block (adaptive quantization energy). */
double
mbVariance(const Plane &plane, int x, int y)
{
    int64_t sum = 0;
    int64_t sum2 = 0;
    for (int r = 0; r < kMbSize; ++r) {
        const uint8_t *row = plane.row(y + r) + x;
        for (int c = 0; c < kMbSize; ++c) {
            sum += row[c];
            sum2 += row[c] * row[c];
        }
    }
    const double n = kMbSize * kMbSize;
    const double mean = sum / n;
    return std::max(0.0, sum2 / n - mean * mean);
}

/**
 * VBC's block policy for the shared frame pipeline: 16x16 macroblocks
 * at wavefront lag 2 — row r may trail row r-1 by 2 macroblocks, which
 * covers every dependency the analysis consumes (intra prediction
 * reads the reconstructed top row and left column; the MV predictor
 * reads the left, top, and top-right MbInfo).
 */
class VbcPolicy final : public BlockPolicy
{
  public:
    explicit VbcPolicy(const ToolPreset &tools)
        : BlockPolicy(kMbSize, /*lag=*/2), tools_(tools)
    {
    }

    void
    attach(const PipelineLayout &layout, uarch::UarchProbe *probe) override
    {
        layout_ = &layout;
        probe_ = probe;
        padded_w_ = layout.padded_w;
        padded_h_ = layout.padded_h;
        mb_cols_ = layout.cols;
        mb_rows_ = layout.rows;
        wctx_ = std::vector<WorkerCtx>(static_cast<size_t>(layout.threads));
    }

    void
    writeHeader(ByteBuffer &out, const HeaderFields &common) const override
    {
        StreamHeader header;
        static_cast<HeaderFields &>(header) = common;
        header.entropy = tools_.entropy;
        header.deblock = tools_.deblock;
        header.adaptive_quant = tools_.adaptive_quant;
        header.num_refs = static_cast<uint32_t>(tools_.refs);
        writeStreamHeader(out, header);
    }

    bool
    sceneCut(const Video &source, int index) const override
    {
        return tools_.scenecut &&
            isSceneCut(source.frame(index), source.frame(index - 1));
    }

    void
    beginFrame(const Frame &original, FrameType type, int qp) override
    {
        src_ = padFrame(original, padded_w_, padded_h_, probe_);
        type_ = type;
        frame_qp_ = qp;
        if (type == FrameType::I)
            refs_.clear();
        else if (tools_.subpel)
            buildHalfPelPlanes(refs_);
        recon_ = Frame(padded_w_, padded_h_);
        grid_ = MbGrid(mb_cols_, mb_rows_);
        records_.resize(static_cast<size_t>(mb_cols_) * mb_rows_);
        // Adaptive-quant pre-pass: per-MB activity vs average.
        if (tools_.adaptive_quant)
            computeAqOffsets(src_, qp);
    }

    void
    analyzeCell(int row, int col, int slot, obs::StageAccum *acc) override
    {
        WorkerCtx &wc = wctx_[static_cast<size_t>(slot)];
        wc.acc = acc;
        analyzeMacroblock(src_, type_, frame_qp_, col, row, wc);
    }

    std::unique_ptr<SyntaxWriter>
    makeWriter(ByteBuffer &out) const override
    {
        if (tools_.entropy == EntropyMode::Arith)
            return std::make_unique<ArithSyntaxWriter>(out);
        return std::make_unique<VlcSyntaxWriter>(out);
    }

    void
    writeCell(int row, int col, SyntaxWriter &writer,
              SliceState &slice) override
    {
        writeMacroblock(record(row, col), type_, col, row, writer,
                        slice.stats, slice.last_qp);
    }

    KernelId
    entropyKernel() const override
    {
        return tools_.entropy == EntropyMode::Arith ? KernelId::EntropyArith
                                                    : KernelId::EntropyVlc;
    }

    uint64_t
    entropyDecisions(uint64_t hash, int row, int col) override
    {
        // Skip MBs contribute no coefficients.
        const MbRecord &rec = record(row, col);
        return rec.skip ? hash
                        : hash * 0x9E3779B97F4A7C15ull +
                static_cast<uint64_t>(rec.nonzero);
    }

    void
    finishFrame(obs::StageAccum *acc) override
    {
        if (tools_.deblock) {
            obs::ScopedStage db(acc, obs::Stage::Deblock);
            deblockFrame(recon_, grid_, probe_);
        }
        obs::ScopedStage setup(acc, obs::Stage::FrameSetup);
        pushReference(refs_, recon_, tools_.refs);
    }

  private:
    MbRecord &
    record(int mby, int mbx)
    {
        return records_[static_cast<size_t>(mby) * mb_cols_ + mbx];
    }

    /** First MB row of `mby`'s slice: spatial prediction stops there. */
    int
    sliceTop(int mby) const
    {
        return layout_->slice_top_row[static_cast<size_t>(mby)];
    }

    void
    computeAqOffsets(const Frame &src, int frame_qp)
    {
        aq_offsets_.assign(static_cast<size_t>(mb_cols_) * mb_rows_, 0);
        std::vector<double> log_var(aq_offsets_.size());
        double avg = 0;
        for (int mby = 0; mby < mb_rows_; ++mby) {
            for (int mbx = 0; mbx < mb_cols_; ++mbx) {
                const double v =
                    mbVariance(src.y(), mbx * kMbSize, mby * kMbSize);
                log_var[mby * mb_cols_ + mbx] = std::log2(v + 1.0);
                avg += log_var[mby * mb_cols_ + mbx];
            }
        }
        avg /= log_var.size();
        for (size_t i = 0; i < log_var.size(); ++i) {
            const double strength = 0.8;
            int off = static_cast<int>(
                std::lround(strength * (log_var[i] - avg)));
            off = clampInt(off, -4, 4);
            // Keep the offset inside the QP range.
            off = clampInt(off, kMinQp - frame_qp, kMaxQp - frame_qp);
            aq_offsets_[i] = static_cast<int8_t>(off);
        }
    }

    // ----- Macroblock analysis (wavefront-parallel) ------------------

    void
    analyzeMacroblock(const Frame &src, FrameType type, int frame_qp,
                      int mbx, int mby, WorkerCtx &wc)
    {
        const int x = mbx * kMbSize;
        const int y = mby * kMbSize;
        int qp_mb = frame_qp;
        if (tools_.adaptive_quant)
            qp_mb = clampInt(frame_qp + aq_offsets_[mby * mb_cols_ + mbx],
                             kMinQp, kMaxQp);
        const double lambda = sadLambda(qp_mb);

        if (probe_)
            probe_->record(KernelId::Dispatch, 1);

        // Spatial prediction stops at the slice boundary: the MV
        // predictor ignores neighbors above the slice head and intra
        // treats the slice-top row like the frame edge, so every slice
        // decodes (and its bits parse) with no cross-slice state.
        const int slice_top = sliceTop(mby);
        const MotionVector pred_mv = mvPredictor(grid_, mbx, mby,
                                                 slice_top);

        // At a slice head the rate predictor must act as if the frame
        // started, but the motion didn't: without help the pattern
        // search walks from (0,0) on every boundary MB. Peek across
        // the boundary for a search seed only — it never enters the
        // bitstream, so decode semantics are untouched, and interior
        // rows (all rows when slice_count == 1) get no seed, keeping
        // the single-slice encode bit-identical.
        MotionVector search_seed;
        bool has_search_seed = false;
        if (slice_top > 0 && mby == slice_top) {
            search_seed = mvPredictor(grid_, mbx, mby, 0);
            has_search_seed = search_seed.x != pred_mv.x ||
                search_seed.y != pred_mv.y;
        }

        // The MV any skip-flavored candidate may use: the predictor,
        // clamped into the legal compensation range for this block
        // (identity in the overwhelmingly common case).
        const MotionVector skip_mv = clampMvForBlock(
            pred_mv, x, y, kMbSize, kMbSize, padded_w_, padded_h_);

        // The skip prediction, read in place (or interpolated once) for
        // both the early-skip check and the skip candidate below.
        uint8_t skip_scratch[kMbSize * kMbSize];
        BlockRef skip_pred{};
        const uint8_t *src_mb = src.y().row(y) + x;

        // --- Early skip: static content drops out immediately. ---
        if (type == FrameType::P && !refs_.empty()) {
            bool early_skip;
            {
                obs::ScopedStage me_stage(wc.acc,
                                          obs::Stage::MotionEstimation);
                skip_pred = compensatedBlock(refs_[0].y, x, y, skip_mv,
                                             kMbSize, kMbSize, skip_scratch);
                const uint32_t skip_sad =
                    sadBlock(src_mb, padded_w_, skip_pred.data,
                             skip_pred.stride, kMbSize, kMbSize);
                const uint32_t threshold = static_cast<uint32_t>(
                    (160 + 24 * qp_mb) * tools_.early_skip_scale);
                early_skip = skip_sad < threshold;
            }
            if (early_skip) {
                ModeCandidate cand;
                cand.mode = MbMode::Inter16;
                cand.mv[0] = skip_mv;
                cand.ref = 0;
                finalizeMacroblock(src, type, cand, qp_mb, mbx, mby, wc,
                                   pred_mv);
                return;
            }
        }

        // --- Candidate generation. ---
        ModeCandidate candidates[4];
        int n_candidates = 0;

        if (type == FrameType::P && !refs_.empty()) {
            obs::ScopedStage me_stage(wc.acc,
                                      obs::Stage::MotionEstimation);
            // The skip/predictor candidate always competes: without it
            // a searched MV with marginal residual wins on SAD but
            // loses on rate, bloating high-effort encodes.
            {
                // Same distortion metric as the motion search's final
                // scoring, or the candidates are not comparable.
                const uint32_t sad = tools_.satd_subpel
                    ? satdBlock(src_mb, padded_w_, skip_pred.data,
                                skip_pred.stride, kMbSize, kMbSize)
                    : sadBlock(src_mb, padded_w_, skip_pred.data,
                               skip_pred.stride, kMbSize, kMbSize);
                ModeCandidate skip_cand;
                skip_cand.mode = MbMode::Inter16;
                skip_cand.mv[0] = skip_mv;
                skip_cand.ref = 0;
                skip_cand.est_cost =
                    sad + static_cast<uint32_t>(lambda * 1);
                skip_cand.is_skip_seed = true;
                candidates[n_candidates++] = skip_cand;
            }
            // INTER16: search every allowed reference.
            ModeCandidate inter16;
            inter16.mode = MbMode::Inter16;
            for (int r = 0;
                 r < static_cast<int>(refs_.size()) && r < tools_.refs;
                 ++r) {
                MeContext me;
                me.src = &src.y();
                me.ref = &refs_[r].y;
                me.block_x = x;
                me.block_y = y;
                me.pred = pred_mv;
                me.seed = search_seed;
                me.has_seed = has_search_seed;
                me.lambda = lambda;
                me.kind = tools_.search;
                me.range = tools_.range;
                me.subpel = tools_.subpel;
                me.subpel_iters = tools_.subpel_iters;
                me.satd_subpel = tools_.satd_subpel;
                me.probe = probe_;
                const MeResult res = motionSearch(me);
                const uint32_t ref_bits = r == 0 ? 1 : 3;
                const uint32_t cost = res.cost +
                    static_cast<uint32_t>(lambda * ref_bits);
                if (cost < inter16.est_cost) {
                    inter16.est_cost = cost;
                    inter16.mv[0] = res.mv;
                    inter16.ref = r;
                }
            }
            candidates[n_candidates++] = inter16;

            // INTER8: four 8x8 partitions on the winning reference.
            if (tools_.inter8) {
                ModeCandidate inter8;
                inter8.mode = MbMode::Inter8;
                inter8.ref = inter16.ref;
                uint32_t total = 0;
                for (int part = 0; part < 4; ++part) {
                    MeContext me;
                    me.src = &src.y();
                    me.ref = &refs_[inter8.ref].y;
                    me.block_x = x + (part & 1) * 8;
                    me.block_y = y + (part >> 1) * 8;
                    me.block_w = 8;
                    me.block_h = 8;
                    me.pred = pred_mv;
                    me.seed = search_seed;
                    me.has_seed = has_search_seed;
                    me.lambda = lambda;
                    me.kind = tools_.search;
                    me.range = std::max(4, tools_.range / 2);
                    me.subpel = tools_.subpel;
                    me.subpel_iters = tools_.subpel_iters;
                    me.satd_subpel = tools_.satd_subpel;
                    me.probe = probe_;
                    const MeResult res = motionSearch(me);
                    inter8.mv[part] = res.mv;
                    total += res.cost;
                }
                inter8.est_cost =
                    total + static_cast<uint32_t>(lambda * 4);
                candidates[n_candidates++] = inter8;
            }
        }

        // INTRA: evaluate the enabled predictors on the luma block.
        {
            obs::ScopedStage intra_stage(wc.acc,
                                         obs::Stage::IntraDecision);
            ModeCandidate intra;
            intra.mode = MbMode::Intra;
            uint8_t pred_buf[kMbSize * kMbSize];
            uint32_t tried = 0;
            const int top_px = slice_top * kMbSize;
            for (int m = 0; m < tools_.intra_modes; ++m) {
                const IntraMode mode = static_cast<IntraMode>(m);
                if (!intraModeAvailable(mode, x, y, top_px))
                    continue;
                intraPredict(mode, recon_.y(), x, y, kMbSize, pred_buf,
                             top_px);
                ++tried;
                const uint32_t sad = tools_.satd_subpel
                    ? satdBlock(src.y().row(y) + x, padded_w_, pred_buf,
                                kMbSize, kMbSize, kMbSize)
                    : sadBlock(src.y().row(y) + x, padded_w_, pred_buf,
                               kMbSize, kMbSize, kMbSize);
                // Intra residuals cost more bits than inter at equal
                // SAD; bias keeps P frames from going intra-happy.
                const uint32_t cost = sad +
                    static_cast<uint32_t>(lambda * 6) +
                    (type == FrameType::P ? sad / 4 : 0);
                if (cost < intra.est_cost) {
                    intra.est_cost = cost;
                    intra.luma_mode = mode;
                }
            }
            if (probe_ && tried > 0)
                probe_->record(KernelId::IntraPredict, tried);
            candidates[n_candidates++] = intra;
        }

        // --- Selection: heuristic or RD trial on the leaders. ---
        int chosen = 0;
        {
            obs::ScopedStage md_stage(wc.acc, obs::Stage::ModeDecision);
            std::sort(candidates, candidates + n_candidates,
                      [](const ModeCandidate &a, const ModeCandidate &b) {
                          return a.est_cost < b.est_cost;
                      });
            if (tools_.rdo > 0 && n_candidates > 1) {
                // The skip seed always earns a trial: its rate advantage
                // is invisible to the SAD-based pre-sort.
                int trials =
                    std::min(n_candidates, tools_.rdo >= 2 ? 3 : 2);
                for (int i = trials; i < n_candidates; ++i) {
                    if (candidates[i].is_skip_seed) {
                        std::swap(candidates[trials - 1], candidates[i]);
                        break;
                    }
                }
                double best_rd = 1e30;
                uint64_t decisions = 0;
                for (int i = 0; i < trials; ++i) {
                    const double rd = rdCostLuma(
                        src, candidates[i], qp_mb, x, y,
                        candidateOverheadBits(candidates[i], pred_mv,
                                              type),
                        wc);
                    decisions |= static_cast<uint64_t>(rd < best_rd) << i;
                    if (rd < best_rd) {
                        best_rd = rd;
                        chosen = i;
                    }
                }
                if (probe_)
                    probe_->record(KernelId::ModeDecision, trials,
                                   decisions, trials);
            } else if (probe_) {
                probe_->record(KernelId::ModeDecision, n_candidates,
                               chosen == 0 ? 1 : 0, n_candidates);
            }
        }

        finalizeMacroblock(src, type, candidates[chosen], qp_mb, mbx, mby,
                           wc, pred_mv);
    }

    /** Syntax bits a candidate pays before any residual is coded. */
    static uint32_t
    candidateOverheadBits(const ModeCandidate &cand, MotionVector pred_mv,
                          FrameType type)
    {
        if (type == FrameType::P && cand.is_skip_seed)
            return 1;  // likely collapses to the skip flag
        uint32_t bits = type == FrameType::P ? 2 : 0;  // skip + mode
        switch (cand.mode) {
          case MbMode::Skip:
            return 1;
          case MbMode::Inter16:
            bits += mvBits(cand.mv[0], pred_mv) + (cand.ref != 0 ? 3 : 1);
            break;
          case MbMode::Inter8:
            for (int part = 0; part < 4; ++part)
                bits += mvBits(cand.mv[part], pred_mv);
            bits += 1 + (cand.ref != 0 ? 3 : 1);
            break;
          case MbMode::Intra:
            bits += 4;  // luma + chroma mode bits
            break;
        }
        return bits;
    }

    /** Luma-only rate-distortion trial of a candidate. */
    double
    rdCostLuma(const Frame &src, const ModeCandidate &cand, int qp, int x,
               int y, uint32_t overhead_bits, WorkerCtx &wc)
    {
        uint8_t pred[kMbSize * kMbSize];
        buildLumaPrediction(cand, x, y, pred);
        int16_t levels[16 * 16];
        quantizeResidual(src.y(), pred, x, y, kMbSize, qp,
                         cand.mode == MbMode::Intra, levels);

        CountingSyntaxWriter counter;
        for (int b = 0; b < 16; ++b)
            writeResidualBlock(counter, levels + b * 16, true);

        // Distortion of the true reconstruction, into the worker's
        // reusable trial plane (reconstructBlock overwrites every
        // pixel of the 16x16 region).
        Plane &scratch = wc.rd_scratch;
        reconstructBlock(scratch, 0, 0, kMbSize, pred, levels, qp);
        double ssd = 0;
        for (int r = 0; r < kMbSize; ++r) {
            const uint8_t *s = src.y().row(y + r) + x;
            for (int c = 0; c < kMbSize; ++c) {
                const double d = static_cast<double>(s[c]) -
                    scratch.at(c, r);
                ssd += d * d;
            }
        }
        // Slightly inflated lambda keeps high-effort RDO from buying
        // PSNR with bits (it must *compress* better at iso-QP, which
        // is what the effort ladder promises).
        return ssd + 1.8 * rdLambda(qp) *
            (counter.bitsWritten() + overhead_bits);
    }

    void
    buildLumaPrediction(const ModeCandidate &cand, int x, int y,
                        uint8_t *pred)
    {
        if (cand.mode == MbMode::Intra)
            intraPredict(cand.luma_mode, recon_.y(), x, y, kMbSize, pred,
                         sliceTop(y / kMbSize) * kMbSize);
        else
            predictInter(refs_[cand.ref].y, x, y, kMbSize, partitions(cand),
                         cand.mv, 0, pred);
    }

    /** Chroma prediction for one plane (8x8). */
    void
    buildChromaPrediction(const ModeCandidate &cand, IntraMode chroma_mode,
                          bool u_plane, int cx, int cy, uint8_t *pred)
    {
        if (cand.mode == MbMode::Intra) {
            const Plane &recon_plane = u_plane ? recon_.u() : recon_.v();
            intraPredict(chroma_mode, recon_plane, cx, cy, 8, pred,
                         sliceTop(cy / 8) * 8);
            return;
        }
        predictInter(u_plane ? refs_[cand.ref].u : refs_[cand.ref].v, cx,
                     cy, 8, partitions(cand), cand.mv, 1, pred);
    }

    static int
    partitions(const ModeCandidate &cand)
    {
        return cand.mode == MbMode::Inter8 ? 4 : 1;
    }

    /**
     * Transform+quantize the n x n residual at (x, y) of `plane` (16
     * luma, 8 chroma) into its (n/4)^2 level blocks.
     */
    int
    quantizeResidual(const Plane &plane, const uint8_t *pred, int x, int y,
                     int n, int qp, bool intra, int16_t *levels)
    {
        const int nonzero = kernels::ops().quantBlock(
            plane.row(y) + x, plane.width(), pred, n, n, qp, intra, levels);
        if (probe_) {
            const uint64_t blocks = static_cast<uint64_t>(n / 4) * (n / 4);
            probe_->record(KernelId::TransformFwd, blocks);
            probe_->record(KernelId::Quant, blocks,
                           static_cast<uint64_t>(nonzero != 0), 1);
        }
        return nonzero;
    }

    /**
     * Final analysis of the chosen candidate: chroma mode, residuals,
     * the skip decision, reconstruction, neighbor-visible MbInfo, and
     * the MbRecord the serial entropy pass will consume.
     */
    void
    finalizeMacroblock(const Frame &src, FrameType type,
                       const ModeCandidate &cand, int qp_mb, int mbx,
                       int mby, WorkerCtx &wc, MotionVector pred_mv)
    {
        const int x = mbx * kMbSize;
        const int y = mby * kMbSize;
        const int cx = mbx * 8;
        const int cy = mby * 8;
        const bool intra = cand.mode == MbMode::Intra;
        MbRecord &rec = record(mby, mbx);

        // Chroma intra mode: best summed SAD over U and V.
        IntraMode chroma_mode = IntraMode::Dc;
        if (intra) {
            obs::ScopedStage intra_stage(wc.acc,
                                         obs::Stage::IntraDecision);
            uint32_t best = UINT32_MAX;
            uint8_t pu[64], pv[64];
            const int ctop = sliceTop(mby) * 8;
            for (int m = 0; m < tools_.intra_modes; ++m) {
                const IntraMode mode = static_cast<IntraMode>(m);
                if (!intraModeAvailable(mode, cx, cy, ctop))
                    continue;
                intraPredict(mode, recon_.u(), cx, cy, 8, pu, ctop);
                intraPredict(mode, recon_.v(), cx, cy, 8, pv, ctop);
                const uint32_t sad =
                    sadBlock(src.u().row(cy) + cx, padded_w_ / 2, pu, 8, 8,
                             8) +
                    sadBlock(src.v().row(cy) + cx, padded_w_ / 2, pv, 8, 8,
                             8);
                if (sad < best) {
                    best = sad;
                    chroma_mode = mode;
                }
            }
        }

        // Predictions and residuals for all planes, into the worker's
        // arena and the record's level buffers.
        int nonzero = 0;
        {
            obs::ScopedStage tq(wc.acc, obs::Stage::TransformQuant);
            buildLumaPrediction(cand, x, y, wc.pred_y);
            buildChromaPrediction(cand, chroma_mode, true, cx, cy,
                                  wc.pred_u);
            buildChromaPrediction(cand, chroma_mode, false, cx, cy,
                                  wc.pred_v);
            nonzero = quantizeResidual(src.y(), wc.pred_y, x, y, kMbSize,
                                       qp_mb, intra, rec.levels_y);
            nonzero += quantizeResidual(src.u(), wc.pred_u, cx, cy, 8, qp_mb,
                                        intra, rec.levels_u);
            nonzero += quantizeResidual(src.v(), wc.pred_v, cx, cy, 8, qp_mb,
                                        intra, rec.levels_v);
        }
        const bool coded = nonzero != 0;

        // Skip conversion: inter16, reference 0, predictor MV, no
        // residual -> one bit on the wire.
        const bool skip = type == FrameType::P &&
            cand.mode == MbMode::Inter16 && cand.ref == 0 &&
            cand.mv[0] == pred_mv && !coded;

        rec.cand = cand;
        rec.chroma_mode = chroma_mode;
        rec.pred_mv = pred_mv;
        rec.qp = qp_mb;
        rec.skip = skip;
        rec.coded = coded;
        rec.nonzero = nonzero;

        MbInfo &info = grid_.at(mbx, mby);
        if (skip) {
            info.mode = MbMode::Skip;
            info.mv = cand.mv[0];
            info.ref = 0;
            // info.qp (the deblock strength input) is raster-serial
            // state — the previous *coded* MB's QP — and is filled in
            // by the entropy pass, which runs before deblocking.
            info.coded = false;
            obs::ScopedStage rc(wc.acc, obs::Stage::Reconstruct);
            copyPrediction(recon_.y(), x, y, kMbSize, wc.pred_y);
            copyPrediction(recon_.u(), cx, cy, 8, wc.pred_u);
            copyPrediction(recon_.v(), cx, cy, 8, wc.pred_v);
            return;
        }

        // Reconstruct via the exact decoder path.
        obs::ScopedStage rc(wc.acc, obs::Stage::Reconstruct);
        int coded_blocks = reconstructBlock(recon_.y(), x, y, kMbSize,
                                            wc.pred_y, rec.levels_y,
                                            qp_mb);
        coded_blocks += reconstructBlock(recon_.u(), cx, cy, 8, wc.pred_u,
                                         rec.levels_u, qp_mb);
        coded_blocks += reconstructBlock(recon_.v(), cx, cy, 8, wc.pred_v,
                                         rec.levels_v, qp_mb);
        if (probe_ && coded_blocks > 0) {
            probe_->record(KernelId::Dequant, coded_blocks);
            probe_->record(KernelId::TransformInv, coded_blocks);
            probe_->record(
                KernelId::Reconstruct, 24,
                static_cast<uint64_t>(coded_blocks), 6,
                {MemRegion{recon_.y().row(y) + x, kMbSize, kMbSize,
                           static_cast<uint32_t>(padded_w_), true}});
        }

        info.mode = cand.mode;
        info.mv = cand.mv[0];
        info.ref = static_cast<int8_t>(cand.ref);
        info.qp = static_cast<uint8_t>(qp_mb);
        info.coded = coded;
    }

    // ----- Entropy pass ----------------------------------------------

    /**
     * Emit one analyzed macroblock. All order-dependent coder state
     * (contexts inside `writer`, the QP-delta chain in `last_qp`) is
     * owned by the caller's slice, which is what makes the stream
     * thread-count invariant and lets slices emit concurrently.
     */
    void
    writeMacroblock(const MbRecord &rec, FrameType type, int mbx, int mby,
                    SyntaxWriter &writer, FrameStats &stats, int &last_qp)
    {
        if (rec.skip) {
            writer.bit(1, ctx::kMbSkip);
            // The deblock filter reads the in-effect QP, which for a
            // skip MB is the last coded one in slice raster order.
            // Slices cover disjoint row bands, so these grid writes
            // never race across slice workers.
            grid_.at(mbx, mby).qp = static_cast<uint8_t>(last_qp);
            ++stats.skip_mbs;
            return;
        }

        const ModeCandidate &cand = rec.cand;
        const bool intra = cand.mode == MbMode::Intra;
        if (type == FrameType::P) {
            writer.bit(0, ctx::kMbSkip);
            // Mode tree: 1 -> Inter16; 01 -> Inter8; 00 -> Intra.
            writer.bit(cand.mode == MbMode::Inter16 ? 1 : 0,
                       ctx::kMbMode0);
            if (cand.mode != MbMode::Inter16)
                writer.bit(cand.mode == MbMode::Inter8 ? 1 : 0,
                           ctx::kMbMode1);
        }

        if (intra) {
            writer.bit(static_cast<int>(cand.luma_mode) & 1,
                       ctx::kIntraLuma);
            writer.bit((static_cast<int>(cand.luma_mode) >> 1) & 1,
                       ctx::kIntraLuma + 1);
            writer.bit(static_cast<int>(rec.chroma_mode) & 1,
                       ctx::kIntraChroma);
            writer.bit((static_cast<int>(rec.chroma_mode) >> 1) & 1,
                       ctx::kIntraChroma + 1);
            ++stats.intra_mbs;
        } else {
            if (tools_.refs > 1)
                writer.ue(static_cast<uint32_t>(cand.ref), ctx::kRefIdx,
                          2);
            const int parts = cand.mode == MbMode::Inter8 ? 4 : 1;
            for (int part = 0; part < parts; ++part) {
                writer.se(cand.mv[part].x - rec.pred_mv.x, ctx::kMvX, 4);
                writer.se(cand.mv[part].y - rec.pred_mv.y, ctx::kMvY, 4);
            }
        }

        if (tools_.adaptive_quant) {
            writer.se(rec.qp - last_qp, ctx::kQpDelta, 2);
            last_qp = rec.qp;
        }

        for (int b = 0; b < 16; ++b)
            writeResidualBlock(writer, rec.levels_y + b * 16, true);
        for (int b = 0; b < 4; ++b)
            writeResidualBlock(writer, rec.levels_u + b * 16, false);
        for (int b = 0; b < 4; ++b)
            writeResidualBlock(writer, rec.levels_v + b * 16, false);
    }

    ToolPreset tools_;
    const PipelineLayout *layout_ = nullptr;
    uarch::UarchProbe *probe_ = nullptr;
    int padded_w_ = 0;
    int padded_h_ = 0;
    int mb_cols_ = 0;
    int mb_rows_ = 0;

    std::vector<WorkerCtx> wctx_;
    std::vector<MbRecord> records_;
    Frame src_;
    FrameType type_ = FrameType::I;
    int frame_qp_ = 0;
    Frame recon_;
    MbGrid grid_;
    std::deque<RefFrame> refs_;
    std::vector<int8_t> aq_offsets_;
};

} // namespace

Encoder::Encoder(const EncoderConfig &config)
    : config_(config),
      tools_(config.tools_override ? *config.tools_override
                                   : presetForEffort(config.effort))
{
    if (config.entropy_override >= 0)
        tools_.entropy = static_cast<EntropyMode>(config.entropy_override);
    if (config.deblock_override >= 0)
        tools_.deblock = config.deblock_override != 0;
}

namespace {

/**
 * The frame pipeline with VBC's policy: `tools` for the coding pass,
 * the effort-capped preset for the two-pass analysis pass.
 */
FramePipeline
vbcPipeline(const EncoderConfig &config, const ToolPreset &tools)
{
    const ToolPreset first = presetForEffort(std::min(config.effort, 3));
    return FramePipeline(config, config.track,
                         [tools, first](bool first_pass) {
                             return std::make_unique<VbcPolicy>(
                                 first_pass ? first : tools);
                         });
}

} // namespace

PassOneStats
collectPassOneStats(const EncoderConfig &config, const video::Video &source)
{
    // Only the analysis pass runs, so the coding-pass tools are moot.
    return vbcPipeline(config, ToolPreset{}).passOneStats(source);
}

EncodeResult
Encoder::encode(const video::Video &source)
{
    return vbcPipeline(config_, tools_).encode(source);
}

} // namespace vbench::codec
