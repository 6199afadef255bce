#include "codec/frame_pipeline.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "core/runtime_config.h"
#include "obs/clock.h"
#include "obs/obs.h"
#include "sched/frame_threads.h"
#include "sched/wavefront.h"

namespace vbench::codec {

namespace {

using uarch::KernelId;
using uarch::MemRegion;

/// Quantizer the two-pass analysis pass encodes at.
constexpr int kFirstPassQp = 30;

void
toRational(double fps, uint32_t &num, uint32_t &den)
{
    if (std::abs(fps - std::round(fps)) < 1e-9) {
        num = static_cast<uint32_t>(std::lround(fps));
        den = 1;
    } else {
        num = static_cast<uint32_t>(std::lround(fps * 1000));
        den = 1000;
    }
}

/** Pass-1 stats from the two-pass analysis pass's frame sizes. */
PassOneStats
statsOf(const EncodeResult &first)
{
    PassOneStats stats;
    stats.pass_qp = kFirstPassQp;
    for (const FrameStats &f : first.frames)
        stats.frame_bits.push_back(f.bytes * 8.0);
    return stats;
}

/**
 * The probe a policy records into while a uarch probe is attached.
 * Outside analysis it forwards every record; during analysis it
 * buffers them per cell, and the entropy pass replays a cell's buffer
 * just before that cell's entropy record. A probe pins the width to 1,
 * so one thread records and cells arrive in raster order.
 */
class CellProbeReplay final : public uarch::UarchProbe
{
  public:
    explicit CellProbeReplay(uarch::UarchProbe *target) : target_(target)
    {
    }

    void
    record(KernelId id, uint64_t units, uint64_t decision_bits,
           int n_decisions, std::initializer_list<MemRegion> regions) override
    {
        if (!capturing_) {
            target_->record(id, units, decision_bits, n_decisions, regions);
            return;
        }
        assert(regions.size() <= kMaxRegions);
        Record r{id, units, decision_bits, n_decisions, 0, {}};
        for (const MemRegion &m : regions)
            if (r.n_regions < kMaxRegions)
                r.regions[r.n_regions++] = m;
        records_.push_back(r);
    }
    using uarch::UarchProbe::record;

    /** Start buffering one frame's analysis records. */
    void
    capture()
    {
        records_.clear();
        cell_end_.clear();
        capturing_ = true;
    }

    /** Close the buffer of the cell just analyzed. */
    void endCell() { cell_end_.push_back(records_.size()); }

    /** Forward again (frame set-up and tail records pass straight on). */
    void stopCapture() { capturing_ = false; }

    /** Forward the buffered records of raster cell `cell`. */
    void
    replay(size_t cell)
    {
        for (size_t i = cell == 0 ? 0 : cell_end_[cell - 1];
             i < cell_end_[cell]; ++i) {
            const Record &r = records_[i];
            if (r.n_regions == 0)
                target_->record(r.id, r.units, r.bits, r.n, {});
            else if (r.n_regions == 1)
                target_->record(r.id, r.units, r.bits, r.n, {r.regions[0]});
            else
                target_->record(r.id, r.units, r.bits, r.n,
                                {r.regions[0], r.regions[1]});
        }
    }

  private:
    /// Regions one record may carry: a block and its search window.
    static constexpr size_t kMaxRegions = 2;

    struct Record {
        KernelId id;
        uint64_t units;
        uint64_t bits;
        int n;
        size_t n_regions;
        MemRegion regions[kMaxRegions];
    };

    uarch::UarchProbe *target_;
    bool capturing_ = false;
    std::vector<Record> records_;
    std::vector<size_t> cell_end_;  ///< records_ size after each cell
};

/** One pass over a clip: the frame loop, analysis and entropy. */
class PassRunner
{
  public:
    PassRunner(const PipelineConfig &config, obs::Track track,
               BlockPolicy &policy, const video::Video &source,
               RateController &rate)
        : config_(config), track_(track), policy_(policy), source_(source),
          rate_(rate), probe_(config.probe),
          tracer_(config.tracer ? config.tracer : obs::globalTracer()),
          acc_(tracer_ ? &accum_ : nullptr)
    {
        const int block = policy.block();
        layout_.block = block;
        layout_.padded_w = (source.width() + block - 1) & ~(block - 1);
        layout_.padded_h = (source.height() + block - 1) & ~(block - 1);
        layout_.cols = layout_.padded_w / block;
        layout_.rows = layout_.padded_h / block;

        // The one place below the process edge that resolves the width and
        // the slice count of an encode.
        int threads = config.frame_threads > 0
            ? std::min(config.frame_threads, sched::kMaxFrameThreads)
            : sched::decideFrameThreads(0).threads;
        int slices = config.slice_count > 0
            ? config.slice_count
            : core::freshRuntimeConfig().slices;
        // A uarch probe assumes one serial, single-writer record stream;
        // slices would also change the bytes it attributes.
        if (probe_)
            threads = slices = 1;
        const int rows = std::max(1, layout_.rows);
        layout_.threads = std::clamp(threads, 1, rows);
        layout_.slices = std::clamp(
            slices, 1, std::min(static_cast<int>(kMaxSlices), rows));
        for (int s = 0; s <= layout_.slices; ++s)
            layout_.slice_row_start.push_back(
                sliceRowStart(layout_.rows, layout_.slices, s));
        layout_.slice_top_row.resize(static_cast<size_t>(layout_.rows), 0);
        for (int s = 0; s < layout_.slices; ++s)
            for (int r = layout_.slice_row_start[static_cast<size_t>(s)];
                 r < layout_.slice_row_start[static_cast<size_t>(s) + 1]; ++r)
                layout_.slice_top_row[static_cast<size_t>(r)] =
                    layout_.slice_row_start[static_cast<size_t>(s)];

        runner_ = std::make_unique<sched::WavefrontRunner>(layout_.threads);
        slot_accum_.resize(static_cast<size_t>(layout_.threads));
        if (tracer_)
            row_start_ns_.resize(static_cast<size_t>(layout_.rows), 0);
        if (probe_)
            replay_ = std::make_unique<CellProbeReplay>(probe_);
        policy_.attach(layout_, replay_.get());
    }

    EncodeResult
    run()
    {
        EncodeResult result;
        result.slice_count = layout_.slices;
        HeaderFields header;
        header.width = source_.width();
        header.height = source_.height();
        toRational(source_.fps(), header.fps_num, header.fps_den);
        header.frame_count = static_cast<uint32_t>(source_.frameCount());
        header.slice_count = static_cast<uint32_t>(layout_.slices);
        policy_.writeHeader(result.stream, header);

        for (int i = 0; i < source_.frameCount(); ++i) {
            if (cancelledNow())
                break;
            const uint64_t frame_start = tracer_ ? obs::nowNs() : 0;
            if (acc_)
                accum_.reset();
            FrameType type = frameTypeFor(i);
            if (type == FrameType::P && policy_.sceneCut(source_, i))
                type = FrameType::I;
            int qp;
            {
                obs::ScopedStage rc(acc_, obs::Stage::RateControl);
                qp = rate_.frameQp(type, i);
            }
            FrameStats stats;
            ByteBuffer payload;
            if (!encodeFrame(i, type, qp, payload, stats))
                break;  // truncated payload, result abandoned upstream
            appendU32(result.stream,
                      static_cast<uint32_t>(payload.size() + 1));
            result.stream.push_back(packFrameByte(type, qp));
            result.stream.insert(result.stream.end(), payload.begin(),
                                 payload.end());
            stats.type = type;
            stats.qp = qp;
            stats.bytes = payload.size() + 5;
            result.frames.push_back(stats);
            {
                obs::ScopedStage rc(acc_, obs::Stage::RateControl);
                rate_.frameDone(type, (payload.size() + 5) * 8.0);
            }
            if (tracer_)
                tracer_->addFrame(track_, i, frame_start, obs::nowNs(),
                                  accum_);
        }
        result.rc_state = rate_.snapshot();
        return result;
    }

  private:
    bool
    cancelledNow() const
    {
        return config_.cancel &&
            config_.cancel->load(std::memory_order_relaxed);
    }

    FrameType
    frameTypeFor(int index) const
    {
        // Segment boundaries restart the GOP phase, so a segment encode's
        // frame k decides its type exactly like the whole-file encode's
        // frame k (split-and-stitch contract).
        const int phase = config_.segment_frames > 0
            ? index % config_.segment_frames
            : index;
        return phase == 0 || (config_.gop > 0 && phase % config_.gop == 0)
            ? FrameType::I
            : FrameType::P;
    }

    obs::StageAccum *
    slotAcc(int slot)
    {
        return tracer_ ? &slot_accum_[static_cast<size_t>(slot)] : nullptr;
    }

    /** Fold the worker slots' stage time into the frame's. */
    void
    mergeSlots()
    {
        if (!acc_)
            return;
        for (obs::StageAccum &slot : slot_accum_) {
            accum_.addFrom(slot);
            slot.reset();
        }
    }

    /** Encode one frame; false when cancelled mid-frame. */
    bool
    encodeFrame(int index, FrameType type, int qp,
                ByteBuffer &payload, FrameStats &stats)
    {
        {
            obs::ScopedStage setup(acc_, obs::Stage::FrameSetup);
            policy_.beginFrame(source_.frame(index), type, qp);
        }
        if (!analyze(index) || !entropy(index, qp, payload, stats))
            return false;
        if (probe_) {
            const int per_cell = (layout_.block / 16) * (layout_.block / 16);
            probe_->record(KernelId::RateControl,
                           static_cast<uint64_t>(layout_.cols) * layout_.rows *
                               per_cell);
        }
        policy_.finishFrame(acc_);
        return true;
    }

    /** Phase 1: every cell's analysis, in wavefront order. */
    bool
    analyze(int frame_index)
    {
        const int cols = layout_.cols;
        if (replay_)
            replay_->capture();
        const bool complete = runner_->run(
            layout_.rows, cols, policy_.lag(),
            [&](int row, int col, int slot) {
                if (tracer_ && col == 0)
                    row_start_ns_[static_cast<size_t>(row)] = obs::nowNs();
                policy_.analyzeCell(row, col, slot, slotAcc(slot));
                if (replay_)
                    replay_->endCell();
                if (tracer_ && col == cols - 1)
                    tracer_->addSpan(track_, obs::Stage::WavefrontRow,
                                     frame_index,
                                     row_start_ns_[static_cast<size_t>(row)],
                                     obs::nowNs());
            },
            config_.cancel);
        if (replay_)
            replay_->stopCapture();
        mergeSlots();
        return complete;
    }

    /** Phase 2: every slice's syntax, slices on the worker set. */
    bool
    entropy(int frame_index, int qp, ByteBuffer &payload,
            FrameStats &stats)
    {
        const size_t slices = static_cast<size_t>(layout_.slices);
        std::vector<ByteBuffer> bufs(slices);
        std::vector<SliceState> states(slices, SliceState{{}, qp});
        // One "row" per slice, no cross-row dependencies: bands are
        // independent, so they run on the wavefront worker set.
        const bool complete = runner_->run(
            layout_.slices, 1, /*lag=*/0,
            [&](int s, int, int slot) {
                const uint64_t start_ns = tracer_ ? obs::nowNs() : 0;
                writeSlice(s, slot, bufs[static_cast<size_t>(s)],
                           states[static_cast<size_t>(s)]);
                if (tracer_ && slices > 1)
                    tracer_->addSpan(track_, obs::Stage::EntropySlice,
                                     frame_index, start_ns, obs::nowNs());
            },
            config_.cancel);
        mergeSlots();
        if (!complete)
            return false;

        for (const SliceState &state : states) {
            stats.intra_mbs += state.stats.intra_mbs;
            stats.skip_mbs += state.stats.skip_mbs;
        }
        // One slice is the bare segment; more are u32-length-prefixed.
        for (const ByteBuffer &buf : bufs) {
            if (slices > 1)
                appendU32(payload, static_cast<uint32_t>(buf.size()));
            payload.insert(payload.end(), buf.begin(), buf.end());
        }
        return true;
    }

    /** Emit slice `s`'s cells into `buf` with a fresh coder. */
    void
    writeSlice(int s, int slot, ByteBuffer &buf, SliceState &state)
    {
        obs::ScopedStage ec(slotAcc(slot), obs::Stage::EntropyCoding);
        const std::unique_ptr<SyntaxWriter> writer = policy_.makeWriter(buf);
        const int cols = layout_.cols;
        const size_t band = static_cast<size_t>(s);
        double bits_done = 0;
        for (int row = layout_.slice_row_start[band];
             row < layout_.slice_row_start[band + 1]; ++row) {
            for (int col = 0; col < cols; ++col) {
                if (replay_)
                    replay_->replay(static_cast<size_t>(row) * cols + col);
                policy_.writeCell(row, col, *writer, state);
                if (!probe_)
                    continue;
                entropy_hash_ =
                    policy_.entropyDecisions(entropy_hash_, row, col);
                const double bits = writer->bitsWritten();
                probe_->record(policy_.entropyKernel(),
                               std::max<uint64_t>(
                                   1, static_cast<uint64_t>(bits - bits_done)),
                               entropy_hash_, 64);
                bits_done = bits;
            }
        }
        writer->finish();
    }

    const PipelineConfig &config_;
    obs::Track track_;
    BlockPolicy &policy_;
    const video::Video &source_;
    RateController &rate_;
    uarch::UarchProbe *probe_;
    obs::Tracer *tracer_;
    obs::StageAccum accum_;  ///< this frame's stage nanoseconds
    obs::StageAccum *acc_;   ///< &accum_ when tracing, else null
    PipelineLayout layout_;
    std::unique_ptr<sched::WavefrontRunner> runner_;
    std::vector<obs::StageAccum> slot_accum_;  ///< per worker slot
    std::vector<uint64_t> row_start_ns_;
    std::unique_ptr<CellProbeReplay> replay_;
    uint64_t entropy_hash_ = 0;  ///< probe-only entropy decision hash
};

} // namespace

FramePipeline::FramePipeline(const PipelineConfig &config, obs::Track track,
                             PolicyFactory policy)
    : config_(config), track_(track), policy_(std::move(policy))
{
}

EncodeResult
FramePipeline::firstPass(const video::Video &source) const
{
    PipelineConfig pass1 = config_;
    pass1.rc.mode = RcMode::Cqp;
    pass1.rc.qp = kFirstPassQp;
    pass1.rc.fps = source.fps();
    pass1.rc.pixels_per_frame = static_cast<double>(source.pixelsPerFrame());
    pass1.rc_in.reset();
    pass1.pass_one = nullptr;
    RateController rate(pass1.rc);
    const std::unique_ptr<BlockPolicy> policy = policy_(true);
    return PassRunner(pass1, track_, *policy, source, rate).run();
}

PassOneStats
FramePipeline::passOneStats(const video::Video &source) const
{
    return statsOf(firstPass(source));
}

EncodeResult
FramePipeline::encode(const video::Video &source) const
{
    RateControlConfig rc = config_.rc;
    rc.fps = source.fps();
    rc.pixels_per_frame = static_cast<double>(source.pixelsPerFrame());
    const bool two_pass = rc.mode == RcMode::TwoPass;

    PassOneStats stats;
    if (two_pass && config_.pass_one) {
        stats = *config_.pass_one;
    } else if (two_pass) {
        EncodeResult first = firstPass(source);
        if (config_.cancel && config_.cancel->load(std::memory_order_relaxed))
            return first;  // abandoned upstream; skip second pass
        stats = statsOf(first);
    }

    RateController rate(rc);
    if (two_pass)
        rate.setPassOneStats(stats);
    // Whole-clip pass-1 stats shift local budget indices by the frames
    // already encoded; an internal pass 1 covers only this input.
    if (config_.rc_in)
        rate.restore(*config_.rc_in, two_pass && !config_.pass_one
                                         ? 0
                                         : config_.rc_in->frames_done);
    const std::unique_ptr<BlockPolicy> policy = policy_(false);
    return PassRunner(config_, track_, *policy, source, rate).run();
}

} // namespace vbench::codec
