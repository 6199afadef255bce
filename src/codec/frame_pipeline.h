#pragma once

/**
 * @file
 * The frame pipeline both software encoders run: one driver for rate
 * control and two-pass, one frame loop, one wavefront analysis phase,
 * and one slice entropy writer. A codec plugs in as a BlockPolicy —
 * its block size, wavefront lag, per-frame set-up, per-cell analysis
 * and syntax, and frame tail — so VBC and NGC differ only in their
 * coding tools, never in how frames are driven.
 *
 * Every frame is two phases:
 *
 *  1. Analysis — mode decisions, motion search, transform/quant and
 *     reconstruction, one cell (VBC macroblock, NGC superblock) at a
 *     time, each depositing a completed record. Cell rows run on a
 *     sched::WavefrontRunner when the width is > 1: row r trails row
 *     r-1 by the policy's lag, which covers every neighbour the
 *     analysis reads.
 *  2. Entropy — the records emitted in raster order within each slice.
 *     All order-dependent coder state (contexts, QP-delta chain) lives
 *     only here, so the stream is byte-identical at every width. With
 *     slice_count > 1 each band restarts that state at its head, gets
 *     its own buffer and a u32 length prefix, and bands run on the
 *     wavefront worker set; one slice is the same writer with no
 *     prefix.
 *
 * An attached uarch probe pins width and slices to 1. Analysis records
 * are then buffered per cell and replayed just before that cell's
 * entropy record, so the probe sees the kernel-record order of an
 * encoder that analyzes and codes one cell at a time.
 */

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "codec/bitstream.h"
#include "codec/ratecontrol.h"
#include "codec/syntax.h"
#include "codec/types.h"
#include "obs/stage.h"
#include "obs/trace.h"
#include "uarch/probe.h"
#include "video/video.h"

namespace vbench::codec {

/** Encoder settings both software codecs share. */
struct PipelineConfig {
    RateControlConfig rc;
    int gop = 30;            ///< I-frame interval; <= 0 means first only
    uarch::UarchProbe *probe = nullptr;
    /// Stage tracer; null (the default) falls back to the
    /// env-configured obs::globalTracer(), and with neither attached
    /// every instrumentation point costs one branch, same contract as
    /// the null probe.
    obs::Tracer *tracer = nullptr;
    /**
     * Intra-frame wavefront parallelism: cell rows analyzed in flight
     * at once. <= 0 resolves VBENCH_FRAME_THREADS through the
     * sched::decideFrameThreads() oversubscription guard; callers that
     * already ran the guard (core::transcode) pass the decided width.
     * The bitstream is bit-exact for every value. Forced to 1 when a
     * uarch probe is attached (probes assume serial recording).
     */
    int frame_threads = 0;
    /**
     * Entropy slice bands per frame. Each slice is a horizontal band of
     * whole cell rows with its own length-prefixed bitstream segment;
     * entropy contexts, the QP-delta chain, and spatial prediction
     * (intra neighbors, the MV predictor) reset at the slice head, so
     * the entropy pass runs slice-parallel on the wavefront worker set.
     * <= 0 resolves VBENCH_SLICES (core::RuntimeConfig); 1 is the
     * single-segment payload with no length prefix. Clamped to the
     * frame's cell row count and codec::kMaxSlices, and forced to 1
     * when a uarch probe is attached. EncodeResult::slice_count reports
     * the value the encode ran with.
     */
    int slice_count = 0;
    /// Cooperative cancellation: checked between rows and frames; a
    /// cancelled encode returns a truncated (unusable) result quickly.
    const std::atomic<bool> *cancel = nullptr;
    /**
     * Split-and-stitch: force an IDR and restart the GOP phase every N
     * source frames (<= 0 off). With the phase reset, frame k of a
     * segment encode picks the same type as frame k of the whole-file
     * encode, which is what makes stitched segment streams byte-equal
     * to the whole-file closed-GOP stream (see codec/stitch.h).
     */
    int segment_frames = 0;
    /// Rate-controller state carried in from the preceding segment of
    /// a split-and-stitch chain; empty starts fresh.
    std::optional<RcSnapshot> rc_in;
    /**
     * Two-pass only: whole-clip pass-1 stats collected externally (via
     * FramePipeline::passOneStats on each segment, concatenated). When
     * set the internal analysis pass is skipped and budget lookups are
     * shifted by rc_in->frames_done so each segment reads its global
     * budgets. When null, two-pass runs its own pass 1 over the input.
     */
    const PassOneStats *pass_one = nullptr;
};

/** Per-frame outcome. */
struct FrameStats {
    FrameType type = FrameType::I;
    int qp = 0;
    size_t bytes = 0;       ///< frame record size incl. headers
    uint32_t intra_mbs = 0;
    uint32_t skip_mbs = 0;
};

/** Encode outcome: the bitstream plus statistics. */
struct EncodeResult {
    ByteBuffer stream;
    std::vector<FrameStats> frames;
    /// Rate-controller state after the last frame — feed into the next
    /// segment's PipelineConfig::rc_in to chain a split-and-stitch
    /// encode.
    RcSnapshot rc_state;
    /// Entropy slices per frame the encode ran with (the stream
    /// header's slice_count): the request after row and probe clamps.
    int slice_count = 1;

    size_t totalBytes() const { return stream.size(); }
};

/** Cell grid, wavefront width and slice bands, fixed per encode. */
struct PipelineLayout {
    int block = 16;      ///< cell edge in luma pixels
    int padded_w = 0;    ///< frame width rounded up to whole cells
    int padded_h = 0;
    int cols = 0;        ///< cells per row
    int rows = 0;        ///< cell rows
    int threads = 1;     ///< wavefront width = worker slots
    int slices = 1;
    /// Band boundaries: slice s spans rows [start[s], start[s + 1]).
    std::vector<int> slice_row_start;
    /// Per cell row, the first row of its slice (spatial prediction
    /// must not read above it — slices decode independently).
    std::vector<int> slice_top_row;
};

/** Coder state one slice carries from cell to cell. */
struct SliceState {
    FrameStats stats;  ///< intra / skip counts of the slice's cells
    int last_qp = 0;   ///< QP-delta chain; starts at the frame QP
};

/**
 * What a codec supplies to the pipeline. Calls for one frame run in
 * the order beginFrame, analyzeCell (wavefront order, possibly
 * concurrent on distinct slots), makeWriter + writeCell (raster order
 * within each slice; slices possibly concurrent), finishFrame.
 */
class BlockPolicy
{
  public:
    BlockPolicy(int block, int lag) : block_(block), lag_(lag) {}
    virtual ~BlockPolicy() = default;
    BlockPolicy(const BlockPolicy &) = delete;
    BlockPolicy &operator=(const BlockPolicy &) = delete;

    /** Cell edge in luma pixels. */
    int block() const { return block_; }
    /** Cells row r may trail row r-1 by during analysis. */
    int lag() const { return lag_; }

    /**
     * Adopt the encode's layout (sizing per-slot scratch) and the
     * probe every record goes to (null when none is attached).
     */
    virtual void attach(const PipelineLayout &layout,
                        uarch::UarchProbe *probe) = 0;

    /** Write the stream header; `common` carries the shared fields. */
    virtual void writeHeader(ByteBuffer &out,
                             const HeaderFields &common) const = 0;

    /** Whether P frame `index` should be coded as an I frame. */
    virtual bool
    sceneCut(const video::Video &, int) const
    {
        return false;
    }

    /** Pad the source frame and reset per-frame state. */
    virtual void beginFrame(const video::Frame &original, FrameType type,
                            int qp) = 0;

    /** Analyze one cell into its record, on worker slot `slot`. */
    virtual void analyzeCell(int row, int col, int slot,
                             obs::StageAccum *acc) = 0;

    /** A fresh entropy coder emitting into `out`. */
    virtual std::unique_ptr<SyntaxWriter>
    makeWriter(ByteBuffer &out) const = 0;

    /** Emit one analyzed cell's syntax. */
    virtual void writeCell(int row, int col, SyntaxWriter &writer,
                           SliceState &slice) = 0;

    /** Kernel the per-cell entropy probe record is attributed to. */
    virtual uarch::KernelId entropyKernel() const = 0;

    /**
     * Fold cell (row, col)'s coefficient statistics into the entropy
     * decision hash its probe record carries.
     */
    virtual uint64_t entropyDecisions(uint64_t hash, int row, int col) = 0;

    /** Deblock and update the reference list after entropy. */
    virtual void finishFrame(obs::StageAccum *acc) = 0;

  private:
    int block_;
    int lag_;
};

/**
 * Drives a codec's BlockPolicy over a clip. The factory builds the
 * policy for each pass; `first_pass` asks for the fast tool set the
 * two-pass analysis pass runs with.
 */
class FramePipeline
{
  public:
    using PolicyFactory =
        std::function<std::unique_ptr<BlockPolicy>(bool first_pass)>;

    FramePipeline(const PipelineConfig &config, obs::Track track,
                  PolicyFactory policy);

    /**
     * Encode a clip. Two-pass rate control runs both passes (pass 1
     * is skipped when PipelineConfig::pass_one supplies its stats).
     */
    EncodeResult encode(const video::Video &source) const;

    /**
     * Run the two-pass analysis pass (fast tools, constant QP) and
     * return its per-frame stats. Segment chains concatenate the stats
     * of every segment — pass 1 is closed-GOP constant-QP, so
     * per-segment frame bits equal the whole-file ones — and hand the
     * result to PipelineConfig::pass_one.
     */
    PassOneStats passOneStats(const video::Video &source) const;

  private:
    EncodeResult firstPass(const video::Video &source) const;

    PipelineConfig config_;
    obs::Track track_;
    PolicyFactory policy_;
};

} // namespace vbench::codec
