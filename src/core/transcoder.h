#pragma once

/**
 * @file
 * The unified transcoder driver: decode a VBC "universal format"
 * stream and re-encode it with any of the encoders vbench evaluates —
 * the VBC software encoder at an effort level, the two NGC
 * next-generation profiles, or a fixed-function hardware model.
 * Software paths report wall-clock time; hardware paths report the
 * pipeline model's time.
 */

#include <atomic>
#include <optional>
#include <string>

#include "codec/preset.h"
#include "codec/ratecontrol.h"
#include "codec/types.h"
#include "core/measure.h"
#include "core/report.h"
#include "obs/exemplar.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/stage.h"
#include "obs/trace.h"
#include "uarch/probe.h"
#include "video/video.h"

namespace vbench::core {

/** The encoder back-ends a transcode can target. */
enum class EncoderKind {
    Vbc = 0,      ///< the reference software encoder (libx264 analogue)
    NgcHevc,      ///< next-gen codec, HEVC-like profile
    NgcVp9,       ///< next-gen codec, VP9-like profile
    NvencLike,    ///< fixed-function hardware model
    QsvLike,      ///< fixed-function hardware model
};

const char *toString(EncoderKind kind);

/** What to run. */
struct TranscodeRequest {
    EncoderKind kind = EncoderKind::Vbc;
    codec::RateControlConfig rc;
    int effort = 5;     ///< VBC effort dial
    int ngc_speed = 0;  ///< NGC speed dial
    int gop = 30;
    /// VBC entropy backend override (-1 auto): the Live reference
    /// forces the arithmetic coder even at fast efforts, as real fast
    /// presets keep CABAC.
    int entropy_override = -1;
    /// VBC deblocking override (-1 auto, else 0/1), for ablations.
    int deblock_override = -1;
    /// Explicit VBC tool set bypassing the effort dial (ablations and
    /// the frozen-silicon hardware models).
    std::optional<codec::ToolPreset> tools_override;
    uarch::UarchProbe *probe = nullptr;
    /**
     * Intra-frame wavefront threads for the software encoders (VBC and
     * NGC). 0 resolves VBENCH_FRAME_THREADS; either way the request
     * passes through the sched::decideFrameThreads() oversubscription
     * guard, which clamps the width so frame_threads x active_jobs
     * never exceeds the shared pool budget. Bit-exact: the emitted
     * stream is byte-identical for every effective value. Hardware
     * model backends ignore it.
     */
    int frame_threads = 0;
    /**
     * Entropy slice bands per frame for the software encoders (VBC and
     * NGC). 0 resolves VBENCH_SLICES (core::RuntimeConfig); 1 is the
     * legacy single-segment payload, byte-identical to pre-slice
     * streams. Values above 1 cut each frame into that many
     * independently coded horizontal bands so the entropy pass runs
     * slice-parallel on the wavefront worker set — a small bitrate
     * overhead (reset contexts, slice length prefixes) buys scaling
     * past the Amdahl ceiling of the serial entropy tail. Clamped to
     * the frame's MB/SB row count. Hardware model backends ignore it.
     */
    int slice_count = 0;
    /// Cooperative cancellation: when set and it becomes true, the
    /// transcode aborts at the next phase boundary with
    /// `error == "cancelled"`. The scheduler wires each job's handle
    /// here; a finished phase is never rolled back. The software
    /// encoders also poll it between wavefront rows mid-frame.
    const std::atomic<bool> *cancel = nullptr;
    /// Stage tracer. Null falls back to the process-wide tracer
    /// (enabled via VBENCH_TRACE); when that is also null, every
    /// instrumentation point costs one predictable branch.
    obs::Tracer *tracer = nullptr;
    /**
     * Request-scoped span identity. Invalid (the default) means this
     * transcode is not part of a distributed trace and costs nothing.
     * The service mints one context per client request and derives a
     * child per segment; the scheduler propagates it into the worker's
     * encode slice and flow arrows, so one request renders as a single
     * connected tree across threads (obs/span.h).
     */
    obs::SpanContext span;
    /// Metrics sink. Null falls back to the global registry when
    /// VBENCH_METRICS_OUT is set, else metrics are skipped entirely.
    obs::MetricsRegistry *metrics = nullptr;
    /**
     * Split-and-stitch: force an IDR and restart the GOP phase every N
     * source frames (<= 0 off). A segment encoded with this set plus
     * `rc_in` chained from the previous segment stitches into a stream
     * identical to the whole-file closed-GOP encode (codec/stitch.h).
     * Hardware model backends ignore it (their silicon pipelines are
     * driven per whole request).
     */
    int segment_frames = 0;
    /// Rate-controller state carried in from the preceding segment of
    /// a split-and-stitch chain; empty starts fresh.
    std::optional<codec::RcSnapshot> rc_in;
    /// Two-pass only: whole-clip pass-1 stats collected externally
    /// (codec::collectPassOneStats / ngc::collectNgcPassOneStats per
    /// segment, concatenated); skips the internal analysis pass.
    const codec::PassOneStats *pass_one = nullptr;

    /**
     * Check the request for out-of-range knobs and inconsistent rate
     * control before any work happens. Returns the empty string when
     * the request is runnable, else a descriptive one-line error.
     * transcode() and the scheduler call this first and fail fast with
     * `TranscodeOutcome::error` — nothing is silently clamped.
     */
    std::string validate() const;
};

/** What happened. */
struct TranscodeOutcome {
    Measurement m;
    codec::ByteBuffer stream;
    double seconds = 0;
    bool ok = false;
    std::string error;
    /// Per-stage time breakdown. Phase stages (decode_input, encode,
    /// decode_output, measure, hw_pipeline) are always populated; leaf
    /// stages only when a tracer was active for the run.
    obs::StageTotals stages;
    /// Effective intra-frame wavefront width the encode ran with,
    /// after the oversubscription guard (1 = serial analysis).
    int frame_threads = 1;
    /// Effective entropy slice count the encode ran with — the stream
    /// header's slice_count, after the row and probe clamps (1 =
    /// single-segment payloads, serial entropy).
    int slice_count = 1;
    /// Rate-controller state after the encode — feed into the next
    /// segment's TranscodeRequest::rc_in to chain a split-and-stitch
    /// transcode.
    codec::RcSnapshot rc_state;
    /**
     * Where this request's latency went (milliseconds). transcode()
     * fills encode_ms (its own wall clock); the scheduler adds
     * queue_wait_ms and the service adds rc_chain_ms / stitch_ms, so
     * a service segment's components sum to its measured latency.
     */
    obs::CriticalPath critical_path;
};

/**
 * Run one transcode.
 *
 * @param input a VBC universal-format stream (decoded as the first
 *        half of the transcode; its time is part of the measurement).
 * @param original pristine frames for the quality measurement.
 */
TranscodeOutcome transcode(const codec::ByteBuffer &input,
                           const video::Video &original,
                           const TranscodeRequest &request);

/**
 * Produce the "universal format" upload stream for a clip: the
 * high-quality single-pass intermediate every later transcode decodes
 * (§2.5's first pipeline stage). A positive `segment_frames` forces
 * IDRs on segment boundaries so the stream can be cut into
 * independently decodable segments with codec::splitStream (the
 * service's ingest path).
 */
codec::ByteBuffer makeUniversalStream(const video::Video &original,
                                      int segment_frames = 0);

/** Build the machine-readable record of one finished transcode. */
RunReport makeRunReport(std::string label, const TranscodeRequest &request,
                        const TranscodeOutcome &outcome);

} // namespace vbench::core
