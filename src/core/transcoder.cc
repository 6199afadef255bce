#include "core/transcoder.h"

#include <cassert>
#include <sstream>

#include "codec/bitstream.h"
#include "codec/decoder.h"
#include "codec/encoder.h"
#include "codec/preset.h"
#include "core/encoder_backend.h"
#include "core/runtime_config.h"
#include "kernels/kernel_ops.h"
#include "obs/clock.h"
#include "obs/obs.h"
#include "sched/frame_threads.h"

namespace vbench::core {

const char *
toString(EncoderKind kind)
{
    switch (kind) {
      case EncoderKind::Vbc: return "vbc";
      case EncoderKind::NgcHevc: return "ngc-hevc";
      case EncoderKind::NgcVp9: return "ngc-vp9";
      case EncoderKind::NvencLike: return "nvenc-like";
      case EncoderKind::QsvLike: return "qsv-like";
    }
    return "unknown";
}

std::string
TranscodeRequest::validate() const
{
    std::ostringstream err;
    switch (kind) {
      case EncoderKind::Vbc:
      case EncoderKind::NgcHevc:
      case EncoderKind::NgcVp9:
      case EncoderKind::NvencLike:
      case EncoderKind::QsvLike:
        break;
      default:
        err << "unknown encoder kind "
            << static_cast<int>(kind);
        return err.str();
    }
    if (effort < 0 || effort >= codec::kNumEfforts) {
        err << "effort " << effort << " out of range [0, "
            << codec::kNumEfforts - 1 << "]";
        return err.str();
    }
    if (ngc_speed < 0 || ngc_speed > 2) {
        err << "ngc_speed " << ngc_speed << " out of range [0, 2]";
        return err.str();
    }
    if (gop < 0) {
        err << "gop " << gop
            << " is negative (use 0 for a single leading I frame)";
        return err.str();
    }
    if (entropy_override != -1 &&
        entropy_override != static_cast<int>(codec::EntropyMode::Vlc) &&
        entropy_override != static_cast<int>(codec::EntropyMode::Arith)) {
        err << "entropy_override " << entropy_override
            << " is not -1 (auto), 0 (vlc), or 1 (arith)";
        return err.str();
    }
    if (deblock_override < -1 || deblock_override > 1) {
        err << "deblock_override " << deblock_override
            << " is not -1 (auto), 0 (off), or 1 (on)";
        return err.str();
    }
    if (frame_threads < 0 || frame_threads > sched::kMaxFrameThreads) {
        err << "frame_threads " << frame_threads << " out of range [0, "
            << sched::kMaxFrameThreads << "] (0 = VBENCH_FRAME_THREADS)";
        return err.str();
    }
    if (slice_count < 0 ||
        slice_count > static_cast<int>(codec::kMaxSlices)) {
        err << "slice_count " << slice_count << " out of range [0, "
            << codec::kMaxSlices << "] (0 = VBENCH_SLICES)";
        return err.str();
    }
    // Rate-control sanity: the knob the selected mode reads must be in
    // range; knobs other modes read are ignored and not judged.
    switch (rc.mode) {
      case codec::RcMode::Cqp:
        if (rc.qp < codec::kMinQp || rc.qp > codec::kMaxQp) {
            err << "rc.qp " << rc.qp << " out of range ["
                << codec::kMinQp << ", " << codec::kMaxQp << "]";
            return err.str();
        }
        break;
      case codec::RcMode::Crf:
        if (rc.crf < codec::kMinQp || rc.crf > codec::kMaxQp) {
            err << "rc.crf " << rc.crf << " out of range ["
                << codec::kMinQp << ", " << codec::kMaxQp << "]";
            return err.str();
        }
        break;
      case codec::RcMode::Abr:
      case codec::RcMode::TwoPass:
        if (!(rc.bitrate_bps > 0)) {
            err << "rc.bitrate_bps " << rc.bitrate_bps
                << " must be positive for bitrate-driven modes";
            return err.str();
        }
        break;
      default:
        err << "unknown rc mode " << static_cast<int>(rc.mode);
        return err.str();
    }
    if (!(rc.fps > 0)) {
        err << "rc.fps " << rc.fps << " must be positive";
        return err.str();
    }
    if (rc.min_qp < codec::kMinQp || rc.min_qp > codec::kMaxQp) {
        err << "rc.min_qp " << rc.min_qp << " out of range ["
            << codec::kMinQp << ", " << codec::kMaxQp << "]";
        return err.str();
    }
    if (segment_frames < 0) {
        err << "segment_frames " << segment_frames
            << " is negative (use 0 for a whole-file encode)";
        return err.str();
    }
    if (pass_one && rc.mode != codec::RcMode::TwoPass) {
        err << "pass_one stats supplied but rc mode is not two-pass";
        return err.str();
    }
    return std::string();
}

codec::ByteBuffer
makeUniversalStream(const video::Video &original, int segment_frames)
{
    // High-quality single-pass intermediate: fast effort, fine
    // quantizer, so downstream transcodes see a faithful master.
    codec::EncoderConfig cfg;
    cfg.rc.mode = codec::RcMode::Crf;
    cfg.rc.crf = 14;
    cfg.effort = 3;
    cfg.gop = 30;
    cfg.segment_frames = segment_frames;
    codec::Encoder encoder(cfg);
    return encoder.encode(original).stream;
}

TranscodeOutcome
transcode(const codec::ByteBuffer &input, const video::Video &original,
          const TranscodeRequest &request)
{
    TranscodeOutcome outcome;
    // Fail fast on malformed requests: no clamping, no partial work.
    if (std::string invalid = request.validate(); !invalid.empty()) {
        outcome.error = "invalid request: " + invalid;
        return outcome;
    }
    const auto cancelled = [&request] {
        return request.cancel &&
            request.cancel->load(std::memory_order_relaxed);
    };
    if (cancelled()) {
        outcome.error = "cancelled";
        return outcome;
    }

    // Explicit sinks win; otherwise the env-configured globals apply.
    // NOTE: the global fallback assumes this is the only transcode
    // recording (see obs/obs.h); parallel callers pass per-worker
    // sinks, as sched::Scheduler does.
    obs::Tracer *tracer =
        request.tracer ? request.tracer : obs::globalTracer();
    obs::MetricsRegistry *metrics = request.metrics
        ? request.metrics
        : (obs::metricsEnabled() ? &obs::globalMetrics() : nullptr);
    // Detect the contract violation the fallback can't survive: two
    // transcodes attributing against the global sinks at once. The
    // guard only observes (the counter lands in the global registry);
    // debug builds additionally trip the assert so the misuse is loud
    // where it's cheap to be.
    const bool uses_global_fallback =
        (tracer && !request.tracer) || (metrics && !request.metrics);
    obs::GlobalAttributionGuard attribution_guard(uses_global_fallback);
    assert(!attribution_guard.contended() &&
           "concurrent transcode() calls must pass per-worker "
           "tracer/metrics sinks (see obs/obs.h)");
    const obs::StageTotals leaf_before =
        tracer ? tracer->stageTotals() : obs::StageTotals{};

    // Resolve the wavefront width through the oversubscription guard
    // now, while this job's ActiveJobScope (if scheduled) is counted,
    // and hand the backend the decided width so the encoders don't
    // re-run the guard.
    const sched::FrameThreadDecision ft_decision =
        sched::decideFrameThreads(request.frame_threads);
    outcome.frame_threads = ft_decision.threads;
    TranscodeRequest resolved = request;
    resolved.frame_threads = ft_decision.threads;
    // Resolve the slice count the same way (0 = the env knob) so the
    // backends don't each re-read the environment. The encoders clamp
    // it to the row count (and a probe pins it to 1); the outcome
    // reports the count they ran with.
    resolved.slice_count = request.slice_count > 0
        ? request.slice_count
        : freshRuntimeConfig().slices;

    std::unique_ptr<EncoderBackend> backend =
        EncoderBackend::create(resolved, tracer);

    const double start = obs::nowSeconds();

    codec::DecoderConfig dec_cfg;
    dec_cfg.probe = request.probe;
    dec_cfg.tracer = tracer;
    std::optional<video::Video> decoded_input;
    {
        obs::ScopedSpan span(tracer, obs::Track::Transcode,
                             obs::Stage::DecodeInput);
        decoded_input = codec::decode(input, dec_cfg);
    }
    outcome.stages.set(obs::Stage::DecodeInput,
                       obs::nowSeconds() - start);
    if (!decoded_input) {
        outcome.error = "input stream undecodable";
        return outcome;
    }
    if (cancelled()) {
        outcome.error = "cancelled";
        return outcome;
    }

    // Frame statistics survive the encode for the metrics sink.
    std::vector<codec::FrameStats> frame_stats;
    const double encode_start = obs::nowSeconds();
    {
        obs::ScopedSpan span(tracer, obs::Track::Transcode,
                             obs::Stage::Encode);
        BackendEncodeResult enc = backend->encode(*decoded_input);
        outcome.stream = std::move(enc.encoded.stream);
        frame_stats = std::move(enc.encoded.frames);
        outcome.rc_state = enc.encoded.rc_state;
        outcome.slice_count = enc.encoded.slice_count;
        if (enc.modeled_seconds) {
            // Fixed-function pipeline: report the model's time, and
            // expose it as its own phase stage.
            outcome.seconds = *enc.modeled_seconds;
            outcome.stages.set(obs::Stage::HwPipeline, outcome.seconds);
        } else {
            outcome.seconds = obs::nowSeconds() - start;
        }
    }
    outcome.stages.set(obs::Stage::Encode,
                       obs::nowSeconds() - encode_start);
    if (cancelled()) {
        outcome.error = "cancelled";
        return outcome;
    }

    // Decode our own output to measure true quality. This is
    // measurement overhead, not transcode work: it runs after the
    // `seconds` snapshot and stays off the tracer, so traced leaf
    // totals remain comparable to the reported wall clock.
    const double decode_out_start = obs::nowSeconds();
    std::optional<video::Video> decoded_output;
    {
        obs::ScopedSpan span(tracer, obs::Track::Transcode,
                             obs::Stage::DecodeOutput);
        decoded_output = backend->decodeOutput(outcome.stream);
    }
    outcome.stages.set(obs::Stage::DecodeOutput,
                       obs::nowSeconds() - decode_out_start);
    if (!decoded_output) {
        outcome.error = "produced stream undecodable";
        return outcome;
    }

    const double measure_start = obs::nowSeconds();
    {
        obs::ScopedSpan span(tracer, obs::Track::Transcode,
                             obs::Stage::Measure);
        outcome.m = measure(original, *decoded_output,
                            outcome.stream.size(), outcome.seconds);
    }
    outcome.stages.set(obs::Stage::Measure,
                       obs::nowSeconds() - measure_start);
    outcome.ok = true;
    // The on-worker share of the critical path; the scheduler and
    // service layer in queue_wait / rc_chain / stitch around it.
    outcome.critical_path.encode_ms = outcome.seconds * 1e3;

    if (tracer) {
        // This run's leaf-stage share of the tracer's accumulation
        // (single writer per tracer assumed — see obs/obs.h).
        const obs::StageTotals delta =
            tracer->stageTotals().minus(leaf_before);
        for (int i = 0; i < obs::kNumStages; ++i) {
            const auto stage = static_cast<obs::Stage>(i);
            if (obs::isLeafStage(stage))
                outcome.stages.set(stage, delta.get(stage));
        }
    }

    if (metrics) {
        metrics->counter("transcode.runs").add();
        metrics->counter(std::string("transcode.runs.") +
                         toString(request.kind)).add();
        metrics->counter("encode.frames").add(frame_stats.size());
        obs::Histogram &frame_bytes =
            metrics->histogram("encode.frame_bytes");
        obs::Histogram &frame_qp = metrics->histogram("encode.frame_qp");
        uint64_t intra_mbs = 0;
        uint64_t skip_mbs = 0;
        for (const codec::FrameStats &f : frame_stats) {
            frame_bytes.observe(f.bytes);
            frame_qp.observe(static_cast<uint64_t>(f.qp));
            intra_mbs += f.intra_mbs;
            skip_mbs += f.skip_mbs;
        }
        metrics->counter("encode.intra_mbs").add(intra_mbs);
        metrics->counter("encode.skip_mbs").add(skip_mbs);
        if (ft_decision.clamped)
            metrics->counter("encode.frame_threads_clamped").add();
        metrics->histogram("transcode.seconds_ms")
            .observe(static_cast<uint64_t>(outcome.seconds * 1e3));
    }

    return outcome;
}

RunReport
makeRunReport(std::string label, const TranscodeRequest &request,
              const TranscodeOutcome &outcome)
{
    RunReport report;
    report.label = std::move(label);
    report.backend = toString(request.kind);
    report.kernel_isa = kernels::isaName(kernels::activeIsa());
    report.m = outcome.m;
    report.seconds = outcome.seconds;
    report.stream_bytes = outcome.stream.size();
    report.stages = outcome.stages;
    report.frame_threads = outcome.frame_threads;
    report.extra.emplace_back("ok", outcome.ok ? 1.0 : 0.0);
    report.extra.emplace_back("slice_count", outcome.slice_count);
    if (request.span.valid())
        report.extra_str.emplace_back(
            "trace_id", std::to_string(request.span.trace_id));
    if (request.kind == EncoderKind::Vbc)
        report.extra.emplace_back("effort", request.effort);
    if (request.kind == EncoderKind::NgcHevc ||
        request.kind == EncoderKind::NgcVp9)
        report.extra.emplace_back("ngc_speed", request.ngc_speed);
    return report;
}

} // namespace vbench::core
