#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <thread>

#include "core/transcoder.h"
#include "kernels/kernel_ops.h"
#include "obs/clock.h"
#include "perfbench.h"
#include "rpc/remote_pool.h"
#include "video/rng.h"

namespace perfbench {

namespace {

using obs::Stage;

double
mean(const std::vector<double> &v)
{
    double s = 0;
    for (const double x : v)
        s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double
ms(uint64_t ns)
{
    return static_cast<double>(ns) * 1e-6;
}

/** Keeps the optimizer from discarding a benchmarked result. */
volatile uint64_t g_sink = 0;

/**
 * Median nanoseconds per call of `body(i)` over 5 timed batches of
 * `calls` calls each, after one untimed batch.
 */
template <typename F>
double
nsPerCall(int calls, F &&body)
{
    std::vector<double> reps;
    for (int rep = 0; rep < 6; ++rep) {
        uint64_t acc = 0;
        const uint64_t t0 = obs::nowNs();
        for (int i = 0; i < calls; ++i)
            acc += body(i);
        const uint64_t t1 = obs::nowNs();
        g_sink = g_sink + acc;
        if (rep > 0)
            reps.push_back(static_cast<double>(t1 - t0) / calls);
    }
    return median(reps);
}

/**
 * The pixel kernels at the host's active ISA, on fixed seeded buffers.
 * Each call walks to a different offset so no two calls see the same
 * operands.
 */
void
kernelMetrics(uint64_t seed, std::vector<LayerMetric> &out)
{
    const kernels::KernelOps &k = kernels::ops();
    constexpr int kStride = 128;
    constexpr int kRows = 96;
    std::vector<uint8_t> a(kStride * kRows), b(kStride * kRows),
        scratch(kStride * kRows);
    video::Rng rng(seed ^ 0x6B65726E656C73ull);
    for (size_t i = 0; i < a.size(); ++i) {
        a[i] = static_cast<uint8_t>(rng.below(256));
        b[i] = static_cast<uint8_t>(
            std::clamp<int>(a[i] + static_cast<int>(rng.below(17)) - 8, 0,
                            255));
    }
    std::vector<int16_t> res(64 * 16);
    std::vector<int32_t> coefs(64 * 16);
    for (size_t i = 0; i < res.size(); ++i) {
        res[i] = static_cast<int16_t>(static_cast<int>(rng.below(129)) - 64);
        coefs[i] = static_cast<int32_t>(rng.below(2001)) - 1000;
    }
    const auto at = [](int i) {
        return (i * 7 % 48) * kStride + (i * 13 % 64);
    };
    int16_t levels[16];
    int16_t out16[16];
    int32_t out32[16];

    out.push_back({"kernels.sad_ns", nsPerCall(20000, [&](int i) {
                       return k.sad(a.data() + at(i), kStride,
                                    b.data() + at(i + 1), kStride, 16, 16);
                   }),
                   "ns"});
    out.push_back({"kernels.satd_ns", nsPerCall(20000, [&](int i) {
                       return k.satd(a.data() + at(i), kStride,
                                     b.data() + at(i + 1), kStride, 16, 16);
                   }),
                   "ns"});
    out.push_back({"kernels.interp_ns", nsPerCall(20000, [&](int i) {
                       k.interpHV(a.data() + at(i), kStride,
                                  scratch.data() + at(i), kStride, 16, 16);
                       return static_cast<uint64_t>(scratch[at(i)]);
                   }),
                   "ns"});
    out.push_back({"kernels.fwd_tx_ns", nsPerCall(100000, [&](int i) {
                       k.fwdTx4x4(res.data() + (i % 60) * 16, out32);
                       return static_cast<uint64_t>(out32[i & 15]);
                   }),
                   "ns"});
    out.push_back({"kernels.inv_tx_ns", nsPerCall(100000, [&](int i) {
                       k.invTx4x4(coefs.data() + (i % 60) * 16, out16);
                       return static_cast<uint64_t>(out16[i & 15]);
                   }),
                   "ns"});
    out.push_back({"kernels.quant_ns", nsPerCall(100000, [&](int i) {
                       return static_cast<uint64_t>(
                           k.quant4x4(coefs.data() + (i % 60) * 16, levels,
                                      20 + i % 20, (i & 1) != 0));
                   }),
                   "ns"});
    // Filtering a private copy in place: every pass sees data the
    // previous one smoothed, which is what a real edge run does too.
    out.push_back({"kernels.deblock_ns", nsPerCall(100000, [&](int i) {
                       uint8_t *q0 = scratch.data() + 4 * kStride +
                           at(i) % (40 * kStride);
                       k.deblockEdgeH(q0, kStride, 16, 40, 10, 4);
                       return static_cast<uint64_t>(q0[0]);
                   }),
                   "ns"});
    out.push_back({"kernels.psnr_sse_ns", nsPerCall(5000, [&](int i) {
                       return k.sse8(a.data() + (i % 64),
                                     b.data() + (i % 61), 4096);
                   }),
                   "ns"});
    out.push_back({"kernels.ssim_ns", nsPerCall(50000, [&](int i) {
                       uint32_t sums[5];
                       k.ssimWindowSums(a.data() + at(i), kStride,
                                        b.data() + at(i + 3), kStride, 8, 8,
                                        sums);
                       return static_cast<uint64_t>(sums[4]);
                   }),
                   "ns"});
}

/** One executed segment with its measured stages. */
struct StageSample {
    core::EncoderKind kind = core::EncoderKind::Vbc;
    int frames = 0;
    obs::StageTotals stages;
};

/**
 * Per-frame wavefront span (first row start to last row end) and
 * entropy tail (wavefront end to the last entropy slice's end; the
 * serial single-slice pass when a frame has no slice spans), read from
 * the encoder's own spans. A scheduler worker (or the serial replay)
 * records one job at a time into its shard and shards merge whole, so
 * every frame's row and slice spans sit between the previous frame's
 * span and its own.
 */
void
frameSpans(const std::vector<obs::TraceEvent> &events, double *wavefront_ms,
           double *tail_ms)
{
    struct Pending {
        uint64_t row_start = UINT64_MAX;
        uint64_t row_end = 0;
        uint64_t slice_end = 0;
        bool serial_tail = false;
        int32_t frame = -1;
    };
    std::map<obs::Track, Pending> pend;
    double wf = 0, tail = 0;
    uint64_t frames = 0;
    for (const obs::TraceEvent &e : events) {
        if (e.track != obs::Track::VbcEncode &&
            e.track != obs::Track::NgcEncode)
            continue;
        Pending &p = pend[e.track];
        if (e.stage == Stage::WavefrontRow) {
            p.row_start = std::min(p.row_start, e.start_ns);
            p.row_end = std::max(p.row_end, e.start_ns + e.dur_ns);
        } else if (e.stage == Stage::EntropySlice) {
            p.slice_end = std::max(p.slice_end, e.start_ns + e.dur_ns);
        } else if (e.stage == Stage::Other && !e.synthetic &&
                   e.frame >= 0) {
            if (p.row_end > 0) {
                ++frames;
                wf += ms(p.row_end - p.row_start);
                if (p.slice_end > p.row_end)
                    tail += ms(p.slice_end - p.row_end);
            }
            const bool serial = p.row_end > 0 && p.slice_end == 0;
            p = Pending{};
            p.serial_tail = serial;
            p.frame = e.frame;
        } else if (e.synthetic && e.stage == Stage::EntropyCoding &&
                   p.serial_tail && e.frame == p.frame) {
            tail += ms(e.dur_ns);
            p.serial_tail = false;
        }
    }
    *wavefront_ms = frames ? wf / static_cast<double>(frames) : 0.0;
    *tail_ms = frames ? tail / static_cast<double>(frames) : 0.0;
}

const Stage kVbcLeaves[] = {
    Stage::FrameSetup,  Stage::MotionEstimation, Stage::IntraDecision,
    Stage::ModeDecision, Stage::TransformQuant, Stage::EntropyCoding,
    Stage::Deblock,      Stage::RateControl,     Stage::Reconstruct,
};
// NGC searches motion inside its partition RDO, so it has no motion
// estimation stage of its own; frame set-up takes that slot.
const Stage kNgcLeaves[] = {
    Stage::PartitionSearch, Stage::FrameSetup,    Stage::IntraDecision,
    Stage::TransformQuant,  Stage::EntropyCoding, Stage::Deblock,
    Stage::Reconstruct,
};

/** The encode-side leaves: everything but the decoder's frames. */
double
encodeLeafSeconds(const obs::StageTotals &s)
{
    return s.leafSeconds() - s.get(Stage::DecodeFrame);
}

bool
isNgc(core::EncoderKind kind)
{
    return kind == core::EncoderKind::NgcHevc ||
        kind == core::EncoderKind::NgcVp9;
}

/** The run's own segment, transcoded again on this thread, traced. */
StageSample
replay(const SegmentRecord &rec, const WorkloadSpec &spec,
       const Prepared &prep, obs::Tracer &tracer,
       std::optional<core::EncoderKind> kind = std::nullopt)
{
    const service::ServiceRequest &req = spec.requests[rec.job.request_id];
    const service::CorpusClip &clip = prep.corpus.clips[req.clip];
    const size_t k = static_cast<size_t>(rec.job.segment_index);
    core::TranscodeRequest params = rec.job.params;
    params.tracer = &tracer;
    if (kind) {
        params.kind = *kind;
        params.ngc_speed = 1;
        params.rc_in.reset();
    }
    const core::TranscodeOutcome o =
        core::transcode(rec.job.input, *clip.seg_original[k], params);
    return {params.kind, rec.frames, o.stages};
}

} // namespace

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::vector<LayerMetric>
layerMetrics(const TracedRun &run, const Options &opt,
             std::vector<std::string> *checks)
{
    const WorkloadSpec &spec = *run.spec;
    const Prepared &prep = *run.prep;
    const std::vector<SegmentRecord> &records = *run.records;
    const bool remote = spec.proc;
    std::vector<LayerMetric> out;

    kernelMetrics(opt.seed, out);

    // ---- Stage samples: the run's own jobs when they ran in-process
    // (traced through the scheduler shards), else an in-process replay
    // of a fixed subset (proc workers run untraced). ----
    std::vector<StageSample> samples;
    obs::Tracer replay_tracer;
    std::vector<obs::TraceEvent> encode_events;
    if (!remote) {
        for (const SegmentRecord &r : records) {
            const sched::JobResult &jr = r.handle.wait();
            if (jr.ok())
                samples.push_back(
                    {r.job.params.kind, r.frames, jr.outcome.stages});
        }
        encode_events = run.tracer->traceEvents();
    } else {
        const size_t step = std::max<size_t>(1, records.size() / 32);
        for (size_t i = 0; i < records.size(); i += step)
            samples.push_back(replay(records[i], spec, prep, replay_tracer));
        encode_events = replay_tracer.traceEvents();
    }

    // ---- codec (VBC) ----
    {
        obs::StageTotals sum;
        double frames = 0, input_frames = 0, encode_s = 0, leaf_s = 0;
        for (const StageSample &s : samples) {
            input_frames += s.frames;
            for (int i = 0; i < obs::kNumStages; ++i)
                if (s.kind == core::EncoderKind::Vbc ||
                    static_cast<Stage>(i) == Stage::DecodeFrame)
                    sum.add(static_cast<Stage>(i), s.stages.seconds[i]);
            if (s.kind != core::EncoderKind::Vbc)
                continue;
            frames += s.frames;
            encode_s += s.stages.get(Stage::Encode);
            leaf_s += encodeLeafSeconds(s.stages);
        }
        const double per = frames > 0 ? 1e3 / frames : 0.0;
        for (const Stage st : kVbcLeaves)
            out.push_back({std::string("codec.") + obs::toString(st) + "_ms",
                           sum.get(st) * per, "ms"});
        out.push_back({"codec.decode_frame_ms",
                       input_frames > 0
                           ? sum.get(Stage::DecodeFrame) * 1e3 / input_frames
                           : 0.0,
                       "ms"});
        const double residual =
            encode_s > 0 ? (encode_s - leaf_s) / encode_s : 0.0;
        out.push_back({"codec.leaf_residual_frac", residual, "fraction"});
        constexpr double kLeafTolerance = 0.10;
        if (std::abs(residual) > kLeafTolerance) {
            char buf[160];
            std::snprintf(buf, sizeof buf,
                          "codec.leaf_residual_frac %.3f outside +-%.2f: "
                          "leaf stages %.3f s vs encode phase %.3f s",
                          residual, kLeafTolerance, leaf_s, encode_s);
            checks->push_back(buf);
        }
    }

    // ---- ngc: the run's NGC rungs, or (bypassed) one of the run's
    // segments re-encoded with the HEVC-like profile. ----
    {
        std::vector<StageSample> ngc;
        for (const StageSample &s : samples)
            if (isNgc(s.kind))
                ngc.push_back(s);
        if (ngc.empty() && !records.empty()) {
            obs::Tracer probe;
            ngc.push_back(replay(records.front(), spec, prep, probe,
                                 core::EncoderKind::NgcHevc));
        }
        obs::StageTotals sum;
        double frames = 0;
        for (const StageSample &s : ngc) {
            frames += s.frames;
            for (int i = 0; i < obs::kNumStages; ++i)
                sum.add(static_cast<Stage>(i), s.stages.seconds[i]);
        }
        for (const Stage st : kNgcLeaves)
            out.push_back({std::string("ngc.") + obs::toString(st) + "_ms",
                           frames > 0 ? sum.get(st) * 1e3 / frames : 0.0,
                           "ms"});
    }

    // ---- core: driver phases per segment ----
    {
        double n = 0;
        obs::StageTotals sum;
        for (const StageSample &s : samples) {
            n += 1;
            for (int i = 0; i < obs::kNumStages; ++i)
                sum.add(static_cast<Stage>(i), s.stages.seconds[i]);
        }
        const double per = n > 0 ? 1e3 / n : 0.0;
        for (const Stage st : {Stage::DecodeInput, Stage::Encode,
                               Stage::DecodeOutput, Stage::Measure})
            out.push_back({std::string("core.") + obs::toString(st) + "_ms",
                           sum.get(st) * per, "ms"});
    }

    // ---- sched ----
    {
        double busy = 0;
        uint64_t clamped = 0;
        for (const SegmentRecord &r : records) {
            const sched::JobResult &jr = r.handle.wait();
            if (jr.end_ns > jr.start_ns)
                busy += static_cast<double>(jr.end_ns - jr.start_ns) * 1e-9;
            if (r.job.params.frame_threads > 0 &&
                jr.outcome.frame_threads < r.job.params.frame_threads)
                ++clamped;
        }
        const double wall = run.result->wall_seconds;
        out.push_back({"sched.worker_busy_frac",
                       wall > 0 ? busy / (spec.workers * wall) : 0.0,
                       "fraction"});
        out.push_back({"sched.frame_threads_clamped",
                       static_cast<double>(clamped), "count"});
        double wf = 0, tail = 0;
        frameSpans(encode_events, &wf, &tail);
        out.push_back({"sched.wavefront_ms_per_frame", wf, "ms"});
        out.push_back({"sched.entropy_tail_ms_per_frame", tail, "ms"});
    }

    // ---- service: the dispatcher's own request/segment scopes ----
    {
        const std::vector<obs::ScopeEvent> scopes = run.tracer->scopeEvents();
        std::map<uint64_t, const obs::ScopeEvent *> root, wait;
        std::map<uint64_t, uint64_t> request_of_trace;
        std::map<uint64_t, std::vector<const obs::ScopeEvent *>> children;
        std::vector<double> stitch;
        for (const obs::ScopeEvent &s : scopes) {
            children[s.span.parent_id].push_back(&s);
            if (s.span.parent_id == 0 && s.name.rfind("request ", 0) == 0) {
                root[s.span.trace_id] = &s;
                request_of_trace[s.span.trace_id] =
                    std::stoull(s.name.substr(8));
            } else if (s.name == "admission_wait") {
                wait[s.span.trace_id] = &s;
            } else if (s.name.rfind("stitch ", 0) == 0) {
                stitch.push_back(ms(s.dur_ns));
            }
        }
        std::vector<double> lag, waits;
        for (const auto &[trace, w] : wait) {
            waits.push_back(ms(w->dur_ns));
            const auto r = root.find(trace);
            if (r != root.end() && w->start_ns >= r->second->start_ns)
                lag.push_back(ms(w->start_ns - r->second->start_ns));
        }
        std::vector<double> pre, queue;
        for (const SegmentTiming &t : *run.timings) {
            pre.push_back(t.pre_submit_ms);
            queue.push_back(t.queue_ms);
        }
        // Little's law over the admission_wait spans: the telemetry
        // ring keeps only the last few seconds of a run.
        double waited_ms = 0;
        for (const double w : waits)
            waited_ms += w;
        const double wall_ms = run.result->wall_seconds * 1e3;
        const double depth = wall_ms > 0 ? waited_ms / wall_ms : 0.0;

        // Tiling: the benchmark's exact latency for each segment
        // against the service's queued scope plus the executor's
        // encode scope (children of the segment's span).
        std::map<std::string, const SegmentTiming *> timing_of;
        for (const SegmentTiming &t : *run.timings)
            timing_of[std::to_string(t.request_id) + "." + t.rung + ".s" +
                      std::to_string(t.segment)] = &t;
        std::vector<double> residuals;
        for (const obs::ScopeEvent &s : scopes) {
            if (s.name.rfind("segment ", 0) != 0)
                continue;
            const auto req = request_of_trace.find(s.span.trace_id);
            if (req == request_of_trace.end())
                continue;
            const auto t = timing_of.find(std::to_string(req->second) +
                                          "." + s.name.substr(8));
            if (t == timing_of.end())
                continue;
            const obs::ScopeEvent *queued = nullptr, *encode = nullptr;
            for (const obs::ScopeEvent *c : children[s.span.span_id]) {
                if (c->name.rfind("queued ", 0) == 0)
                    queued = c;
                else if (c->name.rfind("encode ", 0) == 0)
                    encode = c;
            }
            if (!queued || !encode || queued->start_ns < s.start_ns)
                continue;
            const double tiled = ms(queued->start_ns - s.start_ns) +
                ms(queued->dur_ns) + ms(encode->dur_ns);
            residuals.push_back(std::abs(t->second->latency_ms - tiled));
        }
        out.push_back({"service.offer_lag_ms", mean(lag), "ms"});
        out.push_back({"service.admission_wait_p95_ms",
                       quantile(waits, 0.95), "ms"});
        out.push_back({"service.pre_submit_ms", mean(pre), "ms"});
        out.push_back({"service.queue_wait_ms", mean(queue), "ms"});
        out.push_back({"service.stitch_ms", mean(stitch), "ms"});
        out.push_back({"service.queue_depth_mean", depth, "requests"});
        const double worst =
            residuals.empty()
                ? 0.0
                : *std::max_element(residuals.begin(), residuals.end());
        out.push_back({"service.tiling_residual_ms", mean(residuals), "ms"});
        constexpr double kTilingToleranceMs = 0.05;
        if (worst > kTilingToleranceMs || residuals.size() != run.timings->size()) {
            char buf[160];
            std::snprintf(buf, sizeof buf,
                          "service.tiling_residual_ms worst %.4f ms (limit "
                          "%.2f) over %zu of %zu segments",
                          worst, kTilingToleranceMs, residuals.size(),
                          run.timings->size());
            checks->push_back(buf);
        }
    }

    // ---- rpc: the wire cost of the run's own jobs, and the
    // supervisor's round trip (on in-process workloads, a one-worker
    // probe pool carrying two of the run's segments). ----
    {
        std::vector<double> bytes, ser_us;
        for (const SegmentRecord &r : records) {
            const sched::JobResult &jr = r.handle.wait();
            service::SegmentResult sr;
            sr.request_id = r.job.request_id;
            sr.rung = r.job.rung;
            sr.segment_index = r.job.segment_index;
            sr.ok = jr.ok();
            sr.error = jr.outcome.error;
            sr.stream = jr.outcome.stream;
            sr.rc_state = jr.outcome.rc_state;
            sr.critical_path = jr.outcome.critical_path;
            sr.m = jr.outcome.m;
            sr.seconds = jr.seconds;
            sr.frame_threads = jr.outcome.frame_threads;
            sr.slice_count = jr.outcome.slice_count;
            const uint64_t t0 = obs::nowNs();
            const codec::ByteBuffer job_bytes = r.job.serialize();
            const codec::ByteBuffer result_bytes = sr.serialize();
            const uint64_t t1 = obs::nowNs();
            bytes.push_back(
                static_cast<double>(job_bytes.size() + result_bytes.size()));
            ser_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
        }

        std::vector<double> overhead;
        service::ExecutorStats st = run.exec_stats;
        double spawn_ms = run.setup_spawn_ms;
        const auto roundTrips = [&overhead](const sched::JobResult &jr) {
            if (jr.ok() && jr.end_ns > jr.start_ns)
                overhead.push_back(ms(jr.end_ns - jr.start_ns) -
                                   jr.seconds * 1e3);
        };
        if (remote) {
            for (const SegmentRecord &r : records)
                roundTrips(r.handle.wait());
        } else if (!records.empty() && !opt.worker_bin.empty()) {
            const uint64_t t0 = obs::nowNs();
            RecordingExecutor probe(1, opt.worker_bin, nullptr);
            probe.waitAlive(30.0);
            spawn_ms = ms(obs::nowNs() - t0);
            const SegmentRecord &rec = records.front();
            const service::ServiceRequest &req =
                spec.requests[rec.job.request_id];
            const auto original =
                prep.corpus.clips[req.clip]
                    .seg_original[static_cast<size_t>(rec.job.segment_index)];
            // All three at once: the single slot then drains them back to
            // back. (Submitting one at a time to an idle one-slot pool
            // can strand a job: RemotePool's hedge thread shares the
            // slots' condition variable and may swallow the wake-up.)
            std::vector<sched::JobHandle> trips;
            for (int i = 0; i < 3; ++i)
                trips.push_back(probe.submit(rec.job, original));
            const double deadline = obs::nowSeconds() + 60.0;
            for (size_t i = 0; i < trips.size(); ++i) {
                while (!trips[i].finished() && obs::nowSeconds() < deadline)
                    std::this_thread::sleep_for(std::chrono::milliseconds(1));
                if (!trips[i].finished()) {
                    checks->push_back("rpc probe: a job never left the "
                                      "RemotePool queue");
                    break;
                }
                // The first trip warms the child; score the others.
                if (i > 0)
                    roundTrips(trips[i].wait());
            }
            st = probe.stats();
        }
        out.push_back({"rpc.round_trip_overhead_ms", mean(overhead), "ms"});
        out.push_back({"rpc.wire_bytes_per_job", mean(bytes), "bytes"});
        out.push_back({"rpc.serialize_us_per_job", median(ser_us), "us"});
        out.push_back({"rpc.hedges", static_cast<double>(st.hedges), "count"});
        out.push_back({"rpc.hedge_waste_frac",
                       st.dispatched > 0
                           ? static_cast<double>(st.hedge_losses) /
                               static_cast<double>(st.dispatched)
                           : 0.0,
                       "fraction"});
        out.push_back(
            {"rpc.retries", static_cast<double>(st.retries), "count"});
        out.push_back(
            {"rpc.timeouts", static_cast<double>(st.timeouts), "count"});
        out.push_back(
            {"rpc.respawns", static_cast<double>(st.respawns), "count"});
        out.push_back({"rpc.spawn_ms", spawn_ms, "ms"});
    }

    // ---- cache: the run's hit rate, and the run's own keys and
    // results replayed through a fresh cache of the same kind. ----
    {
        cache::CacheConfig cc;
        cc.capacity_bytes = spec.cache_bytes > 0 ? spec.cache_bytes
                                                 : 256ull << 20;
        cc.policy = cache::CachePolicy::AlwaysStore;
        cache::TranscodeCache replay_cache(cc);
        std::vector<cache::CacheKey> keys;
        std::vector<double> key_us, insert_us, lookup_us;
        for (const SegmentRecord &r : records) {
            const sched::JobResult &jr = r.handle.wait();
            uint64_t t0 = obs::nowNs();
            const cache::CacheKey key = r.job.cacheKey();
            uint64_t t1 = obs::nowNs();
            key_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
            cache::CachedSegment cs;
            cs.stream = jr.outcome.stream;
            cs.rc_out = jr.outcome.rc_state;
            cs.psnr_db = jr.outcome.m.psnr_db;
            cs.bitrate_bpps = jr.outcome.m.bitrate_bpps;
            cs.encode_seconds = jr.seconds;
            t0 = obs::nowNs();
            replay_cache.insert(key, std::move(cs), 0.0);
            t1 = obs::nowNs();
            insert_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
            keys.push_back(key);
        }
        for (const cache::CacheKey &key : keys) {
            const uint64_t t0 = obs::nowNs();
            const auto got = replay_cache.lookup(key, 0.0);
            const uint64_t t1 = obs::nowNs();
            g_sink = g_sink + (got ? got->stream.size() : 0);
            lookup_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
        }
        // The run's own hits; the cache's counters also hold set-up's
        // pre-warm lookups.
        uint64_t hits = 0, segments = 0;
        for (const service::ScenarioScore &sc : run.result->sla.scenarios) {
            hits += sc.cache_hits;
            segments += sc.segments;
        }
        const cache::CacheStats &cs = run.result->cache_stats;
        out.push_back({"cache.hit_rate",
                       segments > 0 ? static_cast<double>(hits) /
                               static_cast<double>(segments)
                                    : 0.0,
                       "fraction"});
        out.push_back({"cache.key_us", mean(key_us), "us"});
        out.push_back({"cache.lookup_us", mean(lookup_us), "us"});
        out.push_back({"cache.insert_us", mean(insert_us), "us"});
        out.push_back({"cache.resident_mb",
                       static_cast<double>(cs.resident_bytes) / (1 << 20),
                       "MB"});
    }

    // ---- obs: what tracing cost on the headline metric ----
    {
        double frac = 0;
        if (run.untraced_headline > 0 && run.traced_headline > 0)
            frac = run.headline_higher_is_better
                ? run.untraced_headline / run.traced_headline - 1.0
                : run.traced_headline / run.untraced_headline - 1.0;
        out.push_back({"obs.trace_overhead_frac", frac, "fraction"});
        // Host noise alone moves a headline this much between runs.
        constexpr double kTraceTolerance = 0.25;
        if (std::abs(frac) > kTraceTolerance) {
            char buf[128];
            std::snprintf(buf, sizeof buf,
                          "obs.trace_overhead_frac %.3f outside +-%.2f",
                          frac, kTraceTolerance);
            checks->push_back(buf);
        }
    }

    out.push_back({"setup.corpus_s", run.setup_corpus_s, "s"});
    out.push_back({"setup.warmup_s", run.setup_warmup_s, "s"});
    return out;
}

} // namespace perfbench
