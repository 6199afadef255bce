#pragma once

/**
 * @file
 * The repository benchmark (perfbench/README.md): one program that plays
 * two named workloads through service::TranscodeService's public API,
 * scores them end to end from an untraced run, and attributes the time
 * layer by layer from a separate traced run of the same seed. Nothing
 * here is compiled into the program under test; every number comes from
 * the program's public outputs or from timing the benchmark's own calls
 * into a layer's public functions.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/cache.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sched/scheduler.h"
#include "service/executor.h"
#include "service/segment_job.h"
#include "service/service.h"
#include "service/workload.h"

namespace perfbench {

using namespace vbench;

/** Command line, already validated. */
struct Options {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string worker_bin;  ///< vbench_worker for live_proc
    std::string state_dir;   ///< per-seed output digests live here
    std::string git = "unknown";
};

/**
 * One named workload: what to synthesize, what to play, and how the
 * service is sized. Everything is a pure function of (name, seed, pass
 * length), so the same seed replays the same inputs.
 */
struct WorkloadSpec {
    std::string name;
    /// Clips as (spec, frames); built with service::buildCorpus.
    std::vector<std::pair<video::ClipSpec, int>> clips;
    int segment_frames = 8;
    /// The timed run. Clip indices refer to `clips`.
    std::vector<service::ServiceRequest> requests;
    /// Untimed cache fill played at setup (vod_batch).
    std::vector<service::ServiceRequest> prewarm;
    bool proc = false;           ///< fork/exec'd vbench_worker children
    size_t cache_bytes = 0;      ///< 0 = no output cache
    size_t admission_capacity = 0;
    int workers = 1;
    /// Codecs exercised once per worker during warm-up.
    std::vector<core::TranscodeRequest> warm_codecs;
};

/** The workload for one pass of `seconds`; empty name if unknown. */
WorkloadSpec makeWorkload(const std::string &name, uint64_t seed,
                          double seconds, int nproc);

/** One segment the dispatcher handed to the executor. */
struct SegmentRecord {
    service::SegmentJob job;  ///< input bytes dropped unless kept
    int frames = 0;           ///< segment frames (from the original)
    sched::JobHandle handle;
};

/**
 * The execution seam, wrapped: forwards every segment to the in-process
 * scheduler pool or an rpc::RemotePool and keeps the handle, so each
 * segment's submit/start/end stamps, outcome and stage totals can be
 * read after the run.
 */
class RecordingExecutor final : public service::SegmentExecutor
{
  public:
    /** In-process pool of `workers` threads merging into the sinks. */
    RecordingExecutor(int workers, obs::Tracer *tracer,
                      obs::MetricsRegistry *metrics);
    /** Remote pool of `workers` vbench_worker children. */
    RecordingExecutor(int workers, const std::string &worker_bin,
                      obs::Tracer *tracer);
    ~RecordingExecutor() override;

    RecordingExecutor(const RecordingExecutor &) = delete;
    RecordingExecutor &operator=(const RecordingExecutor &) = delete;

    sched::JobHandle
    submit(service::SegmentJob job,
           std::shared_ptr<const video::Video> original) override;

    int workers() const override { return inner_->workers(); }
    size_t queueCapacity() const override
    {
        return inner_->queueCapacity();
    }
    size_t activeJobs() const override { return inner_->activeJobs(); }
    bool remote() const override { return inner_->remote(); }
    service::ExecutorStats stats() const override
    {
        return inner_->stats();
    }
    void drainObs() override { inner_->drainObs(); }

    /** Start keeping submissions (after warm-up). */
    void startRecording(bool keep_inputs);
    /** The recorded submissions; recording stops. */
    std::vector<SegmentRecord> takeRecords();
    /** Block until every child finished its handshake. */
    bool waitAlive(double timeout_s) const;

  private:
    std::unique_ptr<service::SegmentExecutor> inner_;
    bool recording_ = false;
    bool keep_inputs_ = false;
    std::vector<SegmentRecord> records_;
};

/** Everything one setup produced, ready for a timed run. */
struct Prepared {
    service::Corpus corpus;
    std::unique_ptr<cache::TranscodeCache> cache;
    std::unique_ptr<RecordingExecutor> exec;
    double corpus_s = 0;   ///< synthesis + universal-stream encode
    double prewarm_s = 0;  ///< cache pre-warm run
    double spawn_s = 0;    ///< pool start until every worker is ready
    double warmup_s = 0;   ///< spawn + one segment per codec per worker
    double warm_child_cpu_s = 0;  ///< child seconds spent in warm-up
    double total_s = 0;
};

Prepared prepare(const WorkloadSpec &spec, const Options &opt,
                 obs::Tracer *tracer, obs::MetricsRegistry *metrics);

/** Delivered-output verification of one run. */
struct Verified {
    bool correct = true;
    std::vector<std::string> errors;
    uint64_t delivered_streams = 0;
    uint64_t delivered_pixels = 0;  ///< luma pixels of delivered frames
    uint64_t delivered_bits = 0;
    double psnr_db = 0;             ///< mean over delivered streams
    uint64_t segments_due = 0;
    uint64_t segments_failed = 0;   ///< failed, shed, or unverified
    std::string digest;
};

Verified verifyOutputs(const WorkloadSpec &spec, const Prepared &prep,
                       const service::ServiceResult &result, int threads);

/** Exact per-segment timing recovered from the records. */
struct SegmentTiming {
    uint64_t request_id = 0;
    std::string rung;
    int segment = 0;
    double latency_ms = 0;     ///< completion - due
    double pre_submit_ms = 0;  ///< due - submit
    double queue_ms = 0;       ///< submit - start
    bool ok = false;
    bool missed = false;       ///< past its deadline
};

/**
 * Per-segment timing on the service's own clock. The service's t0 is
 * recovered from the scorecard's exemplars (each carries the exact
 * pre-submit wait of a recorded segment), so latencies are exact rather
 * than histogram buckets.
 */
std::vector<SegmentTiming>
segmentTimings(const WorkloadSpec &spec, const service::Corpus &corpus,
               const std::vector<SegmentRecord> &records,
               const service::ServiceResult &result, uint64_t *t0_ns_out);

/** A named per-layer number. */
struct LayerMetric {
    std::string name;
    double value = 0;
    std::string unit;
};

/** Inputs the layer computations read. */
struct TracedRun {
    const WorkloadSpec *spec = nullptr;
    const Prepared *prep = nullptr;
    const service::ServiceResult *result = nullptr;
    const std::vector<SegmentRecord> *records = nullptr;
    const std::vector<SegmentTiming> *timings = nullptr;
    service::ExecutorStats exec_stats;
    const obs::Tracer *tracer = nullptr;
    double untraced_headline = 0;
    double traced_headline = 0;
    bool headline_higher_is_better = false;
    /// Set-up medians over the untraced passes.
    double setup_corpus_s = 0;
    double setup_warmup_s = 0;
    double setup_spawn_ms = 0;
};

/**
 * Every per-layer metric, in the order BENCHMARK.json lists them, plus
 * the three consistency checks (which append to `checks`).
 */
std::vector<LayerMetric> layerMetrics(const TracedRun &run,
                                      const Options &opt,
                                      std::vector<std::string> *checks);

/** Median of a sample (0 for an empty one). */
double median(std::vector<double> v);

/** Linear-interpolated quantile q in [0, 1] (0 for an empty sample). */
double quantile(std::vector<double> v, double q);

} // namespace perfbench
