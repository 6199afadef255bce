/**
 * @file
 * perfbench: the repository benchmark (perfbench/README.md).
 *
 *   perfbench --workload vod_batch|live_proc --seed N --seconds S
 *             --trace 0|1 --worker-bin PATH [--state-dir DIR]
 *             [--git DESCRIBE]
 *
 * Plays five untraced passes of S/5 seconds, each with its own set-up,
 * and prints a human-readable scorecard, then as its last stdout line
 * one JSON object: {"correct", "attempted", "failed", "metrics"}. With
 * --trace 0 the metrics are the end-to-end ones (medians over the
 * passes); with --trace 1 a
 * traced pass of the same seed follows and the metrics are the
 * per-layer ones. Exits 1 when a delivered output fails verification,
 * 2 on a usage error.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "kernels/kernel_ops.h"
#include "obs/clock.h"
#include "perfbench.h"

extern char **environ;

namespace perfbench {

namespace {

/**
 * Untraced passes per run, each with its own set-up; every end-to-end
 * metric (set-up time and latency percentiles included) is their
 * median, so one noisy stretch of a shared host does not move the
 * result. Pooling the passes' latencies instead let a one-second host
 * stall in one pass own the p95, and with three passes two slow
 * stretches in one run still did.
 */
constexpr int kPasses = 5;

struct Usage {
    double self_cpu_s = 0;
    double child_cpu_s = 0;
    double self_rss_mb = 0;
    double child_rss_mb = 0;  ///< largest reaped child
};

double
seconds(const timeval &tv)
{
    return static_cast<double>(tv.tv_sec) +
        static_cast<double>(tv.tv_usec) * 1e-6;
}

Usage
usage()
{
    Usage u;
    rusage self{}, child{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &child);
    u.self_cpu_s = seconds(self.ru_utime) + seconds(self.ru_stime);
    u.child_cpu_s = seconds(child.ru_utime) + seconds(child.ru_stime);
    u.self_rss_mb = static_cast<double>(self.ru_maxrss) / 1024.0;
    u.child_rss_mb = static_cast<double>(child.ru_maxrss) / 1024.0;
    return u;
}

[[noreturn]] void
usageError(const std::string &msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "vod_batch|live_proc --seed N --seconds S "
                 "--trace 0|1 --worker-bin PATH [--state-dir DIR] "
                 "[--git DESCRIBE]\n",
                 msg.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_seed = false, have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usageError("missing value for " + arg);
        const std::string val = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            o.workload = val;
        } else if (arg == "--seed") {
            o.seed = std::strtoull(val.c_str(), &end, 10);
            if (end == val.c_str() || *end != '\0')
                usageError("--seed wants an integer, got " + val);
            have_seed = true;
        } else if (arg == "--seconds") {
            o.seconds = std::strtod(val.c_str(), &end);
            if (end == val.c_str() || *end != '\0' || !(o.seconds >= 1) ||
                o.seconds > 60)
                usageError("--seconds wants a number in [1, 60], got " +
                           val);
            have_seconds = true;
        } else if (arg == "--trace") {
            if (val != "0" && val != "1")
                usageError("--trace wants 0 or 1, got " + val);
            o.trace = val == "1";
        } else if (arg == "--worker-bin") {
            o.worker_bin = val;
        } else if (arg == "--state-dir") {
            o.state_dir = val;
        } else if (arg == "--git") {
            o.git = val;
        } else {
            usageError("unknown argument " + arg);
        }
    }
    if (o.workload.empty() || !have_seed || !have_seconds)
        usageError("--workload, --seed and --seconds are required");
    return o;
}

/**
 * The program reads VBENCH_* knobs deep inside the service, both
 * encoders and the scheduler; a stray VBENCH_SLICES or VBENCH_ISA
 * would silently change what is measured. Every setting is pinned
 * through config structs instead, so refuse to run with any of them.
 */
bool
environmentIsClean()
{
    bool clean = true;
    for (char **e = environ; e && *e; ++e) {
        if (std::strncmp(*e, "VBENCH_", 7) == 0) {
            std::fprintf(stderr,
                         "perfbench: refusing to run with %s set; the "
                         "benchmark pins every setting itself\n",
                         *e);
            clean = false;
        }
    }
    return clean;
}

/** Segment k of `req` becomes due here, on the service clock. */
double
availSeconds(const service::ServiceRequest &req,
             const service::CorpusClip &clip, int segment_frames, int k)
{
    // Same arithmetic as the dispatcher (service/service.cc).
    const double seg_duration = clip.segmentCount() > 0
        ? segment_frames / clip.spec.fps
        : clip.original->duration();
    return req.live_paced ? req.arrival_s + k * seg_duration
                          : req.arrival_s;
}

uint64_t
serviceNs(uint64_t t0_ns, double service_seconds)
{
    return t0_ns +
        static_cast<uint64_t>(std::max(0.0, service_seconds) * 1e9);
}

/** One timed run of the workload against a prepared setup. */
struct RunOutput {
    service::ServiceResult result;
    std::vector<SegmentRecord> records;
    service::ExecutorStats exec_stats;
    double cpu_s = 0;
    Usage after;
};

RunOutput
play(const WorkloadSpec &spec, Prepared &prep, obs::Tracer *tracer,
     obs::MetricsRegistry *metrics)
{
    RunOutput out;
    service::ServiceConfig sc;
    sc.workers = spec.workers;
    sc.executor = prep.exec.get();
    sc.admission_capacity = spec.admission_capacity;
    sc.cache = prep.cache.get();
    sc.collect_outputs = true;
    sc.tracer = tracer;
    sc.metrics = metrics;
    prep.exec->startRecording(tracer != nullptr);
    const Usage before = usage();
    out.result = service::TranscodeService(sc, prep.corpus).run(spec.requests);
    const Usage self_after = usage();
    out.records = prep.exec->takeRecords();
    out.exec_stats = prep.exec->stats();
    // Children's CPU only becomes visible once they are reaped, so the
    // pool is torn down before the second reading.
    prep.exec.reset();
    out.after = usage();
    out.cpu_s = (self_after.self_cpu_s - before.self_cpu_s) +
        std::max(0.0, out.after.child_cpu_s - before.child_cpu_s -
                          prep.warm_child_cpu_s);
    return out;
}

/** One pass's end-to-end numbers. */
struct Scored {
    double throughput_mpix_s = 0;
    double latency_p50_ms = 0;
    double latency_p95_ms = 0;
    size_t latency_n = 0;
    size_t beyond_p95 = 0;
    double deadline_miss_rate = 0;
    double cpu_s_per_mpix = 0;
    double psnr_db = 0;
    double bits_per_pixel = 0;
};

Scored
score(const RunOutput &run, const Verified &v,
      const std::vector<SegmentTiming> &timings, uint64_t t0_ns)
{
    Scored s;
    const double mpix = static_cast<double>(v.delivered_pixels) * 1e-6;
    // Wall from the first submit to the last stitch (the dispatcher
    // loop exits right after it).
    uint64_t first_submit = UINT64_MAX;
    for (const SegmentRecord &r : run.records)
        first_submit = std::min(first_submit, r.handle.wait().submit_ns);
    const uint64_t end_ns = serviceNs(t0_ns, run.result.wall_seconds);
    const double wall = first_submit < end_ns
        ? static_cast<double>(end_ns - first_submit) * 1e-9
        : run.result.wall_seconds;
    s.throughput_mpix_s = wall > 0 ? mpix / wall : 0.0;
    std::vector<double> lat;
    uint64_t missed = 0;
    for (const SegmentTiming &t : timings) {
        lat.push_back(t.latency_ms);
        missed += t.missed && t.ok ? 1 : 0;
    }
    s.latency_n = lat.size();
    s.latency_p50_ms = quantile(lat, 0.50);
    s.latency_p95_ms = quantile(lat, 0.95);
    for (const double l : lat)
        s.beyond_p95 += l > s.latency_p95_ms ? 1 : 0;
    s.deadline_miss_rate = v.segments_due > 0
        ? static_cast<double>(missed + v.segments_failed) /
            static_cast<double>(v.segments_due)
        : 0.0;
    s.cpu_s_per_mpix = mpix > 0 ? run.cpu_s / mpix : 0.0;
    s.psnr_db = v.psnr_db;
    s.bits_per_pixel = v.delivered_pixels > 0
        ? static_cast<double>(v.delivered_bits) /
            static_cast<double>(v.delivered_pixels)
        : 0.0;
    return s;
}

/** One timed pass: a fresh set-up, the run, and its verification. */
struct Pass {
    Prepared prep;
    RunOutput run;
    std::vector<SegmentTiming> timings;
    uint64_t t0_ns = 0;
    Verified v;
    Scored s;
};

Pass
runPass(const WorkloadSpec &spec, const Options &opt, int nproc,
        obs::Tracer *tracer, obs::MetricsRegistry *metrics)
{
    Pass p;
    p.prep = prepare(spec, opt, tracer, metrics);
    p.run = play(spec, p.prep, tracer, metrics);
    p.timings = segmentTimings(spec, p.prep.corpus, p.run.records,
                               p.run.result, &p.t0_ns);
    p.v = verifyOutputs(spec, p.prep, p.run.result, nproc);
    p.s = score(p.run, p.v, p.timings, p.t0_ns);
    return p;
}

void
printPass(const std::string &name, const Pass &p)
{
    std::printf("%s: setup %.3f s (corpus %.3f, warm-up %.3f, pre-warm "
                "%.3f); %" PRIu64 " streams, %.3f Mpix, digest %s\n",
                name.c_str(), p.prep.total_s, p.prep.corpus_s,
                p.prep.warmup_s, p.prep.prewarm_s, p.v.delivered_streams,
                static_cast<double>(p.v.delivered_pixels) * 1e-6,
                p.v.digest.c_str());
    std::printf("  %.4f Mpix/s, p50 %.4f ms (n=%zu), p95 %.4f ms (%zu "
                "beyond), %.4f s/Mpix (%.3f CPU-s), miss %.4f, cache %" PRIu64
                " hits\n",
                p.s.throughput_mpix_s, p.s.latency_p50_ms, p.s.latency_n,
                p.s.latency_p95_ms, p.s.beyond_p95, p.s.cpu_s_per_mpix,
                p.run.cpu_s, p.s.deadline_miss_rate,
                p.run.result.cache_stats.hits);
    std::fflush(stdout);
}

/**
 * Two runs of one seed must deliver the same bytes. The first run of a
 * (workload, seed, length) leaves its digest in the state directory;
 * every later run is held to it.
 */
bool
checkDigest(const Options &opt, const std::string &digest,
            std::vector<std::string> *errors)
{
    if (opt.state_dir.empty())
        return true;
    char name[256];
    std::snprintf(name, sizeof name, "/%s-seed%" PRIu64 "-%gs.digest",
                  opt.workload.c_str(), opt.seed, opt.seconds);
    const std::string path = opt.state_dir + name;
    std::string stored;
    {
        std::ifstream in(path);
        std::getline(in, stored);
    }
    if (!stored.empty() && stored != digest) {
        errors->push_back("delivered-bytes digest " + digest +
                          " differs from " + stored +
                          " delivered by an earlier run of this seed");
        return false;
    }
    if (stored.empty()) {
        std::ofstream out(path);
        out << digest << "\n";
    }
    return true;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return buf;
}

} // namespace

std::vector<SegmentTiming>
segmentTimings(const WorkloadSpec &spec, const service::Corpus &corpus,
               const std::vector<SegmentRecord> &records,
               const service::ServiceResult &result, uint64_t *t0_ns_out)
{
    std::map<std::string, const SegmentRecord *> by_label;
    for (const SegmentRecord &r : records)
        by_label[r.job.label()] = &r;
    const auto avail = [&](const SegmentRecord &r) {
        const service::ServiceRequest &req =
            spec.requests[r.job.request_id];
        return availSeconds(req, corpus.clips[req.clip],
                            corpus.segment_frames, r.job.segment_index);
    };

    // Recover the service's t0: an exemplar's pre-submit wait is
    // submit - due, to the nanosecond, and the record knows submit.
    std::vector<double> t0s;
    for (const service::ScenarioScore &sc : result.sla.scenarios) {
        for (const obs::Exemplar &e : sc.exemplars) {
            const auto it = by_label.find(e.label);
            if (it == by_label.end())
                continue;
            const SegmentRecord &r = *it->second;
            const double due_ns = static_cast<double>(
                                      r.handle.wait().submit_ns) -
                e.path.rc_chain_ms * 1e6;
            t0s.push_back(due_ns -
                          static_cast<double>(static_cast<uint64_t>(
                              std::max(0.0, avail(r)) * 1e9)));
        }
    }
    uint64_t t0_ns = 0;
    if (!t0s.empty()) {
        t0_ns = static_cast<uint64_t>(std::llround(median(t0s)));
    } else {
        std::fprintf(stderr, "perfbench: no exemplar to align the service "
                             "clock; using the first submit\n");
        t0_ns = UINT64_MAX;
        for (const SegmentRecord &r : records)
            t0_ns = std::min(t0_ns, r.handle.wait().submit_ns);
    }
    *t0_ns_out = t0_ns;

    std::vector<SegmentTiming> out;
    for (const SegmentRecord &r : records) {
        const sched::JobResult &jr = r.handle.wait();
        const service::ServiceRequest &req =
            spec.requests[r.job.request_id];
        const uint64_t due = serviceNs(t0_ns, avail(r));
        SegmentTiming t;
        t.request_id = r.job.request_id;
        t.rung = r.job.rung;
        t.segment = r.job.segment_index;
        t.ok = jr.ok();
        const auto span = [](uint64_t a, uint64_t b) {
            return b > a ? static_cast<double>(b - a) * 1e-6 : 0.0;
        };
        t.latency_ms = span(due, jr.end_ns);
        t.pre_submit_ms = span(due, jr.submit_ns);
        t.queue_ms = span(jr.submit_ns, jr.start_ns);
        const double done_s =
            static_cast<double>(jr.end_ns - std::min(jr.end_ns, t0_ns)) *
            1e-9;
        t.missed = req.live_paced
            ? t.latency_ms * 1e-3 > req.segment_deadline_s
            : done_s > req.arrival_s + req.request_deadline_s;
        out.push_back(std::move(t));
    }
    return out;
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const Options opt = parseArgs(argc, argv);
    if (!environmentIsClean())
        return 2;
    const int nproc =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    const WorkloadSpec spec =
        makeWorkload(opt.workload, opt.seed, opt.seconds / kPasses, nproc);
    if (spec.name.empty())
        usageError("unknown workload " + opt.workload);
    if (spec.proc && opt.worker_bin.empty())
        usageError(opt.workload + " needs --worker-bin");

    std::printf("perfbench %s seed=%" PRIu64 " seconds=%g trace=%d\n",
                spec.name.c_str(), opt.seed, opt.seconds, opt.trace ? 1 : 0);
    std::printf("host: kernel_isa=%s nproc=%d git=%s\n",
                kernels::isaName(kernels::activeIsa()), nproc,
                opt.git.c_str());

    // ---- Untraced passes: every end-to-end number is their median. ----
    std::vector<Scored> scores;
    std::vector<double> setup_s, corpus_s, warmup_s, spawn_s;
    Verified v;
    uint64_t attempted = 0, failed = 0;
    Usage after;
    for (int i = 0; i < kPasses; ++i) {
        const Pass p = runPass(spec, opt, nproc, nullptr, nullptr);
        setup_s.push_back(p.prep.total_s);
        corpus_s.push_back(p.prep.corpus_s);
        warmup_s.push_back(p.prep.warmup_s);
        spawn_s.push_back(p.prep.spawn_s);
        scores.push_back(p.s);
        attempted += p.v.segments_due;
        failed += p.v.segments_failed;
        after = p.run.after;
        printPass("pass " + std::to_string(i + 1), p);
        if (i == 0) {
            v = p.v;
        } else {
            v.correct = v.correct && p.v.correct;
            v.errors.insert(v.errors.end(), p.v.errors.begin(),
                            p.v.errors.end());
            if (p.v.digest != v.digest) {
                v.correct = false;
                v.errors.push_back("pass " + std::to_string(i + 1) +
                                   " delivered digest " + p.v.digest +
                                   ", pass 1 " + v.digest);
            }
        }
    }
    if (!checkDigest(opt, v.digest, &v.errors))
        v.correct = false;

    const auto med = [&scores](double Scored::*field) {
        std::vector<double> x;
        for (const Scored &s : scores)
            x.push_back(s.*field);
        return median(x);
    };
    const double peak_rss_mb = after.self_rss_mb + after.child_rss_mb;
    std::printf("median of %d passes:\n", kPasses);
    std::printf("  throughput_mpix_s   %12.4f Mpix/s\n",
                med(&Scored::throughput_mpix_s));
    std::printf("  latency_p50_ms      %12.4f ms (n=%zu per pass)\n",
                med(&Scored::latency_p50_ms), scores.front().latency_n);
    std::printf("  latency_p95_ms      %12.4f ms (n=%zu, %zu beyond, per "
                "pass)\n",
                med(&Scored::latency_p95_ms), scores.front().latency_n,
                scores.front().beyond_p95);
    std::printf("  deadline_miss_rate  %12.4f fraction\n",
                med(&Scored::deadline_miss_rate));
    std::printf("  cpu_s_per_mpix      %12.4f s/Mpix\n",
                med(&Scored::cpu_s_per_mpix));
    std::printf("  psnr_db             %12.4f dB\n", med(&Scored::psnr_db));
    std::printf("  bits_per_pixel      %12.4f bits/pixel\n",
                med(&Scored::bits_per_pixel));
    std::printf("  fail_rate           %12.4f fraction (%" PRIu64
                " of %" PRIu64 " segments)\n",
                attempted ? static_cast<double>(failed) /
                        static_cast<double>(attempted)
                          : 0.0,
                failed, attempted);
    std::printf("  setup_s             %12.4f s\n", median(setup_s));
    std::printf("  peak_rss_mb         %12.4f MB (self %.1f + largest child "
                "%.1f)\n",
                peak_rss_mb, after.self_rss_mb, after.child_rss_mb);
    std::fflush(stdout);

    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics;
    std::vector<std::string> checks;
    if (!opt.trace) {
        metrics = {
            {"throughput_mpix_s", {med(&Scored::throughput_mpix_s), "Mpix/s"}},
            {"latency_p50_ms", {med(&Scored::latency_p50_ms), "ms"}},
            {"latency_p95_ms", {med(&Scored::latency_p95_ms), "ms"}},
            {"cpu_s_per_mpix", {med(&Scored::cpu_s_per_mpix), "s/Mpix"}},
            {"psnr_db", {med(&Scored::psnr_db), "dB"}},
            {"bits_per_pixel", {med(&Scored::bits_per_pixel), "bits/pixel"}},
            {"setup_s", {median(setup_s), "s"}},
            {"peak_rss_mb", {peak_rss_mb, "MB"}},
        };
    } else {
        // ---- The traced pass: same seed, fresh setup, sinks attached.
        obs::Tracer tracer;
        obs::MetricsRegistry registry;
        const Pass t = runPass(spec, opt, nproc, &tracer, &registry);
        printPass("traced", t);
        if (!t.v.correct) {
            v.correct = false;
            v.errors.insert(v.errors.end(), t.v.errors.begin(),
                            t.v.errors.end());
        }
        if (t.v.digest != v.digest) {
            v.correct = false;
            v.errors.push_back("traced pass delivered digest " + t.v.digest +
                               ", untraced " + v.digest);
        }
        TracedRun tr;
        tr.spec = &spec;
        tr.prep = &t.prep;
        tr.result = &t.run.result;
        tr.records = &t.run.records;
        tr.timings = &t.timings;
        tr.exec_stats = t.run.exec_stats;
        tr.tracer = &tracer;
        const bool batch = spec.name == "vod_batch";
        tr.untraced_headline = batch ? med(&Scored::throughput_mpix_s)
                                     : med(&Scored::latency_p50_ms);
        tr.traced_headline =
            batch ? t.s.throughput_mpix_s : t.s.latency_p50_ms;
        tr.headline_higher_is_better = batch;
        tr.setup_corpus_s = median(corpus_s);
        tr.setup_warmup_s = median(warmup_s);
        tr.setup_spawn_ms = spec.proc ? median(spawn_s) * 1e3 : 0.0;
        const std::vector<LayerMetric> layers =
            layerMetrics(tr, opt, &checks);
        std::printf("per-layer (traced pass, %zu segments):\n",
                    t.run.records.size());
        for (const LayerMetric &m : layers) {
            std::printf("  %-34s %14.6f %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
            metrics.push_back({m.name, {m.value, m.unit}});
        }
        for (const std::string &c : checks)
            std::printf("CHECK %s\n", c.c_str());
    }

    for (const std::string &e : v.errors)
        std::printf("FAIL %s\n", e.c_str());
    std::string json = std::string("{\"correct\": ") +
        (v.correct ? "true" : "false") +
        ", \"attempted\": " + std::to_string(attempted) +
        ", \"failed\": " + std::to_string(failed) +
        ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i)
        json += (i ? ", \"" : "\"") + metrics[i].first + "\": {\"value\": " +
            jsonNumber(metrics[i].second.first) + ", \"unit\": \"" +
            metrics[i].second.second + "\"}";
    json += "}}";
    std::printf("%s\n", json.c_str());
    return v.correct ? 0 : 1;
}
