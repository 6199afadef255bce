#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <thread>
#include <utility>

#include "core/reference.h"
#include "obs/clock.h"
#include "perfbench.h"
#include "rpc/remote_pool.h"
#include "sched/frame_threads.h"
#include "video/rng.h"
#include "video/synth.h"

namespace perfbench {

namespace {

video::ClipSpec
clipSpec(const std::string &name, int width, int height,
         video::ContentClass content, uint64_t seed)
{
    video::ClipSpec s;
    s.name = name;
    s.width = width;
    s.height = height;
    s.fps = 30.0;
    s.content = content;
    s.seed = seed;
    return s;
}

service::RungSpec
rung(const std::string &name, core::TranscodeRequest request)
{
    service::RungSpec r;
    r.name = name;
    r.request = std::move(request);
    return r;
}

/** Fisher-Yates with the workload's own generator. */
template <typename T>
void
shuffle(std::vector<T> &v, video::Rng &rng)
{
    for (size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

/**
 * Open-loop arrival times of `n` streams over [0, window): one arrival
 * per equal slot, `jitter` of a slot wide around the slot's middle.
 * With a Poisson process a chance burst past the service's
 * active-request cap parks whole streams at admission, and those
 * streams alone set the p95, which then swings 3x from seed to seed.
 * Uniform within the slot (jitter 1) still left the p95 30% apart
 * between two seeds: which paced streams' segments fall due together
 * and contend for the host's cores was the seed's call.
 */
std::vector<double>
slottedArrivals(size_t n, double window, double jitter, video::Rng &rng)
{
    std::vector<double> t(n);
    for (size_t i = 0; i < n; ++i)
        t[i] = (static_cast<double>(i) + 0.5 +
                jitter * (rng.uniform() - 0.5)) *
            window / static_cast<double>(n);
    return t;
}

/**
 * The content library is the same for every seed: the seed decides the
 * traffic (arrival times, which stream plays which clip, the order of a
 * batch's requests), not the pixels. Quality and bitrate are
 * then properties of the program alone, and seed-to-seed spread in them
 * cannot mask a codec regression.
 */
constexpr uint64_t kLibrarySeed = 0x76626E63;

const video::ContentClass kClasses[] = {
    video::ContentClass::Natural,
    video::ContentClass::Sports,
    video::ContentClass::Animation,
    video::ContentClass::Screencast,
};

/**
 * vod_batch: a closed batch on the in-process pool. Table 1 reference
 * operating points on 360p clips of four content classes: Upload is
 * VBC CRF plus NGC HEVC-like and VP9-like rungs, VoD and Platform are
 * VBC two-pass chains, Popular is an effort-9 two-pass 3-rung ladder.
 * Platform requests repeat the VoD transcodes warmed into the cache at
 * setup, so they hit; every other (clip, operating point) appears once
 * and misses. Hit counts and the batch's work are fixed by construction;
 * the seed orders the requests within each scenario.
 */
WorkloadSpec
vodBatch(uint64_t seed, double seconds, int nproc)
{
    WorkloadSpec w;
    w.name = "vod_batch";
    w.workers = nproc;
    w.segment_frames = 8;
    video::Rng rng(seed * 0x9E3779B97F4A7C15ull + 11);
    // One 8-frame segment per clip for every ~2.7 s of pass on a 4-core
    // host, so the batch fills the pass and RC chains grow with it.
    const int frames = w.segment_frames *
        std::max(1, static_cast<int>(std::lround(seconds / 2.7)));
    for (size_t c = 0; c < 4; ++c)
        w.clips.push_back(
            {clipSpec(std::string("vod_") + video::toString(kClasses[c]),
                      640, 360, kClasses[c], kLibrarySeed + c),
             frames});

    // Every job asks for nproc frame threads; with nproc jobs in flight
    // the oversubscription guard clamps the wavefront to width 1.
    const auto ref = [nproc](core::Scenario s) {
        core::TranscodeRequest q =
            core::referenceRequest(s, 640, 360, 30.0);
        q.frame_threads = nproc;
        q.slice_count = 1;
        return q;
    };
    const auto request = [&](core::Scenario s, size_t clip) {
        service::ServiceRequest r;
        r.scenario = s;
        r.clip = clip;
        r.arrival_s = 0;
        if (s == core::Scenario::Popular) {
            // The service's Popular ladder: 1.0x, 0.65x, 0.42x of the
            // reference bitrate (service/workload.cc).
            for (int k = 0; k < 3; ++k) {
                core::TranscodeRequest q = ref(s);
                q.rc.bitrate_bps *= std::pow(0.65, k);
                std::string name = "r";
                name += std::to_string(k);
                r.rungs.push_back(rung(name, q));
            }
        } else if (s == core::Scenario::Upload) {
            r.rungs.push_back(rung("vbc", ref(s)));
            for (const core::EncoderKind kind :
                 {core::EncoderKind::NgcHevc, core::EncoderKind::NgcVp9}) {
                core::TranscodeRequest q = ref(s);
                q.kind = kind;
                q.ngc_speed = 1;  // the NGC encoders' own default
                r.rungs.push_back(
                    rung(kind == core::EncoderKind::NgcHevc ? "hevc"
                                                            : "vp9",
                         q));
            }
        } else {
            r.rungs.push_back(rung("r0", ref(s)));
        }
        return r;
    };

    // Natural and sports get VoD (misses); animation and screencast get
    // Platform, a hit on the VoD transcode pre-warmed at setup. The seed
    // only orders the requests within each group: when it also chose
    // which content missed, the batch's work changed with the seed.
    for (size_t c = 2; c < 4; ++c)
        w.prewarm.push_back(request(core::Scenario::Vod, c));

    // The long Popular chains first, so they run side by side and no
    // lone chain trails the batch; the fan-out rungs fill the pool
    // behind them.
    const auto group = [&](const auto &make) {
        std::vector<size_t> order = {0, 1, 2, 3};
        shuffle(order, rng);
        for (const size_t c : order)
            w.requests.push_back(make(c));
    };
    group([&](size_t c) { return request(core::Scenario::Popular, c); });
    group([&](size_t c) { return request(core::Scenario::Upload, c); });
    group([&](size_t c) {
        return request(c < 2 ? core::Scenario::Vod
                             : core::Scenario::Platform,
                       c);
    });
    for (size_t i = 0; i < w.prewarm.size(); ++i)
        w.prewarm[i].id = i;
    for (size_t i = 0; i < w.requests.size(); ++i)
        w.requests[i].id = i;

    w.cache_bytes = 256ull << 20;
    w.admission_capacity = w.requests.size() + w.prewarm.size();
    w.warm_codecs = {ref(core::Scenario::Upload)};
    for (const core::EncoderKind kind :
         {core::EncoderKind::NgcHevc, core::EncoderKind::NgcVp9}) {
        core::TranscodeRequest q = ref(core::Scenario::Upload);
        q.kind = kind;
        q.ngc_speed = 1;
        w.warm_codecs.push_back(q);
    }
    return w;
}

/**
 * live_proc: Live streams on fork/exec'd vbench_worker children. Small
 * 192x128 clips cut into 8-frame segments paced in real time, about
 * five streams in flight, one frame thread each: a segment is 10-20 ms of
 * work, so the dispatcher, admission, the SegmentJob wire format,
 * socketpair framing and child supervision are a large share of every
 * segment's latency. The only workload where rpc does work. (At 4-frame
 * segments host noise set the tail: p95 spread 0.45 across runs against
 * 0.08 at 8 frames, measured back to back.) Arrivals sit near the middle
 * of their 1/6 s slots, so the in-flight streams' segments, due every
 * 8/30 s, fall due about 33 ms apart (never under 17 ms) and seldom
 * share the host's cores.
 */
WorkloadSpec
liveProc(uint64_t seed, double seconds, int nproc)
{
    WorkloadSpec w;
    w.name = "live_proc";
    w.proc = true;
    w.workers = nproc;
    w.segment_frames = 8;
    constexpr int kClipFrames = 32;
    constexpr double kStreamsPerSecond = 6.0;
    for (size_t c = 0; c < 4; ++c)
        w.clips.push_back(
            {clipSpec(std::string("live_") + video::toString(kClasses[c]),
                      192, 128, kClasses[c], kLibrarySeed + c),
             kClipFrames});

    video::Rng rng(seed * 0x9E3779B97F4A7C15ull + 29);
    const size_t n =
        static_cast<size_t>(std::ceil(kStreamsPerSecond * seconds));
    const std::vector<double> arrivals =
        slottedArrivals(n, seconds, 0.1, rng);
    // Every clip streams equally often, in a seed-shuffled order.
    std::vector<size_t> deal(n);
    std::iota(deal.begin(), deal.end(), 0);
    shuffle(deal, rng);
    const core::TranscodeRequest live =
        core::referenceRequest(core::Scenario::Live, 192, 128, 30.0);
    for (size_t i = 0; i < n; ++i) {
        service::ServiceRequest r;
        r.id = i;
        r.scenario = core::Scenario::Live;
        r.clip = deal[i] % w.clips.size();
        r.arrival_s = arrivals[i];
        r.live_paced = true;
        // service::WorkloadConfig's default Live slack.
        r.segment_deadline_s = 3.0 * w.segment_frames / 30.0;
        core::TranscodeRequest q = live;
        q.frame_threads = 1;
        q.slice_count = 1;
        r.rungs.push_back(rung("r0", q));
        w.requests.push_back(std::move(r));
    }
    w.admission_capacity = n;
    w.warm_codecs = {w.requests.front().rungs.front().request};
    return w;
}

/** The in-process scheduler pool behind the execution seam. */
class PoolExecutor final : public service::SegmentExecutor
{
  public:
    PoolExecutor(int workers, obs::Tracer *tracer,
                 obs::MetricsRegistry *metrics)
        : scheduler_([&] {
              sched::SchedulerConfig c;
              c.workers = workers;
              c.merge_tracer = tracer;
              c.merge_metrics = metrics;
              return c;
          }())
    {
    }

    sched::JobHandle
    submit(service::SegmentJob job,
           std::shared_ptr<const video::Video> original) override
    {
        return scheduler_.submit(
            service::toTranscodeJob(std::move(job), std::move(original)));
    }

    int workers() const override { return scheduler_.workers(); }
    size_t queueCapacity() const override
    {
        return scheduler_.queueCapacity();
    }
    size_t activeJobs() const override
    {
        return static_cast<size_t>(sched::activeTranscodeJobs());
    }
    void drainObs() override { scheduler_.mergeObsShards(); }

  private:
    sched::Scheduler scheduler_;
};

} // namespace

WorkloadSpec
makeWorkload(const std::string &name, uint64_t seed, double seconds,
             int nproc)
{
    if (name == "vod_batch")
        return vodBatch(seed, seconds, nproc);
    if (name == "live_proc")
        return liveProc(seed, seconds, nproc);
    return {};
}

RecordingExecutor::RecordingExecutor(int workers, obs::Tracer *tracer,
                                     obs::MetricsRegistry *metrics)
    : inner_(std::make_unique<PoolExecutor>(workers, tracer, metrics))
{
}

RecordingExecutor::RecordingExecutor(int workers,
                                     const std::string &worker_bin,
                                     obs::Tracer *tracer)
{
    rpc::RemotePoolConfig c;
    c.workers = workers;
    c.worker_binary = worker_bin;
    c.tracer = tracer;
    inner_ = std::make_unique<rpc::RemotePool>(std::move(c));
}

RecordingExecutor::~RecordingExecutor() = default;

sched::JobHandle
RecordingExecutor::submit(service::SegmentJob job,
                          std::shared_ptr<const video::Video> original)
{
    if (!recording_)
        return inner_->submit(std::move(job), std::move(original));
    SegmentRecord rec;
    rec.frames = original ? original->frameCount() : 0;
    rec.job.request_id = job.request_id;
    rec.job.rung = job.rung;
    rec.job.segment_index = job.segment_index;
    rec.job.scenario = job.scenario;
    rec.job.params = job.params;
    if (keep_inputs_)
        rec.job.input = job.input;
    rec.handle = inner_->submit(std::move(job), std::move(original));
    records_.push_back(std::move(rec));
    return records_.back().handle;
}

void
RecordingExecutor::startRecording(bool keep_inputs)
{
    recording_ = true;
    keep_inputs_ = keep_inputs;
}

std::vector<SegmentRecord>
RecordingExecutor::takeRecords()
{
    recording_ = false;
    return std::move(records_);
}

bool
RecordingExecutor::waitAlive(double timeout_s) const
{
    if (!inner_->remote())
        return true;
    const double deadline = obs::nowSeconds() + timeout_s;
    while (obs::nowSeconds() < deadline) {
        const service::ExecutorStats s = inner_->stats();
        bool all = !s.workers.empty();
        for (const service::ExecutorWorkerInfo &w : s.workers)
            all = all && w.alive;
        if (all)
            return true;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return false;
}

Prepared
prepare(const WorkloadSpec &spec, const Options &opt, obs::Tracer *tracer,
        obs::MetricsRegistry *metrics)
{
    Prepared p;
    const double t_start = obs::nowSeconds();

    // Corpus synthesis and the universal-stream encode, per clip
    // length (buildCorpus takes one length; the corpus is one list).
    p.corpus.segment_frames = spec.segment_frames;
    for (const auto &[clip, frames] : spec.clips) {
        service::Corpus one =
            service::buildCorpus({clip}, frames, spec.segment_frames);
        p.corpus.clips.push_back(std::move(one.clips.front()));
    }
    p.corpus_s = obs::nowSeconds() - t_start;

    // Worker spawn, then one segment per codec on every worker so
    // first-touch costs (page faults, lazy tables) stay out of the run.
    const double t_spawn = obs::nowSeconds();
    if (spec.proc)
        p.exec = std::make_unique<RecordingExecutor>(
            spec.workers, opt.worker_bin, tracer);
    else
        p.exec = std::make_unique<RecordingExecutor>(spec.workers, tracer,
                                                     metrics);
    if (!p.exec->waitAlive(30.0)) {
        // The pool would quietly run segments in-process instead.
        std::fprintf(stderr, "perfbench: worker children did not come "
                             "up\n");
        std::exit(1);
    }
    p.spawn_s = obs::nowSeconds() - t_spawn;
    {
        const service::CorpusClip &clip = p.corpus.clips.front();
        std::vector<sched::JobHandle> warm;
        const int copies = spec.proc ? spec.workers : 1;
        for (int w = 0; w < copies; ++w) {
            for (const core::TranscodeRequest &codec : spec.warm_codecs) {
                service::SegmentJob job;
                job.request_id = 1u << 30;
                job.rung = "warmup";
                job.input = *clip.seg_universal.front();
                job.params = codec;
                job.params.segment_frames = spec.segment_frames;
                warm.push_back(
                    p.exec->submit(std::move(job), clip.seg_original.front()));
            }
        }
        for (const sched::JobHandle &h : warm) {
            const double s = h.wait().seconds;
            if (spec.proc)
                p.warm_child_cpu_s += s;
        }
    }
    p.warmup_s = obs::nowSeconds() - t_spawn;

    if (spec.cache_bytes > 0) {
        cache::CacheConfig cc;
        cc.capacity_bytes = spec.cache_bytes;
        cc.policy = cache::CachePolicy::AlwaysStore;
        p.cache = std::make_unique<cache::TranscodeCache>(cc);
    }
    if (!spec.prewarm.empty()) {
        const double t_warm = obs::nowSeconds();
        service::ServiceConfig sc;
        sc.workers = spec.workers;
        sc.executor = p.exec.get();
        sc.admission_capacity = spec.admission_capacity;
        sc.cache = p.cache.get();
        service::TranscodeService(sc, p.corpus).run(spec.prewarm);
        p.prewarm_s = obs::nowSeconds() - t_warm;
    }
    p.total_s = obs::nowSeconds() - t_start;
    // Set-up work must not show up in the traced run's layers.
    p.exec->drainObs();
    if (tracer)
        tracer->clear();
    if (metrics)
        metrics->reset();
    return p;
}

} // namespace perfbench
