#include "rpc/remote_pool.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "obs/clock.h"

namespace vbench::rpc {

namespace {

constexpr int kDefaultTimeoutMs = 30000;
constexpr int kDefaultRetries = 2;
constexpr double kDefaultHedgePct = 99.0;
/// Backoff never sleeps a slot thread longer than this per failure.
constexpr double kMaxBackoffMs = 1000.0;

/// Infra errors where the child is gone vs. ones where it answered
/// garbage. The distinction only picks the counter and the log line —
/// both kill, respawn, and retry the same way.
bool
isProtocolError(const std::string &error)
{
    return error.find("frame") != std::string::npos ||
        error.find("SegmentResult") != std::string::npos ||
        error.find("expected Result") != std::string::npos ||
        error.find("Hello") != std::string::npos;
}

} // namespace

RemotePool::RemotePool(RemotePoolConfig config)
    : config_(std::move(config))
{
    binary_ = resolveWorkerBinary(config_.worker_binary);
    if (config_.timeout_ms <= 0)
        config_.timeout_ms = kDefaultTimeoutMs;
    if (config_.retries < 0)
        config_.retries = kDefaultRetries;
    if (config_.hedge_pct <= 0)
        config_.hedge_pct = kDefaultHedgePct;
    config_.hedge_pct = std::min(config_.hedge_pct, 100.0);
    counters_.remote = true;

    const int n = config_.workers > 0
        ? config_.workers
        : sched::Scheduler::defaultWorkerCount();
    slots_.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
        auto slot = std::make_unique<Slot>();
        slot->proc.configure({binary_, /*handshake_timeout_ms=*/10000});
        slots_.push_back(std::move(slot));
    }
    for (int i = 0; i < n; ++i)
        slots_[static_cast<size_t>(i)]->thread =
            std::thread(&RemotePool::slotLoop, this, i);
    hedge_thread_ = std::thread(&RemotePool::hedgeLoop, this);
}

RemotePool::~RemotePool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    slot_cv_.notify_all();
    hedge_cv_.notify_all();
    if (hedge_thread_.joinable())
        hedge_thread_.join();
    for (auto &slot : slots_)
        if (slot->thread.joinable())
            slot->thread.join();
    for (auto &slot : slots_)
        slot->proc.stop();
}

sched::JobHandle
RemotePool::submit(service::SegmentJob job,
                   std::shared_ptr<const video::Video> original)
{
    auto rj = std::make_shared<RemoteJob>();
    rj->job = std::move(job);
    rj->original = std::move(original);
    rj->state = std::make_shared<sched::detail::JobState>();
    rj->submit_ns = obs::nowNs();
    rj->state->submit_ns = rj->submit_ns;
    sched::JobHandle handle = sched::JobHandle::adopt(rj->state);
    active_.fetch_add(1, std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(mu_);
        inflight_.push_back(rj);
        pending_.push_back({std::move(rj), /*hedge=*/false});
    }
    slot_cv_.notify_one();
    return handle;
}

service::ExecutorStats
RemotePool::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    service::ExecutorStats out = counters_;
    out.remote = true;
    for (const auto &slot : slots_) {
        service::ExecutorWorkerInfo w;
        w.pid = slot->pid.load(std::memory_order_relaxed);
        w.tier = slot->tier;
        w.jobs = slot->jobs;
        w.respawns = slot->respawns;
        w.alive = w.pid != 0;
        out.workers.push_back(std::move(w));
    }
    return out;
}

std::vector<int64_t>
RemotePool::workerPids() const
{
    std::vector<int64_t> pids;
    pids.reserve(slots_.size());
    for (const auto &slot : slots_)
        pids.push_back(slot->pid.load(std::memory_order_relaxed));
    return pids;
}

void
RemotePool::slotLoop(int s)
{
    // Eager spawn: pids, tiers, and handshake failures surface before
    // the first job arrives.
    ensureWorker(s);
    for (;;) {
        Attempt attempt;
        {
            std::unique_lock<std::mutex> lock(mu_);
            slot_cv_.wait(lock, [this] {
                return stop_ || !pending_.empty();
            });
            if (pending_.empty()) {
                if (stop_)
                    break;
                continue;
            }
            attempt = pending_.front();
            pending_.pop_front();
        }
        if (attempt.job->done.load(std::memory_order_acquire))
            continue;  // a sibling attempt already resolved it
        runAttempt(s, attempt);
    }
}

bool
RemotePool::ensureWorker(int s)
{
    Slot &slot = *slots_[static_cast<size_t>(s)];
    if (slot.degraded)
        return false;
    if (slot.proc.running())
        return true;
    for (int attempt = 1; attempt <= config_.respawn_limit; ++attempt) {
        std::string error;
        if (slot.proc.start(&error)) {
            slot.pid.store(slot.proc.pid(),
                           std::memory_order_relaxed);
            alive_workers_.fetch_add(1, std::memory_order_relaxed);
            bool respawned = false;
            {
                std::lock_guard<std::mutex> lock(mu_);
                slot.tier = slot.proc.tier();
                if (slot.ever_started) {
                    ++slot.respawns;
                    ++counters_.respawns;
                    respawned = true;
                }
                slot.ever_started = true;
            }
            if (config_.tracer)
                config_.tracer->nameRow(
                    obs::rpcTid(s),
                    "rpc worker #" + std::to_string(s) + " (pid " +
                        std::to_string(slot.proc.pid()) + ", " +
                        slot.proc.tier() + ")");
            if (respawned)
                std::fprintf(stderr,
                             "vbench: rpc worker #%d respawned as pid "
                             "%ld\n",
                             s, static_cast<long>(slot.proc.pid()));
            return true;
        }
        std::fprintf(stderr,
                     "vbench: rpc worker #%d spawn attempt %d/%d "
                     "failed: %s\n",
                     s, attempt, config_.respawn_limit, error.c_str());
        std::this_thread::sleep_for(std::chrono::duration<double>(
            std::min(config_.backoff_ms * attempt, kMaxBackoffMs) *
            1e-3));
    }
    // Bottom of the degradation ladder: this slot becomes an
    // in-process executor so the service keeps making progress.
    slot.degraded = true;
    std::fprintf(stderr,
                 "vbench: rpc worker #%d degraded to in-process "
                 "execution after %d failed spawns\n",
                 s, config_.respawn_limit);
    return false;
}

void
RemotePool::runAttempt(int s, Attempt &attempt)
{
    Slot &slot = *slots_[static_cast<size_t>(s)];
    RemoteJob &rj = *attempt.job;

    if (rj.state->cancel_requested.load(std::memory_order_relaxed)) {
        if (!rj.done.exchange(true)) {
            sched::JobResult r;
            r.label = rj.job.label();
            r.worker = s;
            r.cancelled = true;
            r.submit_ns = rj.submit_ns;
            {
                std::lock_guard<std::mutex> lock(mu_);
                inflight_.erase(std::remove(inflight_.begin(),
                                            inflight_.end(),
                                            attempt.job),
                                inflight_.end());
            }
            {
                std::lock_guard<std::mutex> lock(rj.state->mu);
                rj.state->result = std::move(r);
                rj.state->status = sched::JobStatus::Cancelled;
                rj.state->cv.notify_all();
            }
            active_.fetch_sub(1, std::memory_order_relaxed);
        }
        return;
    }

    if (!ensureWorker(s)) {
        runLocal(s, attempt);
        return;
    }

    const int64_t seq =
        dispatch_seq_.fetch_add(1, std::memory_order_relaxed);
    const uint64_t send_ns = obs::nowNs();
    std::string error;
    if (!slot.proc.sendJob(rj.job, &error)) {
        if (slot.pid.exchange(0) != 0)
            alive_workers_.fetch_sub(1, std::memory_order_relaxed);
        slot.proc.kill();
        {
            std::lock_guard<std::mutex> lock(mu_);
            ++counters_.worker_deaths;
        }
        onInfraFailure(s, attempt, "send: " + error);
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++counters_.dispatched;
        ++slot.jobs;
    }
    uint64_t expected = 0;
    rj.first_send_ns.compare_exchange_strong(expected, send_ns);

    if (config_.inject_kill_at >= 0 && seq == config_.inject_kill_at) {
        // Fault injection: the child dies mid-segment, with the job's
        // bytes already on its socket — exactly the SIGKILL the retry
        // path must absorb.
        if (slot.pid.exchange(0) != 0)
            alive_workers_.fetch_sub(1, std::memory_order_relaxed);
        slot.proc.kill();
        {
            std::lock_guard<std::mutex> lock(mu_);
            ++counters_.kills_injected;
        }
    }

    bool timed_out = false;
    error.clear();
    std::optional<service::SegmentResult> result =
        slot.proc.recvResult(config_.timeout_ms, &error, &timed_out);
    if (result) {
        finish(s, attempt, std::move(*result), send_ns);
        return;
    }

    if (slot.pid.exchange(0) != 0)
        alive_workers_.fetch_sub(1, std::memory_order_relaxed);
    slot.proc.kill();
    if (timed_out) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            ++counters_.timeouts;
        }
        onInfraFailure(s, attempt,
                       "deadline of " +
                           std::to_string(config_.timeout_ms) +
                           " ms expired");
        return;
    }
    if (isProtocolError(error)) {
        // The structured wire error (field name + byte offset, see
        // SegmentResult::deserialize) lands in the log verbatim.
        std::fprintf(stderr,
                     "vbench: rpc worker #%d protocol error: %s\n", s,
                     error.c_str());
        std::lock_guard<std::mutex> lock(mu_);
        ++counters_.protocol_errors;
    } else {
        std::lock_guard<std::mutex> lock(mu_);
        ++counters_.worker_deaths;
    }
    onInfraFailure(s, attempt, error);
}

void
RemotePool::onInfraFailure(int s, Attempt &attempt,
                           const std::string &why)
{
    RemoteJob &rj = *attempt.job;
    if (rj.done.load(std::memory_order_acquire))
        return;  // a sibling attempt resolved it meanwhile
    int attempt_no = 0;
    bool retry = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        attempt_no = ++rj.attempts;
        retry = attempt_no <= config_.retries;
        if (retry)
            ++counters_.retries;
    }
    if (retry) {
        std::fprintf(stderr,
                     "vbench: rpc job %s attempt %d failed (%s); "
                     "retrying\n",
                     rj.job.label().c_str(), attempt_no, why.c_str());
        std::this_thread::sleep_for(std::chrono::duration<double>(
            std::min(config_.backoff_ms * attempt_no, kMaxBackoffMs) *
            1e-3));
        {
            std::lock_guard<std::mutex> lock(mu_);
            pending_.push_front(attempt);
        }
        slot_cv_.notify_one();
        return;
    }
    std::fprintf(stderr,
                 "vbench: rpc job %s out of retries (%s); running "
                 "in-process\n",
                 rj.job.label().c_str(), why.c_str());
    runLocal(s, attempt);
}

void
RemotePool::runLocal(int s, Attempt &attempt)
{
    RemoteJob &rj = *attempt.job;
    if (rj.done.load(std::memory_order_acquire))
        return;
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++counters_.degraded_local;
    }
    const uint64_t start_ns = obs::nowNs();
    service::SegmentResult result =
        service::executeSegmentJob(rj.job, rj.original.get());
    finish(s, attempt, std::move(result), start_ns);
}

void
RemotePool::finish(int s, Attempt &attempt,
                   service::SegmentResult result, uint64_t send_ns)
{
    RemoteJob &rj = *attempt.job;
    const uint64_t end_ns = obs::nowNs();
    if (rj.done.exchange(true)) {
        // First result won already; this attempt is the cancelled
        // loser — its bytes are discarded, never scored.
        std::lock_guard<std::mutex> lock(mu_);
        ++counters_.hedge_losses;
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++counters_.completed;
        if (attempt.hedge)
            ++counters_.hedge_wins;
        samples_ms_.push_back(static_cast<double>(end_ns - send_ns) *
                              1e-6);
        // Keep the straggler estimator's window bounded.
        if (samples_ms_.size() > 8192)
            samples_ms_.erase(samples_ms_.begin(),
                              samples_ms_.begin() + 4096);
        inflight_.erase(std::remove(inflight_.begin(), inflight_.end(),
                                    attempt.job),
                        inflight_.end());
    }

    // Same trace contract as sched::Scheduler::runJob: the winning
    // attempt's encode slice as a child span on this slot's rpc row,
    // terminating the dispatcher's flow arrow.
    if (config_.tracer && rj.job.params.span.valid()) {
        obs::ScopeEvent scope;
        scope.name = "encode " + rj.job.label();
        scope.span = rj.job.params.span.child();
        scope.tid = obs::rpcTid(s);
        scope.start_ns = send_ns;
        scope.dur_ns = end_ns - send_ns;
        config_.tracer->addScope(std::move(scope));
        obs::FlowEvent flow;
        flow.name = "dispatch";
        flow.flow_id = rj.job.params.span.span_id;
        flow.tid = obs::rpcTid(s);
        flow.ts_ns = send_ns;
        flow.begin = false;
        config_.tracer->addFlow(std::move(flow));
    }

    sched::JobResult r;
    r.label = rj.job.label();
    r.worker = s;
    r.submit_ns = rj.submit_ns;
    r.start_ns = send_ns;
    r.end_ns = end_ns;
    // The child's measured wall time, not the supervisor's round-trip:
    // this is what fleet::Fleet::settle charges (ISSUE: measured child
    // wall time) and what the cache books as recompute cost.
    r.seconds = result.seconds;
    r.cpu_seconds = -1;
    r.outcome.ok = result.ok;
    r.outcome.error = result.error;
    r.outcome.stream = std::move(result.stream);
    r.outcome.rc_state = result.rc_state;
    r.outcome.m = result.m;
    r.outcome.seconds = result.seconds;
    r.outcome.frame_threads = result.frame_threads;
    r.outcome.slice_count = result.slice_count;
    // Re-tile the critical path on the supervisor's clock so the
    // components still sum to the latency the dispatcher scores:
    // queue_wait covers [submit, send] (pool queue + retries + hedging
    // delay), encode covers [send, end] (the winning attempt's
    // round-trip). rc_chain is filled by the dispatcher.
    r.outcome.critical_path = obs::CriticalPath{};
    r.outcome.critical_path.queue_wait_ms = send_ns > rj.submit_ns
        ? static_cast<double>(send_ns - rj.submit_ns) * 1e-6
        : 0.0;
    r.outcome.critical_path.encode_ms =
        static_cast<double>(end_ns - send_ns) * 1e-6;
    {
        std::lock_guard<std::mutex> lock(rj.state->mu);
        rj.state->result = std::move(r);
        rj.state->status = sched::JobStatus::Done;
        rj.state->cv.notify_all();
    }
    active_.fetch_sub(1, std::memory_order_relaxed);
}

void
RemotePool::hedgeLoop()
{
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
        hedge_cv_.wait_for(lock, std::chrono::milliseconds(2));
        if (stop_ || !config_.hedge)
            continue;
        const size_t min_samples = static_cast<size_t>(
            std::max(1, config_.hedge_min_samples));
        if (samples_ms_.size() < min_samples)
            continue;
        // p99-derived straggler threshold (VBENCH_HEDGE_PCT): the
        // hedge_pct-th percentile of completed attempt latencies,
        // floored so micro-jobs don't hedge on scheduler noise.
        std::vector<double> sorted(samples_ms_);
        std::sort(sorted.begin(), sorted.end());
        const size_t idx = static_cast<size_t>(
            config_.hedge_pct / 100.0 *
            static_cast<double>(sorted.size() - 1));
        const double threshold_ms =
            std::max(sorted[idx], config_.hedge_floor_ms);
        const uint64_t threshold_ns =
            static_cast<uint64_t>(threshold_ms * 1e6);
        const uint64_t now = obs::nowNs();

        // Duplicate the single slowest over-threshold in-flight job.
        std::shared_ptr<RemoteJob> slowest;
        uint64_t slowest_age = 0;
        for (const auto &rj : inflight_) {
            if (rj->hedged ||
                rj->done.load(std::memory_order_relaxed))
                continue;
            const uint64_t sent =
                rj->first_send_ns.load(std::memory_order_relaxed);
            if (sent == 0 || now <= sent)
                continue;
            const uint64_t age = now - sent;
            if (age > threshold_ns && age > slowest_age) {
                slowest = rj;
                slowest_age = age;
            }
        }
        if (slowest) {
            slowest->hedged = true;
            ++counters_.hedges;
            pending_.push_front({std::move(slowest), /*hedge=*/true});
            slot_cv_.notify_one();
        }
    }
}

} // namespace vbench::rpc
