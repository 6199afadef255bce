#pragma once

/**
 * @file
 * RemotePool — the process-level worker pool behind the dispatcher's
 * execution seam (docs/RPC.md). N WorkerProcess slots, each a
 * fork/exec'd vbench_worker child serving SegmentJobs over the framed
 * socketpair transport, plus every supervision policy the in-process
 * scheduler never needed:
 *
 *  - per-job deadlines: a child that holds a job past
 *    RemotePoolConfig::timeout_ms is SIGKILLed and the job retried;
 *  - bounded retry-with-backoff on worker death (SIGKILL fault
 *    injection included) and protocol violations;
 *  - automatic respawn-with-reconnect of dead children;
 *  - hedged straggler re-dispatch: once a job's age exceeds the
 *    hedge_pct-th percentile of completed attempt latencies it is
 *    duplicated onto the queue head; the first result wins and the
 *    loser is discarded;
 *  - graceful degradation: a slot whose respawns keep failing (or a
 *    job out of retry budget) falls back to executing in-process, so
 *    a missing/broken worker binary degrades to PR-9 behavior instead
 *    of failing the run.
 *
 * Determinism: attempts, retries, hedges, and degradation only decide
 * WHERE a deterministic transcode runs, never what it produces — the
 * stitched service output is byte-identical to the local pool's
 * (tests/service/test_rpc_service.cc, bench_rpc --smoke).
 */

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "rpc/worker_process.h"
#include "sched/scheduler.h"
#include "service/executor.h"
#include "service/segment_job.h"

namespace vbench::rpc {

struct RemotePoolConfig {
    /// Child worker slots; <= 0 uses Scheduler::defaultWorkerCount().
    int workers = 0;
    /// vbench_worker path; empty resolves $VBENCH_WORKER_BIN then the
    /// build-time default (resolveWorkerBinary).
    std::string worker_binary;
    /// Per-attempt deadline; a child holding a job longer is killed
    /// and the job retried. <= 0 uses the 30 s default.
    int timeout_ms = 0;
    /// Re-dispatch attempts after infra failure (death, timeout,
    /// protocol error) before degrading to in-process execution.
    /// < 0 uses the default (2).
    int retries = -1;
    /// Backoff before retry attempt k: backoff_ms * k (bounded).
    double backoff_ms = 10;
    /// Consecutive start() failures before a slot marks itself
    /// degraded and serves jobs in-process.
    int respawn_limit = 3;
    bool hedge = true;
    /// Straggler threshold: the hedge_pct-th percentile of completed
    /// attempt latencies. <= 0 uses the default (99).
    double hedge_pct = 0;
    /// Never hedge a job younger than this.
    double hedge_floor_ms = 1.0;
    /// Completed-latency samples required before hedging arms.
    int hedge_min_samples = 8;
    /// Fault injection: SIGKILL the serving child immediately after
    /// job attempt #N (0-based dispatch order) is written to it, so
    /// the child dies mid-segment. -1 = off.
    int64_t inject_kill_at = -1;
    /// Trace sink for rpc worker rows (thread-safe); null = none.
    obs::Tracer *tracer = nullptr;
};

class RemotePool : public service::SegmentExecutor
{
  public:
    explicit RemotePool(RemotePoolConfig config = {});
    /** Drains nothing: callers resolve every handle before teardown. */
    ~RemotePool() override;

    RemotePool(const RemotePool &) = delete;
    RemotePool &operator=(const RemotePool &) = delete;

    sched::JobHandle
    submit(service::SegmentJob job,
           std::shared_ptr<const video::Video> original) override;

    int workers() const override
    {
        return static_cast<int>(slots_.size());
    }
    size_t queueCapacity() const override
    {
        return slots_.size() * 2;
    }
    size_t activeJobs() const override
    {
        return active_.load(std::memory_order_relaxed);
    }
    bool remote() const override { return true; }
    service::ExecutorStats stats() const override;

    /** Child pids, in slot order (0 = not running). Test/fault hook. */
    std::vector<int64_t> workerPids() const;

  private:
    struct RemoteJob {
        service::SegmentJob job;
        std::shared_ptr<const video::Video> original;
        std::shared_ptr<sched::detail::JobState> state;
        /// First attempt to resolve wins; later results are discarded.
        std::atomic<bool> done{false};
        /// Age origin for the straggler detector (first dispatch).
        std::atomic<uint64_t> first_send_ns{0};
        bool hedged = false;  ///< guarded by mu_: duplicated at most once
        int attempts = 0;     ///< guarded by mu_: infra failures so far
        uint64_t submit_ns = 0;
    };

    /// One queue entry: a job plus whether it is the hedge duplicate.
    struct Attempt {
        std::shared_ptr<RemoteJob> job;
        bool hedge = false;
    };

    struct Slot {
        WorkerProcess proc;
        std::thread thread;
        uint64_t jobs = 0;        ///< guarded by mu_
        uint64_t respawns = 0;    ///< guarded by mu_
        std::string tier;         ///< guarded by mu_ (handshake)
        bool ever_started = false;
        bool degraded = false;    ///< slot thread only
        std::atomic<int64_t> pid{0};
    };

    void slotLoop(int s);
    bool ensureWorker(int s);
    void runAttempt(int s, Attempt &attempt);
    void runLocal(int s, Attempt &attempt);
    void onInfraFailure(int s, Attempt &attempt,
                        const std::string &why);
    void finish(int s, Attempt &attempt, service::SegmentResult result,
                uint64_t send_ns);
    void hedgeLoop();

    RemotePoolConfig config_;
    std::string binary_;
    std::vector<std::unique_ptr<Slot>> slots_;
    std::thread hedge_thread_;

    mutable std::mutex mu_;
    /// Slot threads wait here for pending_ work. The hedge thread has a
    /// condition variable of its own: were they shared, a notify_one()
    /// for new work could wake only the hedge thread and strand the job
    /// on an idle pool.
    std::condition_variable slot_cv_;
    std::condition_variable hedge_cv_;  ///< hedge thread's timed wait
    std::deque<Attempt> pending_;
    std::vector<std::shared_ptr<RemoteJob>> inflight_;
    std::vector<double> samples_ms_;  ///< completed attempt latencies
    bool stop_ = false;

    std::atomic<size_t> active_{0};
    std::atomic<int> alive_workers_{0};
    std::atomic<int64_t> dispatch_seq_{0};

    // Stats counters, guarded by mu_.
    service::ExecutorStats counters_;
};

} // namespace vbench::rpc
