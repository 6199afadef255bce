/**
 * @file
 * RemotePool supervision (src/rpc/remote_pool.h): real fork/exec'd
 * vbench_worker children produce byte-identical streams to in-process
 * execution; an idle pool picks up every submitted job; a SIGKILLed
 * child's job survives via retry + respawn; a handshake protocol
 * mismatch and a missing worker binary both walk the degradation
 * ladder down to in-process execution instead of failing the job.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>

#include "rpc/remote_pool.h"
#include "service/segment_job.h"
#include "service/workload.h"

namespace vbench::rpc {
namespace {

using service::Corpus;
using service::CorpusClip;
using service::SegmentJob;
using service::SegmentResult;

const CorpusClip &
testClip()
{
    static const Corpus corpus = [] {
        video::ClipSpec spec;
        spec.name = "rp";
        spec.width = 96;
        spec.height = 64;
        spec.fps = 30.0;
        spec.content = video::ContentClass::Natural;
        spec.seed = 19;
        return service::buildCorpus({spec}, 8, 4);
    }();
    return corpus.clips.front();
}

SegmentJob
encodeJob(const CorpusClip &clip, int segment)
{
    SegmentJob job;
    job.request_id = 1;
    job.rung = "only";
    job.segment_index = segment;
    job.scenario = core::Scenario::Upload;
    job.input = *clip.seg_universal[static_cast<size_t>(segment)];
    job.params.kind = core::EncoderKind::Vbc;
    job.params.effort = 3;
    job.params.rc.mode = codec::RcMode::Crf;
    job.params.rc.crf = 30.0;
    job.params.rc.fps = 30.0;
    job.params.rc.pixels_per_frame = 96.0 * 64.0;
    return job;
}

TEST(RemotePool, ChildProcessesProduceByteIdenticalStreams)
{
    const CorpusClip &clip = testClip();
    RemotePoolConfig config;
    config.workers = 2;
    config.hedge = false;
    RemotePool pool(config);

    // The children are real: live pids, kill(pid, 0) reaches them.
    // Slots spawn asynchronously, so poll briefly for both.
    int alive = 0;
    for (int spin = 0; spin < 500 && alive < 2; ++spin) {
        alive = 0;
        for (const int64_t pid : pool.workerPids())
            if (pid > 0 && ::kill(static_cast<pid_t>(pid), 0) == 0)
                ++alive;
        if (alive < 2)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
    }
    ASSERT_EQ(alive, 2);

    std::vector<sched::JobHandle> handles;
    std::vector<SegmentResult> local;
    for (int k = 0; k < 2; ++k) {
        const SegmentJob job = encodeJob(clip, k);
        local.push_back(service::executeSegmentJob(
            job, clip.seg_original[static_cast<size_t>(k)].get()));
        handles.push_back(pool.submit(
            job, clip.seg_original[static_cast<size_t>(k)]));
    }
    for (int k = 0; k < 2; ++k) {
        const sched::JobResult &jr = handles[static_cast<size_t>(k)]
                                         .wait();
        ASSERT_TRUE(jr.ok()) << jr.outcome.error;
        // The headline invariant: WHERE the segment ran is invisible
        // in the bytes.
        EXPECT_EQ(jr.outcome.stream,
                  local[static_cast<size_t>(k)].stream);
        EXPECT_GT(jr.end_ns, jr.start_ns);
        EXPECT_GE(jr.start_ns, jr.submit_ns);
        // The measured child wall time rode back over the wire.
        EXPECT_GT(jr.seconds, 0.0);
    }

    const service::ExecutorStats stats = pool.stats();
    EXPECT_TRUE(stats.remote);
    EXPECT_EQ(stats.completed, 2u);
    EXPECT_GE(stats.dispatched, 2u);
    EXPECT_EQ(stats.retries, 0u);
    EXPECT_EQ(stats.degraded_local, 0u);
    ASSERT_EQ(stats.workers.size(), 2u);
    for (const service::ExecutorWorkerInfo &w : stats.workers) {
        EXPECT_TRUE(w.alive);
        EXPECT_GT(w.pid, 0);
        EXPECT_FALSE(w.tier.empty());
    }
}

TEST(RemotePool, IdlePoolNeverStrandsASubmittedJob)
{
    // A 1-slot pool fed one job at a time: every submit finds the slot
    // thread idle, waiting beside the hedge thread. A wakeup that
    // reaches only the hedge thread would leave the job queued forever,
    // so each wait is bounded and a stranded job fails the test
    // instead of hanging it.
    const CorpusClip &clip = testClip();
    RemotePoolConfig config;
    config.workers = 1;
    RemotePool pool(config);
    constexpr int kJobs = 20;
    for (int k = 0; k < kJobs; ++k) {
        const size_t segment = static_cast<size_t>(k % 2);
        sched::JobHandle handle =
            pool.submit(encodeJob(clip, static_cast<int>(segment)),
                        clip.seg_original[segment]);
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (!handle.finished() &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ASSERT_TRUE(handle.finished()) << "job " << k << " stranded";
        const sched::JobResult &jr = handle.wait();
        EXPECT_TRUE(jr.ok()) << jr.outcome.error;
    }
    EXPECT_EQ(pool.stats().completed, static_cast<uint64_t>(kJobs));
}

TEST(RemotePool, SigkilledChildJobSurvivesViaRetryAndRespawn)
{
    const CorpusClip &clip = testClip();
    const SegmentJob job = encodeJob(clip, 0);
    const SegmentResult local =
        service::executeSegmentJob(job, clip.seg_original[0].get());

    RemotePoolConfig config;
    config.workers = 1;
    config.hedge = false;
    // Kill the child right after dispatch #0 lands on its socket: the
    // job dies mid-segment, the retry path must absorb it.
    config.inject_kill_at = 0;
    RemotePool pool(config);

    sched::JobHandle handle = pool.submit(job, clip.seg_original[0]);
    const sched::JobResult &jr = handle.wait();
    ASSERT_TRUE(jr.ok()) << jr.outcome.error;
    EXPECT_EQ(jr.outcome.stream, local.stream);

    const service::ExecutorStats stats = pool.stats();
    EXPECT_EQ(stats.kills_injected, 1u);
    EXPECT_GE(stats.worker_deaths, 1u);
    EXPECT_GE(stats.retries, 1u);
    // The slot respawned a fresh child to serve the retry remotely.
    EXPECT_GE(stats.respawns, 1u);
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_EQ(stats.degraded_local, 0u);
}

TEST(RemotePool, HandshakeProtocolMismatchDegradesToInProcess)
{
    // The worker advertises a bogus protocol version (test hook in
    // runWorkerLoop): every spawn fails the handshake, the slot
    // degrades, and the job still completes — in-process.
    ASSERT_EQ(::setenv("VBENCH_RPC_FAKE_PROTO", "9", 1), 0);
    const CorpusClip &clip = testClip();
    const SegmentJob job = encodeJob(clip, 0);
    const SegmentResult local =
        service::executeSegmentJob(job, clip.seg_original[0].get());
    {
        RemotePoolConfig config;
        config.workers = 1;
        config.hedge = false;
        config.respawn_limit = 1;
        config.backoff_ms = 1;
        RemotePool pool(config);
        sched::JobHandle handle =
            pool.submit(job, clip.seg_original[0]);
        const sched::JobResult &jr = handle.wait();
        ASSERT_TRUE(jr.ok()) << jr.outcome.error;
        EXPECT_EQ(jr.outcome.stream, local.stream);
        const service::ExecutorStats stats = pool.stats();
        EXPECT_GE(stats.degraded_local, 1u);
        EXPECT_EQ(stats.completed, 1u);
        for (const service::ExecutorWorkerInfo &w : stats.workers)
            EXPECT_FALSE(w.alive);
    }
    ASSERT_EQ(::unsetenv("VBENCH_RPC_FAKE_PROTO"), 0);
}

TEST(RemotePool, MissingWorkerBinaryDegradesToInProcess)
{
    const CorpusClip &clip = testClip();
    const SegmentJob job = encodeJob(clip, 1);
    const SegmentResult local =
        service::executeSegmentJob(job, clip.seg_original[1].get());

    RemotePoolConfig config;
    config.workers = 1;
    config.hedge = false;
    config.worker_binary = "/nonexistent/vbench_worker";
    config.respawn_limit = 2;
    config.backoff_ms = 1;
    RemotePool pool(config);

    sched::JobHandle handle = pool.submit(job, clip.seg_original[1]);
    const sched::JobResult &jr = handle.wait();
    ASSERT_TRUE(jr.ok()) << jr.outcome.error;
    EXPECT_EQ(jr.outcome.stream, local.stream);
    const service::ExecutorStats stats = pool.stats();
    EXPECT_GE(stats.degraded_local, 1u);
    EXPECT_EQ(stats.dispatched, 0u);
}

} // namespace
} // namespace vbench::rpc
