/**
 * @file
 * SegmentJob / SegmentResult wire format: lossless round-trips for
 * every serialized field (optionals present and absent), rejection of
 * corrupted messages (bad magic, unknown version, truncation at every
 * prefix, trailing bytes, out-of-range enums), and the execution
 * contract — a worker holding only the serialized bytes produces the
 * same encoded stream as the local dispatcher with the corpus in hand,
 * judges the request before it decodes anything, and measures quality
 * against the one decode of its input.
 */

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "codec/decoder.h"
#include "codec/preset.h"
#include "core/transcoder.h"
#include "service/segment_job.h"
#include "service/workload.h"

namespace vbench::service {
namespace {

/** A fully non-default SegmentJob to make round-trip checks strict. */
SegmentJob
sampleJob()
{
    SegmentJob job;
    job.request_id = 0x0123'4567'89ab'cdefull;
    job.rung = "hi-1080";
    job.segment_index = 3;
    job.scenario = core::Scenario::Popular;
    job.input = {0x10, 0x00, 0xff, 0x7f, 0x42};
    job.params.kind = core::EncoderKind::NgcHevc;
    job.params.rc.mode = codec::RcMode::Abr;
    job.params.rc.qp = 31;
    job.params.rc.crf = 19.5;
    job.params.rc.bitrate_bps = 750'000.0;
    job.params.rc.fps = 24.0;
    job.params.rc.pixels_per_frame = 96.0 * 64.0;
    job.params.rc.min_qp = 14;
    job.params.rc.ip_qp_offset = 2;
    job.params.effort = 7;
    job.params.ngc_speed = 2;
    job.params.gop = 48;
    job.params.entropy_override = 1;
    job.params.deblock_override = 0;
    codec::ToolPreset tools;
    tools.range = 24;
    tools.subpel_iters = 3;
    tools.inter8 = true;
    tools.refs = 2;
    tools.rdo = 1;
    tools.early_skip_scale = 1.25;
    job.params.tools_override = tools;
    job.params.frame_threads = 4;
    job.params.slice_count = 2;
    job.params.segment_frames = 8;
    job.params.rc_in = codec::RcSnapshot{12345.0, 11000.0, 16};
    job.params.span.trace_id = 0xaaaa'bbbb'cccc'ddddull;
    job.params.span.span_id = 77;
    job.params.span.parent_id = 76;
    return job;
}

void
expectJobsEqual(const SegmentJob &a, const SegmentJob &b)
{
    EXPECT_EQ(b.request_id, a.request_id);
    EXPECT_EQ(b.rung, a.rung);
    EXPECT_EQ(b.segment_index, a.segment_index);
    EXPECT_EQ(b.scenario, a.scenario);
    EXPECT_EQ(b.input, a.input);
    EXPECT_EQ(b.params.kind, a.params.kind);
    EXPECT_EQ(b.params.rc.mode, a.params.rc.mode);
    EXPECT_EQ(b.params.rc.qp, a.params.rc.qp);
    EXPECT_DOUBLE_EQ(b.params.rc.crf, a.params.rc.crf);
    EXPECT_DOUBLE_EQ(b.params.rc.bitrate_bps, a.params.rc.bitrate_bps);
    EXPECT_DOUBLE_EQ(b.params.rc.fps, a.params.rc.fps);
    EXPECT_DOUBLE_EQ(b.params.rc.pixels_per_frame,
                     a.params.rc.pixels_per_frame);
    EXPECT_EQ(b.params.rc.min_qp, a.params.rc.min_qp);
    EXPECT_EQ(b.params.rc.ip_qp_offset, a.params.rc.ip_qp_offset);
    EXPECT_EQ(b.params.effort, a.params.effort);
    EXPECT_EQ(b.params.ngc_speed, a.params.ngc_speed);
    EXPECT_EQ(b.params.gop, a.params.gop);
    EXPECT_EQ(b.params.entropy_override, a.params.entropy_override);
    EXPECT_EQ(b.params.deblock_override, a.params.deblock_override);
    ASSERT_EQ(b.params.tools_override.has_value(),
              a.params.tools_override.has_value());
    if (a.params.tools_override) {
        const codec::ToolPreset &ta = *a.params.tools_override;
        const codec::ToolPreset &tb = *b.params.tools_override;
        EXPECT_EQ(tb.search, ta.search);
        EXPECT_EQ(tb.range, ta.range);
        EXPECT_EQ(tb.subpel, ta.subpel);
        EXPECT_EQ(tb.subpel_iters, ta.subpel_iters);
        EXPECT_EQ(tb.inter8, ta.inter8);
        EXPECT_EQ(tb.refs, ta.refs);
        EXPECT_EQ(tb.rdo, ta.rdo);
        EXPECT_EQ(tb.adaptive_quant, ta.adaptive_quant);
        EXPECT_EQ(tb.entropy, ta.entropy);
        EXPECT_EQ(tb.deblock, ta.deblock);
        EXPECT_EQ(tb.intra_modes, ta.intra_modes);
        EXPECT_DOUBLE_EQ(tb.early_skip_scale, ta.early_skip_scale);
        EXPECT_EQ(tb.scenecut, ta.scenecut);
        EXPECT_EQ(tb.satd_subpel, ta.satd_subpel);
    }
    EXPECT_EQ(b.params.frame_threads, a.params.frame_threads);
    EXPECT_EQ(b.params.slice_count, a.params.slice_count);
    EXPECT_EQ(b.params.segment_frames, a.params.segment_frames);
    ASSERT_EQ(b.params.rc_in.has_value(), a.params.rc_in.has_value());
    if (a.params.rc_in) {
        EXPECT_DOUBLE_EQ(b.params.rc_in->spent_bits,
                         a.params.rc_in->spent_bits);
        EXPECT_DOUBLE_EQ(b.params.rc_in->planned_bits,
                         a.params.rc_in->planned_bits);
        EXPECT_EQ(b.params.rc_in->frames_done,
                  a.params.rc_in->frames_done);
    }
    EXPECT_EQ(b.params.span.trace_id, a.params.span.trace_id);
    EXPECT_EQ(b.params.span.span_id, a.params.span.span_id);
    EXPECT_EQ(b.params.span.parent_id, a.params.span.parent_id);
}

TEST(SegmentJobWire, RoundTripsEveryField)
{
    const SegmentJob job = sampleJob();
    std::string error;
    const auto back = SegmentJob::deserialize(job.serialize(), &error);
    ASSERT_TRUE(back.has_value()) << error;
    expectJobsEqual(job, *back);
}

TEST(SegmentJobWire, RoundTripsWithOptionalsAbsent)
{
    SegmentJob job = sampleJob();
    job.params.tools_override.reset();
    job.params.rc_in.reset();
    std::string error;
    const auto back = SegmentJob::deserialize(job.serialize(), &error);
    ASSERT_TRUE(back.has_value()) << error;
    expectJobsEqual(job, *back);
}

TEST(SegmentJobWire, RoundTripsADefaultConstructedJob)
{
    const SegmentJob job;  // empty rung, empty input, default params
    std::string error;
    const auto back = SegmentJob::deserialize(job.serialize(), &error);
    ASSERT_TRUE(back.has_value()) << error;
    expectJobsEqual(job, *back);
}

TEST(SegmentJobWire, LabelNamesRequestRungAndSegment)
{
    SegmentJob job;
    job.request_id = 12;
    job.rung = "lo";
    job.segment_index = 2;
    EXPECT_EQ(job.label(), "svc.12.lo.s2");
}

TEST(SegmentJobWire, RejectsBadMagic)
{
    codec::ByteBuffer bytes = sampleJob().serialize();
    bytes[0] ^= 0x01;
    std::string error;
    EXPECT_FALSE(SegmentJob::deserialize(bytes, &error).has_value());
    EXPECT_NE(error.find("bad magic"), std::string::npos) << error;
}

TEST(SegmentJobWire, RejectsUnknownVersion)
{
    codec::ByteBuffer bytes = sampleJob().serialize();
    bytes[4] = 0x7f;  // version is the u16 right after the magic
    std::string error;
    EXPECT_FALSE(SegmentJob::deserialize(bytes, &error).has_value());
    EXPECT_NE(error.find("unsupported wire version"), std::string::npos)
        << error;
}

TEST(SegmentJobWire, RejectsTruncationAtEveryPrefix)
{
    const codec::ByteBuffer bytes = sampleJob().serialize();
    for (size_t n = 0; n < bytes.size(); ++n) {
        const codec::ByteBuffer prefix(bytes.begin(),
                                       bytes.begin() +
                                           static_cast<long>(n));
        std::string error;
        EXPECT_FALSE(SegmentJob::deserialize(prefix, &error).has_value())
            << "prefix length " << n;
        EXPECT_FALSE(error.empty()) << "prefix length " << n;
    }
}

TEST(SegmentJobWire, RejectsTrailingBytes)
{
    codec::ByteBuffer bytes = sampleJob().serialize();
    bytes.push_back(0x00);
    std::string error;
    EXPECT_FALSE(SegmentJob::deserialize(bytes, &error).has_value());
    EXPECT_NE(error.find("trailing bytes"), std::string::npos) << error;
}

TEST(SegmentJobWire, RejectsOutOfRangeEnums)
{
    // serialize() writes whatever the struct holds; deserialize() is
    // the trust boundary and must refuse values outside the enums.
    SegmentJob bad_scenario = sampleJob();
    bad_scenario.scenario = static_cast<core::Scenario>(99);
    std::string error;
    EXPECT_FALSE(SegmentJob::deserialize(bad_scenario.serialize(),
                                         &error)
                     .has_value());
    EXPECT_NE(error.find("unknown scenario"), std::string::npos)
        << error;

    SegmentJob bad_kind = sampleJob();
    bad_kind.params.kind = static_cast<core::EncoderKind>(200);
    EXPECT_FALSE(
        SegmentJob::deserialize(bad_kind.serialize(), &error)
            .has_value());
    EXPECT_NE(error.find("unknown encoder kind"), std::string::npos)
        << error;

    SegmentJob bad_mode = sampleJob();
    bad_mode.params.rc.mode = static_cast<codec::RcMode>(250);
    EXPECT_FALSE(
        SegmentJob::deserialize(bad_mode.serialize(), &error)
            .has_value());
    EXPECT_NE(error.find("unknown rc mode"), std::string::npos) << error;
}

TEST(SegmentResultWire, RoundTripsEveryField)
{
    SegmentResult res;
    res.request_id = 41;
    res.rung = "mid";
    res.segment_index = 1;
    res.ok = true;
    res.error = "";
    res.stream = {0xde, 0xad, 0xbe, 0xef};
    res.rc_state = {4096.0, 4000.0, 8};
    res.critical_path.queue_wait_ms = 1.5;
    res.critical_path.rc_chain_ms = 0.25;
    res.critical_path.encode_ms = 12.0;
    res.critical_path.stitch_ms = 0.5;
    res.m.speed_mpix_s = 3.25;
    res.m.bitrate_bpps = 0.08;
    res.m.psnr_db = 38.5;
    res.seconds = 0.012;
    res.frame_threads = 2;
    res.slice_count = 4;

    std::string error;
    const auto back = SegmentResult::deserialize(res.serialize(), &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_EQ(back->request_id, res.request_id);
    EXPECT_EQ(back->rung, res.rung);
    EXPECT_EQ(back->segment_index, res.segment_index);
    EXPECT_EQ(back->ok, res.ok);
    EXPECT_EQ(back->error, res.error);
    EXPECT_EQ(back->stream, res.stream);
    EXPECT_DOUBLE_EQ(back->rc_state.spent_bits, res.rc_state.spent_bits);
    EXPECT_DOUBLE_EQ(back->rc_state.planned_bits,
                     res.rc_state.planned_bits);
    EXPECT_EQ(back->rc_state.frames_done, res.rc_state.frames_done);
    EXPECT_DOUBLE_EQ(back->critical_path.queue_wait_ms,
                     res.critical_path.queue_wait_ms);
    EXPECT_DOUBLE_EQ(back->critical_path.rc_chain_ms,
                     res.critical_path.rc_chain_ms);
    EXPECT_DOUBLE_EQ(back->critical_path.encode_ms,
                     res.critical_path.encode_ms);
    EXPECT_DOUBLE_EQ(back->critical_path.stitch_ms,
                     res.critical_path.stitch_ms);
    EXPECT_DOUBLE_EQ(back->m.speed_mpix_s, res.m.speed_mpix_s);
    EXPECT_DOUBLE_EQ(back->m.bitrate_bpps, res.m.bitrate_bpps);
    EXPECT_DOUBLE_EQ(back->m.psnr_db, res.m.psnr_db);
    EXPECT_DOUBLE_EQ(back->seconds, res.seconds);
    EXPECT_EQ(back->frame_threads, res.frame_threads);
    EXPECT_EQ(back->slice_count, res.slice_count);
}

TEST(SegmentResultWire, RoundTripsAFailedResult)
{
    SegmentResult res;
    res.request_id = 9;
    res.rung = "hi";
    res.ok = false;
    res.error = "cancelled";
    std::string error;
    const auto back = SegmentResult::deserialize(res.serialize(), &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_FALSE(back->ok);
    EXPECT_EQ(back->error, "cancelled");
    EXPECT_TRUE(back->stream.empty());
}

TEST(SegmentResultWire, RejectsAJobMessage)
{
    // The two message types are distinguishable by magic alone.
    std::string error;
    EXPECT_FALSE(SegmentResult::deserialize(sampleJob().serialize(),
                                            &error)
                     .has_value());
    EXPECT_NE(error.find("bad magic"), std::string::npos) << error;

    SegmentResult res;
    EXPECT_FALSE(
        SegmentJob::deserialize(res.serialize(), &error).has_value());
}

TEST(SegmentResultWire, RejectsTruncationAtEveryPrefix)
{
    SegmentResult res;
    res.rung = "r";
    res.stream = {1, 2, 3};
    const codec::ByteBuffer bytes = res.serialize();
    for (size_t n = 0; n < bytes.size(); ++n) {
        const codec::ByteBuffer prefix(bytes.begin(),
                                       bytes.begin() +
                                           static_cast<long>(n));
        std::string error;
        EXPECT_FALSE(
            SegmentResult::deserialize(prefix, &error).has_value())
            << "prefix length " << n;
    }
}

// ---- Execution: the wire message is a complete job description. ----

/** One small pre-segmented clip shared by the execution tests. */
const CorpusClip &
testClip()
{
    static const Corpus corpus = [] {
        video::ClipSpec spec;
        spec.name = "sj";
        spec.width = 96;
        spec.height = 64;
        spec.fps = 30.0;
        spec.content = video::ContentClass::Natural;
        spec.seed = 91;
        return buildCorpus({spec}, 8, 4);
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

TEST(SegmentJobExecute, MatchesADirectTranscode)
{
    const CorpusClip &clip = testClip();
    const SegmentJob job = encodeJob(clip, 0);

    const core::TranscodeOutcome direct = core::transcode(
        job.input, *clip.seg_original[0], job.params);
    ASSERT_TRUE(direct.ok) << direct.error;

    const SegmentResult res =
        executeSegmentJob(job, clip.seg_original[0].get());
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.stream, direct.stream);
    EXPECT_EQ(res.request_id, job.request_id);
    EXPECT_EQ(res.rung, job.rung);
    EXPECT_EQ(res.segment_index, job.segment_index);
    EXPECT_DOUBLE_EQ(res.m.psnr_db, direct.m.psnr_db);
}

TEST(SegmentJobExecute, WireCopyWithoutReferenceEncodesTheSameBytes)
{
    // The remote-worker path: serialize, deserialize, execute with no
    // host-side reference. The stream must be byte-identical — only
    // the PSNR baseline (decoded input vs pristine frames) may differ.
    const CorpusClip &clip = testClip();
    const SegmentJob job = encodeJob(clip, 1);

    const SegmentResult local =
        executeSegmentJob(job, clip.seg_original[1].get());
    ASSERT_TRUE(local.ok) << local.error;

    std::string error;
    const auto wire = SegmentJob::deserialize(job.serialize(), &error);
    ASSERT_TRUE(wire.has_value()) << error;
    const SegmentResult remote = executeSegmentJob(*wire, nullptr);
    ASSERT_TRUE(remote.ok) << remote.error;

    EXPECT_EQ(remote.stream, local.stream);
    EXPECT_EQ(remote.rc_state.frames_done, local.rc_state.frames_done);
    EXPECT_DOUBLE_EQ(remote.rc_state.spent_bits,
                     local.rc_state.spent_bits);
}

TEST(SegmentJobExecute, UndecodableInputFailsCleanly)
{
    SegmentJob job;
    job.input = {0x00, 0x01, 0x02};
    const SegmentResult res = executeSegmentJob(job, nullptr);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.error, "undecodable segment input");
}

TEST(SegmentJobExecute, WithoutReferenceMeasuresAgainstTheDecodedInput)
{
    // The worker decodes its input once and measures against the frames
    // the encode ran on: the same PSNR as a transcode measured against
    // a separate decode of the same bytes.
    const CorpusClip &clip = testClip();
    const SegmentJob job = encodeJob(clip, 1);
    const auto decoded = codec::decode(job.input);
    ASSERT_TRUE(decoded.has_value());
    const core::TranscodeOutcome direct =
        core::transcode(job.input, *decoded, job.params);
    ASSERT_TRUE(direct.ok) << direct.error;

    const SegmentResult res = executeSegmentJob(job, nullptr);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.stream, direct.stream);
    EXPECT_DOUBLE_EQ(res.m.psnr_db, direct.m.psnr_db);
    EXPECT_DOUBLE_EQ(res.m.bitrate_bpps, direct.m.bitrate_bpps);
}

TEST(SegmentJobExecute, ValidatesTheRequestBeforeDecoding)
{
    // Both invalid and undecodable: the request is judged first.
    SegmentJob job;
    job.input = {0x00, 0x01, 0x02};
    job.params.effort = -1;
    const SegmentResult res = executeSegmentJob(job, nullptr);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.error.rfind("invalid request: ", 0), 0u) << res.error;
}

TEST(SegmentJobExecute, OutOfRangeToolOverrideFailsCleanly)
{
    // Off the wire, an exhaustive search with an unbounded range: the
    // worker must refuse it, not run a raster scan that never ends.
    const CorpusClip &clip = testClip();
    SegmentJob job = encodeJob(clip, 0);
    codec::ToolPreset tools = codec::presetForEffort(9);
    tools.search = codec::SearchKind::Full;
    tools.range = std::numeric_limits<int>::max();
    job.params.tools_override = tools;

    std::string error;
    const auto wire = SegmentJob::deserialize(job.serialize(), &error);
    ASSERT_TRUE(wire.has_value()) << error;
    const SegmentResult res = executeSegmentJob(*wire, nullptr);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.error.rfind("invalid request: ", 0), 0u) << res.error;
    EXPECT_NE(res.error.find("tools_override.range"), std::string::npos)
        << res.error;
    EXPECT_TRUE(res.stream.empty());
}

TEST(SegmentJobExecute, ToTranscodeJobCarriesLabelInputAndParams)
{
    const CorpusClip &clip = testClip();
    SegmentJob job = encodeJob(clip, 0);
    const codec::ByteBuffer input = job.input;
    const sched::TranscodeJob tj =
        toTranscodeJob(std::move(job), clip.seg_original[0]);
    EXPECT_EQ(tj.label, "svc.1.only.s0");
    ASSERT_TRUE(tj.input);
    EXPECT_EQ(*tj.input, input);
    EXPECT_EQ(tj.original.get(), clip.seg_original[0].get());
    EXPECT_EQ(tj.request.kind, core::EncoderKind::Vbc);
    EXPECT_EQ(tj.request.rc.mode, codec::RcMode::Crf);
}

} // namespace
} // namespace vbench::service
