/**
 * @file
 * The polymorphic EncoderBackend seam: create() realizes every
 * EncoderKind, encode()/decodeOutput() roundtrip, hardware backends
 * report modeled seconds, describe() names the configuration, and
 * TranscodeRequest::validate() rejects every malformed knob that
 * transcode() must fail fast on, tool overrides included.
 */

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "codec/decoder.h"
#include "codec/preset.h"
#include "core/encoder_backend.h"
#include "core/transcoder.h"
#include "hwenc/hwenc.h"
#include "metrics/psnr.h"
#include "video/synth.h"

namespace vbench::core {
namespace {

video::Video
clip(int w = 160, int h = 128, int frames = 4)
{
    return video::synthesize(
        video::presetFor(video::ContentClass::Natural, w, h, 30.0,
                         frames, 909),
        "backend");
}

TranscodeRequest
abrRequest(EncoderKind kind)
{
    TranscodeRequest req;
    req.kind = kind;
    req.rc.mode = codec::RcMode::Abr;
    req.rc.bitrate_bps = 800e3;
    req.effort = 3;
    req.ngc_speed = 2;
    return req;
}

TEST(EncoderBackend, CreateRealizesEveryKind)
{
    const video::Video v = clip();
    for (EncoderKind kind :
         {EncoderKind::Vbc, EncoderKind::NgcHevc, EncoderKind::NgcVp9,
          EncoderKind::NvencLike, EncoderKind::QsvLike}) {
        const TranscodeRequest req = abrRequest(kind);
        ASSERT_TRUE(req.validate().empty());
        auto backend = EncoderBackend::create(req, nullptr);
        ASSERT_NE(backend, nullptr) << toString(kind);
        EXPECT_EQ(backend->kind(), kind);
        EXPECT_FALSE(backend->describe().empty()) << toString(kind);

        BackendEncodeResult result = backend->encode(v);
        ASSERT_FALSE(result.encoded.stream.empty()) << toString(kind);
        const auto decoded = backend->decodeOutput(result.encoded.stream);
        ASSERT_TRUE(decoded.has_value()) << toString(kind);
        EXPECT_EQ(decoded->frameCount(), v.frameCount());
        EXPECT_GT(metrics::videoPsnr(v, *decoded), 20.0)
            << toString(kind);
    }
}

TEST(EncoderBackend, OnlyHardwareReportsModeledSeconds)
{
    const video::Video v = clip(96, 96, 2);
    for (EncoderKind kind :
         {EncoderKind::Vbc, EncoderKind::NgcHevc, EncoderKind::NgcVp9,
          EncoderKind::NvencLike, EncoderKind::QsvLike}) {
        auto backend = EncoderBackend::create(abrRequest(kind), nullptr);
        const BackendEncodeResult result = backend->encode(v);
        const bool hw = kind == EncoderKind::NvencLike ||
            kind == EncoderKind::QsvLike;
        EXPECT_EQ(result.modeled_seconds.has_value(), hw)
            << toString(kind);
        if (hw) {
            EXPECT_GT(*result.modeled_seconds, 0.0) << toString(kind);
        }
    }
}

TEST(EncoderBackend, DescribeNamesTheConfiguration)
{
    TranscodeRequest req = abrRequest(EncoderKind::Vbc);
    req.effort = 7;
    auto backend = EncoderBackend::create(req, nullptr);
    const std::string text = backend->describe();
    EXPECT_NE(text.find("vbc"), std::string::npos) << text;
    EXPECT_NE(text.find("7"), std::string::npos) << text;
}

TEST(EncoderBackend, MatchesTranscodeOutput)
{
    // transcode() is a thin driver over the backend seam: encoding the
    // decoded universal stream directly through a backend must produce
    // the exact stream the full transcode reports.
    const video::Video v = clip();
    const codec::ByteBuffer universal = makeUniversalStream(v);
    const TranscodeRequest req = abrRequest(EncoderKind::Vbc);

    const TranscodeOutcome outcome = transcode(universal, v, req);
    ASSERT_TRUE(outcome.ok) << outcome.error;

    const auto decoded_input = codec::decode(universal);
    ASSERT_TRUE(decoded_input.has_value());
    auto backend = EncoderBackend::create(req, nullptr);
    const BackendEncodeResult direct = backend->encode(*decoded_input);
    EXPECT_EQ(direct.encoded.stream, outcome.stream);
}

TEST(RequestValidate, AcceptsDefaults)
{
    EXPECT_TRUE(TranscodeRequest{}.validate().empty());
    // So does every tool set the presets and hardware models use.
    TranscodeRequest req;
    for (int effort = 0; effort < codec::kNumEfforts; ++effort) {
        req.tools_override = codec::presetForEffort(effort);
        EXPECT_TRUE(req.validate().empty())
            << "effort " << effort << ": " << req.validate();
    }
    for (const hwenc::HwEncoderSpec &spec :
         {hwenc::nvencLikeSpec(), hwenc::qsvLikeSpec()}) {
        req.tools_override = spec.tools;
        EXPECT_TRUE(req.validate().empty())
            << spec.name << ": " << req.validate();
    }
}

TEST(RequestValidate, RejectsEveryBadKnob)
{
    const auto expectInvalid = [](TranscodeRequest req,
                                  const std::string &needle) {
        const std::string err = req.validate();
        EXPECT_FALSE(err.empty()) << "expected rejection for " << needle;
        EXPECT_NE(err.find(needle), std::string::npos) << err;
        // transcode() surfaces the same message, fail-fast.
        const video::Video v = video::synthesize(
            video::presetFor(video::ContentClass::Natural, 96, 96, 30.0,
                             1, 1),
            "v");
        const TranscodeOutcome outcome =
            transcode(makeUniversalStream(v), v, req);
        EXPECT_FALSE(outcome.ok);
        EXPECT_NE(outcome.error.find("invalid request"),
                  std::string::npos)
            << outcome.error;
    };

    TranscodeRequest req;
    req.effort = -1;
    expectInvalid(req, "effort");
    req = {};
    req.effort = codec::kNumEfforts;
    expectInvalid(req, "effort");
    req = {};
    req.ngc_speed = 3;
    expectInvalid(req, "ngc_speed");
    req = {};
    req.gop = -5;
    expectInvalid(req, "gop");
    req = {};
    req.entropy_override = 2;
    expectInvalid(req, "entropy_override");
    req = {};
    req.deblock_override = 2;
    expectInvalid(req, "deblock_override");
    req = {};
    req.rc.mode = codec::RcMode::Cqp;
    req.rc.qp = 99;
    expectInvalid(req, "rc.qp");
    req = {};
    req.rc.mode = codec::RcMode::Crf;
    req.rc.crf = -3;
    expectInvalid(req, "rc.crf");
    req = {};
    req.rc.mode = codec::RcMode::Abr;
    req.rc.bitrate_bps = 0;
    expectInvalid(req, "rc.bitrate_bps");
    req = {};
    req.rc.mode = codec::RcMode::TwoPass;
    req.rc.bitrate_bps = -1;
    expectInvalid(req, "rc.bitrate_bps");
    req = {};
    req.rc.fps = 0;
    expectInvalid(req, "rc.fps");
    req = {};
    req.rc.min_qp = 77;
    expectInvalid(req, "rc.min_qp");

    // Tool overrides: one step outside each field's span.
    const auto withTools = [](void (*edit)(codec::ToolPreset &)) {
        TranscodeRequest r;
        codec::ToolPreset tools = codec::presetForEffort(5);
        edit(tools);
        r.tools_override = tools;
        return r;
    };
    using T = codec::ToolPreset;
    expectInvalid(withTools([](T &t) { t.search = codec::SearchKind{3}; }),
                  "tools_override.search");
    expectInvalid(withTools([](T &t) { t.range = 7; }),
                  "tools_override.range");
    expectInvalid(withTools([](T &t) { t.range = 33; }),
                  "tools_override.range");
    expectInvalid(withTools([](T &t) {
                      t.range = std::numeric_limits<int>::max();
                  }),
                  "tools_override.range");
    expectInvalid(withTools([](T &t) { t.subpel_iters = -1; }),
                  "tools_override.subpel_iters");
    expectInvalid(withTools([](T &t) { t.subpel_iters = 4; }),
                  "tools_override.subpel_iters");
    expectInvalid(withTools([](T &t) { t.refs = 0; }),
                  "tools_override.refs");
    expectInvalid(withTools([](T &t) { t.refs = 5; }),
                  "tools_override.refs");
    expectInvalid(withTools([](T &t) { t.rdo = -1; }),
                  "tools_override.rdo");
    expectInvalid(withTools([](T &t) { t.rdo = 3; }),
                  "tools_override.rdo");
    expectInvalid(withTools([](T &t) { t.entropy = codec::EntropyMode{2}; }),
                  "tools_override.entropy");
    expectInvalid(withTools([](T &t) { t.intra_modes = 1; }),
                  "tools_override.intra_modes");
    expectInvalid(withTools([](T &t) {
                      t.intra_modes = codec::kNumIntraModes + 1;
                  }),
                  "tools_override.intra_modes");
    expectInvalid(withTools([](T &t) { t.early_skip_scale = -0.5; }),
                  "tools_override.early_skip_scale");
    expectInvalid(withTools([](T &t) {
                      t.early_skip_scale =
                          std::numeric_limits<double>::quiet_NaN();
                  }),
                  "tools_override.early_skip_scale");
    expectInvalid(withTools([](T &t) {
                      t.early_skip_scale =
                          std::numeric_limits<double>::infinity();
                  }),
                  "tools_override.early_skip_scale");
}

TEST(RequestValidate, IgnoresKnobsTheModeDoesNotRead)
{
    // A CRF request doesn't read bitrate_bps; leaving it zero is fine.
    TranscodeRequest req;
    req.rc.mode = codec::RcMode::Crf;
    req.rc.crf = 23;
    req.rc.bitrate_bps = 0;
    EXPECT_TRUE(req.validate().empty()) << req.validate();
}

} // namespace
} // namespace vbench::core
