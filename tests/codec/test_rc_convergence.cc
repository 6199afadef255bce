/**
 * @file
 * Rate-control convergence properties across bitrates and content —
 * parameterized end-to-end sweeps (the behaviour every bitrate-driven
 * scenario depends on).
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "codec/decoder.h"
#include "codec/encoder.h"
#include "metrics/rates.h"
#include "video/synth.h"

namespace vbench::codec {
namespace {

/**
 * gtest names each case after the raw bytes of its parameter, so the
 * bytes between `fills_budget` and `bpps` and after `content` are
 * zeroed members rather than implicit padding: uninitialized padding
 * gave the cases a different name from run to run. Targets 1.2 and 2.4
 * share the first six bytes of their double, so `fills_budget` sits in
 * the second byte, where it tells apart two such cases of one mode at
 * the head of their names.
 */
struct RcCase {
    RcCase(RcMode m, double b, video::ContentClass c)
        : mode(m), fills_budget(c == video::ContentClass::Noisy), bpps(b),
          content(c)
    {
    }
    RcMode mode;
    bool fills_budget;  ///< checked against undershoot: Noisy content
    uint8_t zero[6] = {};
    double bpps;  ///< target in bits/pixel/s
    video::ContentClass content;
    uint8_t zero_tail[4] = {};
};
// A double has no unique object representation, so "no padding" is
// checked as the members' sizes adding up to the whole.
static_assert(sizeof(RcCase) == sizeof(RcMode) + sizeof(bool) + 6 +
                                    sizeof(double) +
                                    sizeof(video::ContentClass) + 4,
              "RcCase must have no padding bytes");

class RcSweep : public ::testing::TestWithParam<RcCase>
{
};

TEST_P(RcSweep, ConvergesWithinBand)
{
    const RcCase param = GetParam();
    const video::Video clip = video::synthesize(
        video::presetFor(param.content, 192, 160, 30.0, 16, 606), "rc");

    EncoderConfig cfg;
    cfg.rc.mode = param.mode;
    cfg.rc.bitrate_bps = param.bpps * clip.pixelsPerFrame();
    cfg.effort = 4;
    cfg.gop = 0;
    Encoder encoder(cfg);
    const EncodeResult result = encoder.encode(clip);
    ASSERT_TRUE(decode(result.stream).has_value());

    const double actual = metrics::bitsPerPixelPerSecond(
        result.totalBytes(), clip.width(), clip.height(),
        clip.frameCount(), clip.fps());
    // Band: the QP-floor saturation makes undershoot legitimate on
    // easy content, overshoot is bounded by the feedback loop.
    EXPECT_LT(actual, param.bpps * 2.6)
        << "gross overshoot at target " << param.bpps;
    if (param.fills_budget) {
        // Hard content fully uses its budget.
        EXPECT_GT(actual, param.bpps * 0.4);
    }
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndRates, RcSweep,
    ::testing::Values(
        RcCase{RcMode::Abr, 0.4, video::ContentClass::Natural},
        RcCase{RcMode::Abr, 1.2, video::ContentClass::Natural},
        RcCase{RcMode::Abr, 2.4, video::ContentClass::Noisy},
        RcCase{RcMode::TwoPass, 0.4, video::ContentClass::Natural},
        RcCase{RcMode::TwoPass, 1.2, video::ContentClass::Sports},
        RcCase{RcMode::TwoPass, 2.4, video::ContentClass::Noisy}));

TEST(RcConvergence, TwoPassTracksComplexitySpikes)
{
    // A clip with a hard mid-clip scene change: two-pass must shift
    // bits toward the post-cut frames instead of starving them. The
    // cut is constructed (luma inversion at frame 8) so the detector
    // has no seed-dependent ambiguity.
    video::SynthParams p = video::presetFor(
        video::ContentClass::Slideshow, 160, 128, 30.0, 16, 707);
    p.scene_cut_interval = 0;  // one synthesized scene...
    video::Video clip = video::synthesize(p);
    for (int i = 8; i < clip.frameCount(); ++i) {  // ...cut by hand
        video::Plane &y = clip.frame(i).y();
        for (int r = 0; r < y.height(); ++r)
            for (int c = 0; c < y.width(); ++c)
                y.at(c, r) = static_cast<uint8_t>(255 - y.at(c, r));
    }

    EncoderConfig cfg;
    cfg.rc.mode = RcMode::TwoPass;
    cfg.rc.bitrate_bps = 1.0 * clip.pixelsPerFrame();
    cfg.effort = 4;
    cfg.gop = 0;
    Encoder encoder(cfg);
    const EncodeResult result = encoder.encode(clip);

    // The scene-cut keyframe must be among the largest frames.
    size_t cut_bytes = 0;
    size_t max_bytes = 0;
    for (size_t i = 0; i < result.frames.size(); ++i) {
        max_bytes = std::max(max_bytes, result.frames[i].bytes);
        if (i == 8)
            cut_bytes = result.frames[i].bytes;
    }
    EXPECT_EQ(result.frames[8].type, FrameType::I);
    EXPECT_GT(cut_bytes, max_bytes / 4);
}

TEST(RcConvergence, CrfBitsScaleWithContentNotTarget)
{
    // CRF mode: equal quality setting, bits follow content.
    auto encode = [](video::ContentClass content) {
        const video::Video clip = video::synthesize(
            video::presetFor(content, 160, 128, 30.0, 8, 909), "c");
        EncoderConfig cfg;
        cfg.rc.mode = RcMode::Crf;
        cfg.rc.crf = 23;
        cfg.effort = 4;
        Encoder encoder(cfg);
        return encoder.encode(clip).totalBytes();
    };
    EXPECT_GT(encode(video::ContentClass::Noisy),
              3 * encode(video::ContentClass::Slideshow));
}

} // namespace
} // namespace vbench::codec
