/**
 * @file
 * Dispatch-layer tests: VBENCH_ISA name parsing, table availability
 * invariants, the ScopedKernelIsa test hook, and the headline
 * guarantee — encoded streams and quality scores are byte-identical
 * across every ISA level available on the host, for both codecs.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "codec/decoder.h"
#include "codec/encoder.h"
#include "kernels/kernel_ops.h"
#include "metrics/psnr.h"
#include "metrics/ssim.h"
#include "ngc/ngc_encoder.h"
#include "video/synth.h"

using vbench::kernels::Isa;
using vbench::kernels::KernelOps;
using vbench::kernels::ScopedKernelIsa;

namespace {

std::vector<Isa>
availableLevels()
{
    std::vector<Isa> out;
    for (const Isa isa : {Isa::Scalar, Isa::Sse2, Isa::Avx2}) {
        if (vbench::kernels::opsFor(isa) != nullptr)
            out.push_back(isa);
    }
    return out;
}

} // namespace

TEST(KernelDispatch, ParseIsaName)
{
    using vbench::kernels::parseIsaName;
    EXPECT_EQ(parseIsaName("scalar"), Isa::Scalar);
    EXPECT_EQ(parseIsaName("sse2"), Isa::Sse2);
    EXPECT_EQ(parseIsaName("avx2"), Isa::Avx2);
    EXPECT_EQ(parseIsaName("SCALAR"), Isa::Scalar);
    EXPECT_EQ(parseIsaName("Avx2"), Isa::Avx2);
    EXPECT_EQ(parseIsaName("native"),
              vbench::kernels::detectBestIsa());
    EXPECT_FALSE(parseIsaName("").has_value());
    EXPECT_FALSE(parseIsaName("sse4").has_value());
    EXPECT_FALSE(parseIsaName("avx512").has_value());
}

TEST(KernelDispatch, TableInvariants)
{
    // Scalar is always available and fully populated.
    const KernelOps *scalar = vbench::kernels::opsFor(Isa::Scalar);
    ASSERT_NE(scalar, nullptr);
    EXPECT_EQ(scalar->isa, Isa::Scalar);
    EXPECT_STREQ(scalar->name, "scalar");

    for (const Isa isa : availableLevels()) {
        const KernelOps *t = vbench::kernels::opsFor(isa);
        ASSERT_NE(t, nullptr);
        EXPECT_EQ(t->isa, isa);
        EXPECT_STREQ(t->name, vbench::kernels::isaName(isa));
        // Every entry must be callable (vector tables inherit scalar
        // pointers for kernels they do not override).
        EXPECT_NE(t->sad, nullptr);
        EXPECT_NE(t->satd, nullptr);
        EXPECT_NE(t->copy2d, nullptr);
        EXPECT_NE(t->interpH, nullptr);
        EXPECT_NE(t->interpV, nullptr);
        EXPECT_NE(t->interpHV, nullptr);
        EXPECT_NE(t->fwdTx4x4, nullptr);
        EXPECT_NE(t->invTx4x4, nullptr);
        EXPECT_NE(t->fwdTx8x8, nullptr);
        EXPECT_NE(t->invTx8x8, nullptr);
        EXPECT_NE(t->quant4x4, nullptr);
        EXPECT_NE(t->dequant4x4, nullptr);
        EXPECT_NE(t->diffBlock, nullptr);
        EXPECT_NE(t->addClampBlock, nullptr);
        EXPECT_NE(t->deblockEdgeH, nullptr);
        EXPECT_NE(t->sse8, nullptr);
        EXPECT_NE(t->ssimWindowSums, nullptr);
    }

    // The active table is one of the available levels.
    const Isa active = vbench::kernels::activeIsa();
    EXPECT_NE(vbench::kernels::opsFor(active), nullptr);
    EXPECT_EQ(vbench::kernels::ops().isa, active);
}

TEST(KernelDispatch, ScopedIsaSwapsAndRestores)
{
    const Isa before = vbench::kernels::activeIsa();
    {
        ScopedKernelIsa pin(Isa::Scalar);
        EXPECT_EQ(vbench::kernels::activeIsa(), Isa::Scalar);
        {
            ScopedKernelIsa inner(vbench::kernels::detectBestIsa());
            EXPECT_EQ(vbench::kernels::activeIsa(),
                      vbench::kernels::detectBestIsa());
        }
        EXPECT_EQ(vbench::kernels::activeIsa(), Isa::Scalar);
    }
    EXPECT_EQ(vbench::kernels::activeIsa(), before);
}

TEST(KernelDispatch, EncodeBitExactAcrossIsaLevels)
{
    namespace video = vbench::video;
    const video::Video clip = video::synthesize(
        video::presetFor(video::ContentClass::Natural, 144, 112, 30.0, 4,
                         123),
        "isa-sweep");

    // VBC effort 2 (hexagon, full-pel) and 9 (exhaustive search, SATD
    // sub-pel and intra); NGC HEVC-like speed 1 and VP9-like speed 0
    // (exhaustive search).
    const int vbc_efforts[] = {2, 9};
    const std::pair<vbench::ngc::NgcProfile, int> ngc_settings[] = {
        {vbench::ngc::NgcProfile::HevcLike, 1},
        {vbench::ngc::NgcProfile::Vp9Like, 0}};

    struct Result {
        std::vector<std::vector<uint8_t>> streams;
        std::vector<double> psnr;
        std::vector<double> ssim;
    };
    std::vector<Result> results;

    for (const Isa isa : availableLevels()) {
        ScopedKernelIsa pin(isa);
        Result result;

        for (const int effort : vbc_efforts) {
            vbench::codec::EncoderConfig vbc_cfg;
            vbc_cfg.rc.mode = vbench::codec::RcMode::Cqp;
            vbc_cfg.rc.qp = 30;
            vbc_cfg.effort = effort;
            vbc_cfg.gop = 4;
            vbench::codec::Encoder vbc(vbc_cfg);
            const auto vbc_out = vbc.encode(clip);

            // Decode under the same pinned ISA: the decoder's kernels
            // must reconstruct identically too, and the metrics kernels
            // must score identically.
            const auto decoded = vbench::codec::decode(vbc_out.stream);
            ASSERT_TRUE(decoded.has_value());
            result.streams.push_back(vbc_out.stream);
            result.psnr.push_back(
                vbench::metrics::videoPsnr(clip, *decoded));
            result.ssim.push_back(
                vbench::metrics::videoSsim(clip, *decoded));
        }

        for (const auto &[profile, speed] : ngc_settings) {
            vbench::ngc::NgcConfig ngc_cfg;
            ngc_cfg.rc.mode = vbench::codec::RcMode::Cqp;
            ngc_cfg.rc.qp = 30;
            ngc_cfg.profile = profile;
            ngc_cfg.speed = speed;
            ngc_cfg.gop = 4;
            vbench::ngc::NgcEncoder ngc(ngc_cfg);
            result.streams.push_back(ngc.encode(clip).stream);
        }
        results.push_back(std::move(result));
    }

    ASSERT_FALSE(results.empty());
    for (size_t i = 1; i < results.size(); ++i) {
        EXPECT_EQ(results[0].streams, results[i].streams)
            << "a stream differs at ISA level " << i;
        EXPECT_EQ(results[0].psnr, results[i].psnr)
            << "PSNR differs at ISA level " << i;
        EXPECT_EQ(results[0].ssim, results[i].ssim)
            << "SSIM differs at ISA level " << i;
    }
}
