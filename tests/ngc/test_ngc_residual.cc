/**
 * @file
 * NGC transform-unit syntax round-trip tests.
 */

#include <gtest/gtest.h>

#include <array>

#include "ngc/ngc_residual.h"
#include "video/rng.h"

namespace vbench::ngc {
namespace {

using codec::ArithSyntaxReader;
using codec::ArithSyntaxWriter;
using codec::ByteBuffer;

struct Tu {
    std::array<int16_t, 4> dc{};
    std::array<int16_t, 64> ac{};
    bool luma = true;
};

Tu
randomTu(video::Rng &rng)
{
    Tu tu;
    tu.luma = rng.below(2) == 0;
    const int n_dc = static_cast<int>(rng.below(5));
    for (int i = 0; i < n_dc; ++i)
        tu.dc[rng.below(4)] = static_cast<int16_t>(rng.range(-800, 800));
    const int n_ac = static_cast<int>(rng.below(30));
    for (int i = 0; i < n_ac; ++i) {
        const size_t pos = rng.below(64);
        if (pos % 16 == 0)
            continue;  // position 0 of each sub-block stays zero
        tu.ac[pos] = static_cast<int16_t>(rng.range(-300, 300));
    }
    return tu;
}

TEST(NgcResidual, RandomTusRoundTrip)
{
    video::Rng rng(42);
    std::vector<Tu> tus;
    for (int i = 0; i < 400; ++i)
        tus.push_back(randomTu(rng));

    ByteBuffer buf;
    {
        ArithSyntaxWriter writer(buf, nctx::kNumContexts);
        for (const Tu &tu : tus)
            writeTu8(writer, tu.dc.data(), tu.ac.data(), tu.luma);
        writer.finish();
    }
    {
        ArithSyntaxReader reader(buf.data(), buf.size(),
                                 nctx::kNumContexts);
        for (size_t i = 0; i < tus.size(); ++i) {
            int16_t dc[4];
            int16_t ac[64];
            ASSERT_GE(readTu8(reader, dc, ac, tus[i].luma), 0)
                << "tu " << i;
            for (int j = 0; j < 4; ++j)
                ASSERT_EQ(dc[j], tus[i].dc[j]) << "tu " << i;
            for (int j = 0; j < 64; ++j)
                ASSERT_EQ(ac[j], tus[i].ac[j]) << "tu " << i;
        }
    }
}

TEST(NgcResidual, EmptyTuIsCheap)
{
    Tu tu;
    ByteBuffer buf;
    ArithSyntaxWriter writer(buf, nctx::kNumContexts);
    for (int i = 0; i < 64; ++i)
        writeTu8(writer, tu.dc.data(), tu.ac.data(), true);
    writer.finish();
    // 5 near-deterministic bins per empty TU compress far below a
    // byte each once the contexts adapt.
    EXPECT_LT(buf.size(), 64u);
}

TEST(NgcResidual, NonzeroAcPositionZeroRejected)
{
    // A stream claiming a nonzero at an AC sub-block's position 0 is
    // structurally invalid and must be rejected.
    ByteBuffer buf;
    {
        ArithSyntaxWriter writer(buf, nctx::kNumContexts);
        writer.ue(0, nctx::kDcCount, 3);  // no DC levels
        // First AC block: one coefficient at zigzag position 0.
        writer.ue(1, codec::ctx::kCoefCountY, 4);
        writer.ue(0, codec::ctx::kRun, 3);
        writer.ue(4, codec::ctx::kLevel, 4);
        writer.bypass(0);
        for (int sb = 1; sb < 4; ++sb)
            writer.ue(0, codec::ctx::kCoefCountY, 4);
        writer.finish();
    }
    ArithSyntaxReader reader(buf.data(), buf.size(), nctx::kNumContexts);
    int16_t dc[4];
    int16_t ac[64];
    EXPECT_EQ(readTu8(reader, dc, ac, true), -1);
}

TEST(NgcResidual, Cu8ChromaLevelsCountTowardTheCu)
{
    // A CU8 carries one 4x4 block per chroma plane. When those are its
    // only nonzero levels the CU is still coded, and the count the
    // parse returns (which decides the deblocking strength) must be the
    // one written.
    int16_t levels[kMaxCuLevels] = {};
    ASSERT_EQ(cuLevelCount(8), kTuLevels + 2 * 16);
    int16_t *u = levels + kTuLevels;
    int16_t *v = u + 16;
    u[0] = 3;
    u[5] = -1;
    v[15] = 2;
    ByteBuffer buf;
    {
        ArithSyntaxWriter writer(buf, nctx::kNumContexts);
        writeCuLevels(writer, 8, levels);
        writer.finish();
    }
    ArithSyntaxReader reader(buf.data(), buf.size(), nctx::kNumContexts);
    int16_t parsed[kMaxCuLevels];
    EXPECT_EQ(readCuLevels(reader, 8, parsed), 3);
    for (int i = 0; i < cuLevelCount(8); ++i)
        ASSERT_EQ(parsed[i], levels[i]) << "level " << i;
}

} // namespace
} // namespace vbench::ngc
