/**
 * @file
 * RefPlane padding, half-pel motion compensation and half-pel plane
 * tests.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <vector>

#include "codec/interp.h"
#include "codec/refplane.h"
#include "kernels/kernel_ops.h"
#include "video/frame.h"
#include "video/rng.h"

namespace vbench::codec {
namespace {

using video::Plane;

Plane
randomPlane(int w, int h, uint64_t seed)
{
    video::Rng rng(seed);
    Plane p(w, h);
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x)
            p.at(x, y) = static_cast<uint8_t>(rng.below(256));
    return p;
}

TEST(RefPlane, InteriorMatchesSource)
{
    const Plane src = randomPlane(40, 24, 1);
    const RefPlane ref(src);
    for (int y = 0; y < 24; ++y)
        for (int x = 0; x < 40; ++x)
            ASSERT_EQ(*ref.ptr(x, y), src.at(x, y));
}

TEST(RefPlane, EdgeExtension)
{
    const Plane src = randomPlane(40, 24, 2);
    const RefPlane ref(src);
    // Left/right replication.
    for (int y = 0; y < 24; ++y) {
        EXPECT_EQ(*ref.ptr(-kRefPad, y), src.at(0, y));
        EXPECT_EQ(*ref.ptr(40 + kRefPad - 1, y), src.at(39, y));
    }
    // Top/bottom replication.
    for (int x = 0; x < 40; ++x) {
        EXPECT_EQ(*ref.ptr(x, -kRefPad), src.at(x, 0));
        EXPECT_EQ(*ref.ptr(x, 24 + kRefPad - 1), src.at(x, 23));
    }
    // Corners replicate the corner pixel.
    EXPECT_EQ(*ref.ptr(-kRefPad, -kRefPad), src.at(0, 0));
    EXPECT_EQ(*ref.ptr(40 + kRefPad - 1, 24 + kRefPad - 1),
              src.at(39, 23));
}

TEST(MotionCompensate, IntegerVectorCopies)
{
    const Plane src = randomPlane(64, 48, 3);
    const RefPlane ref(src);
    uint8_t out[16 * 16];
    motionCompensate(ref, 16, 16, MotionVector{-8, 4}, 16, 16, out);
    for (int r = 0; r < 16; ++r)
        for (int c = 0; c < 16; ++c)
            ASSERT_EQ(out[r * 16 + c], src.at(16 + c - 4, 16 + r + 2));
}

TEST(MotionCompensate, HalfPelHorizontalAverages)
{
    const Plane src = randomPlane(64, 48, 4);
    const RefPlane ref(src);
    uint8_t out[8 * 8];
    motionCompensate(ref, 16, 16, MotionVector{1, 0}, 8, 8, out);
    for (int r = 0; r < 8; ++r) {
        for (int c = 0; c < 8; ++c) {
            const int expect =
                (src.at(16 + c, 16 + r) + src.at(17 + c, 16 + r) + 1) >> 1;
            ASSERT_EQ(out[r * 8 + c], expect);
        }
    }
}

TEST(MotionCompensate, HalfPelVerticalAverages)
{
    const Plane src = randomPlane(64, 48, 5);
    const RefPlane ref(src);
    uint8_t out[8 * 8];
    motionCompensate(ref, 8, 8, MotionVector{0, 1}, 8, 8, out);
    for (int r = 0; r < 8; ++r) {
        for (int c = 0; c < 8; ++c) {
            const int expect =
                (src.at(8 + c, 8 + r) + src.at(8 + c, 9 + r) + 1) >> 1;
            ASSERT_EQ(out[r * 8 + c], expect);
        }
    }
}

TEST(MotionCompensate, HalfPelDiagonalAveragesFour)
{
    const Plane src = randomPlane(64, 48, 6);
    const RefPlane ref(src);
    uint8_t out[4 * 4];
    motionCompensate(ref, 4, 4, MotionVector{3, 5}, 4, 4, out);
    for (int r = 0; r < 4; ++r) {
        for (int c = 0; c < 4; ++c) {
            const int x = 4 + c + 1;
            const int y = 4 + r + 2;
            const int expect = (src.at(x, y) + src.at(x + 1, y) +
                                src.at(x, y + 1) + src.at(x + 1, y + 1) +
                                2) >> 2;
            ASSERT_EQ(out[r * 4 + c], expect);
        }
    }
}

TEST(MotionCompensate, NegativeHalfPelUsesFloorConvention)
{
    // mv = -1 (half-pel): integer part is -1, fraction 1, so samples
    // at x-1 and x are averaged. Both encoder and decoder rely on
    // arithmetic-shift flooring here.
    const Plane src = randomPlane(32, 32, 7);
    const RefPlane ref(src);
    uint8_t out[4 * 4];
    motionCompensate(ref, 8, 8, MotionVector{-1, 0}, 4, 4, out);
    for (int c = 0; c < 4; ++c) {
        const int expect =
            (src.at(7 + c, 8) + src.at(8 + c, 8) + 1) >> 1;
        ASSERT_EQ(out[c], expect);
    }
}

TEST(MotionCompensate, OutOfFrameReadsUseReplicatedEdge)
{
    const Plane src = randomPlane(32, 32, 8);
    const RefPlane ref(src);
    uint8_t out[8 * 8];
    // Block at origin, vector pointing 10 px off the top-left corner.
    motionCompensate(ref, 0, 0, MotionVector{-20, -20}, 8, 8, out);
    ASSERT_EQ(out[0], src.at(0, 0));
}

/** Kernel ISA levels this host and build can run. */
std::vector<kernels::Isa>
availableIsas()
{
    std::vector<kernels::Isa> out;
    for (const kernels::Isa isa :
         {kernels::Isa::Scalar, kernels::Isa::Sse2, kernels::Isa::Avx2})
        if (kernels::opsFor(isa) != nullptr)
            out.push_back(isa);
    return out;
}

/**
 * Full-pel block positions from lo to hi: both ends and the two
 * positions next to each, and every 7th position in between.
 */
std::vector<int>
spanPositions(int lo, int hi)
{
    std::vector<int> out;
    for (int p = lo; p <= hi; ++p)
        if (p - lo < 3 || hi - p < 3 || (p - lo) % 7 == 0)
            out.push_back(p);
    return out;
}

TEST(HalfPelPlanes, BlocksMatchMotionCompensate)
{
    // Unaligned sizes, so plane rows end inside a vector at every ISA.
    // Block positions span motionCompensate's whole contract, one
    // sample wider on each side than the search clamp (kRefPad - 2),
    // because VBC reads its skip prediction there too.
    const int sizes[][2] = {{64, 48}, {176, 112}, {200, 120}};
    uint64_t seed = 40;
    for (const kernels::Isa isa : availableIsas()) {
        kernels::ScopedKernelIsa pin(isa);
        for (const auto &size : sizes) {
            const int w = size[0];
            const int h = size[1];
            const Plane src = randomPlane(w, h, ++seed);
            RefPlane ref(src);
            ASSERT_FALSE(ref.hasHalfPel());
            ref.buildHalfPel();
            ASSERT_TRUE(ref.hasHalfPel());
            video::Rng rng(seed);
            for (const int bs : {4, 8, 16, 32}) {
                // The block sits anywhere in the frame; the MV moves it
                // to each tested position.
                const int bx = static_cast<int>(rng.below(w - bs + 1));
                const int by = static_cast<int>(rng.below(h - bs + 1));
                const std::vector<int> xs =
                    spanPositions(-kRefPad + 1, w + kRefPad - bs - 1);
                const std::vector<int> ys =
                    spanPositions(-kRefPad + 1, h + kRefPad - bs - 1);
                for (int phase = 0; phase < 4; ++phase) {
                    for (const int iy : ys) {
                        for (const int ix : xs) {
                            const MotionVector mv{
                                static_cast<int16_t>(2 * (ix - bx) +
                                                     (phase & 1)),
                                static_cast<int16_t>(2 * (iy - by) +
                                                     (phase >> 1))};
                            uint8_t want[32 * 32];
                            motionCompensate(ref, bx, by, mv, bs, bs, want);
                            uint8_t scratch[32 * 32];
                            const BlockRef got = compensatedBlock(
                                ref, bx, by, mv, bs, bs, scratch);
                            // Read from the plane, not interpolated.
                            bool same = got.data != scratch;
                            for (int r = 0; same && r < bs; ++r)
                                same = std::memcmp(got.data + r * got.stride,
                                                   want + r * bs, bs) == 0;
                            ASSERT_TRUE(same)
                                << kernels::isaName(isa) << " " << w << "x"
                                << h << " bs=" << bs << " phase=" << phase
                                << " at (" << ix << "," << iy << ")";
                        }
                    }
                }
            }
        }
    }
}

TEST(HalfPelPlanes, WithoutPlanesHalfPelBlocksAreInterpolated)
{
    const Plane src = randomPlane(64, 48, 9);
    const RefPlane ref(src);
    uint8_t scratch[8 * 8];
    uint8_t want[8 * 8];
    const MotionVector mv{3, -5};
    const BlockRef got = compensatedBlock(ref, 8, 16, mv, 8, 8, scratch);
    motionCompensate(ref, 8, 16, mv, 8, 8, want);
    EXPECT_EQ(got.data, scratch);
    EXPECT_EQ(got.stride, 8);
    EXPECT_EQ(std::memcmp(scratch, want, sizeof(want)), 0);
    // Full-pel blocks are read in place.
    const BlockRef full =
        compensatedBlock(ref, 8, 16, MotionVector{4, -6}, 8, 8, scratch);
    EXPECT_EQ(full.data, ref.ptr(10, 13));
    EXPECT_EQ(full.stride, ref.stride());
}

TEST(PushReference, ReusedBuffersHoldTheNewPicture)
{
    // Each push past max_refs rebuilds the dropped picture's buffers in
    // place: the result must equal a freshly built reference, with its
    // half-pel planes stale until rebuilt.
    std::deque<RefFrame> refs;
    for (int frame = 0; frame < 5; ++frame) {
        video::Frame recon(40, 24);
        recon.y() = randomPlane(40, 24, 100 + frame);
        recon.u() = randomPlane(20, 12, 200 + frame);
        recon.v() = randomPlane(20, 12, 300 + frame);
        pushReference(refs, recon, 2);
        ASSERT_LE(refs.size(), 2u);
        EXPECT_FALSE(refs.front().y.hasHalfPel());
        const RefPlane fresh_y(recon.y());
        const RefPlane fresh_v(recon.v());
        for (int y = -kRefPad; y < 24 + kRefPad; ++y)
            for (int x = -kRefPad; x < 40 + kRefPad; ++x)
                ASSERT_EQ(*refs.front().y.ptr(x, y), *fresh_y.ptr(x, y));
        for (int y = -kRefPad; y < 12 + kRefPad; ++y)
            for (int x = -kRefPad; x < 20 + kRefPad; ++x)
                ASSERT_EQ(*refs.front().v.ptr(x, y), *fresh_v.ptr(x, y));
        buildHalfPelPlanes(refs);
        for (const RefFrame &ref : refs)
            EXPECT_TRUE(ref.y.hasHalfPel());
    }
}

} // namespace
} // namespace vbench::codec
