/**
 * @file
 * NGC intra predictor tests (including the angular modes).
 */

#include <gtest/gtest.h>

#include <vector>

#include "ngc/ngc_intra.h"
#include "video/rng.h"

namespace vbench::ngc {
namespace {

using video::Plane;

Plane
gradientPlane(int w, int h)
{
    Plane p(w, h);
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x)
            p.at(x, y) = static_cast<uint8_t>((x * 2 + y * 3) & 0xFF);
    return p;
}

/**
 * The predictors as per-pixel loops, each neighbour read through the
 * plane's accessors: the definition the edge-array implementation must
 * reproduce sample for sample.
 */
void
perPixelPredict(NgcIntraMode mode, const Plane &recon, int x, int y, int n,
                uint8_t *out, int slice_top)
{
    const bool has_top = y > slice_top;
    const bool has_left = x > 0;
    switch (mode) {
      case NgcIntraMode::Dc: {
        int sum = 0;
        int count = 0;
        if (has_top) {
            for (int i = 0; i < n; ++i)
                sum += recon.at(x + i, y - 1);
            count += n;
        }
        if (has_left) {
            for (int i = 0; i < n; ++i)
                sum += recon.at(x - 1, y + i);
            count += n;
        }
        const uint8_t dc = count > 0
            ? static_cast<uint8_t>((sum + count / 2) / count)
            : 128;
        for (int i = 0; i < n * n; ++i)
            out[i] = dc;
        break;
      }
      case NgcIntraMode::Vertical:
        for (int r = 0; r < n; ++r)
            for (int c = 0; c < n; ++c)
                out[r * n + c] = recon.at(x + c, y - 1);
        break;
      case NgcIntraMode::Horizontal:
        for (int r = 0; r < n; ++r)
            for (int c = 0; c < n; ++c)
                out[r * n + c] = recon.at(x - 1, y + r);
        break;
      case NgcIntraMode::TrueMotion: {
        const int corner = recon.at(x - 1, y - 1);
        for (int r = 0; r < n; ++r) {
            const int base = recon.at(x - 1, y + r) - corner;
            for (int c = 0; c < n; ++c) {
                const int v = base + recon.at(x + c, y - 1);
                out[r * n + c] =
                    static_cast<uint8_t>(v < 0 ? 0 : (v > 255 ? 255 : v));
            }
        }
        break;
      }
      case NgcIntraMode::DiagDownLeft:
        for (int r = 0; r < n; ++r) {
            for (int c = 0; c < n; ++c) {
                const int i = c + r;
                const int a = recon.atClamped(x + i, y - 1);
                const int b = recon.atClamped(x + i + 1, y - 1);
                const int d = recon.atClamped(x + i + 2, y - 1);
                out[r * n + c] =
                    static_cast<uint8_t>((a + 2 * b + d + 2) >> 2);
            }
        }
        break;
      case NgcIntraMode::DiagDownRight:
        for (int r = 0; r < n; ++r) {
            for (int c = 0; c < n; ++c) {
                const int d = c - r;
                int a, b, e;
                if (d > 0) {
                    a = recon.atClamped(x + d - 2, y - 1);
                    b = recon.atClamped(x + d - 1, y - 1);
                    e = recon.atClamped(x + d, y - 1);
                } else if (d < 0) {
                    a = recon.atClamped(x - 1, y - d - 2);
                    b = recon.atClamped(x - 1, y - d - 1);
                    e = recon.atClamped(x - 1, y - d);
                } else {
                    a = recon.atClamped(x, y - 1);
                    b = recon.atClamped(x - 1, y - 1);
                    e = recon.atClamped(x - 1, y);
                }
                out[r * n + c] =
                    static_cast<uint8_t>((a + 2 * b + e + 2) >> 2);
            }
        }
        break;
    }
}

TEST(NgcIntra, EdgeArraysMatchPerPixelDefinition)
{
    // Random recon planes, blocks of every size at the left, top and
    // right frame edges (where the diagonal modes clamp their edge), at
    // slice tops (no top neighbour below the frame top) and inside.
    constexpr int kW = 80;
    constexpr int kH = 64;
    for (const uint64_t seed : {5u, 6u, 7u}) {
        video::Rng rng(seed);
        Plane recon(kW, kH);
        for (int y = 0; y < kH; ++y)
            for (int x = 0; x < kW; ++x)
                recon.at(x, y) = static_cast<uint8_t>(rng.below(256));
        for (const int n : {4, 8, 16, 32}) {
            const int xs[] = {0, 1, 24, kW - n - 3, kW - n};
            const int ys[] = {0, 1, 16, kH - n};
            for (const int y : ys) {
                for (const int slice_top : {0, y, y / 2}) {
                    for (const int x : xs) {
                        for (int m = 0; m < kNgcIntraModes; ++m) {
                            const auto mode = static_cast<NgcIntraMode>(m);
                            if (!ngcIntraAvailable(mode, x, y, slice_top))
                                continue;
                            std::vector<uint8_t> want(n * n);
                            std::vector<uint8_t> got(n * n, 0xA5);
                            perPixelPredict(mode, recon, x, y, n,
                                            want.data(), slice_top);
                            ngcIntraPredict(mode, recon, x, y, n,
                                            got.data(), slice_top);
                            ASSERT_EQ(want, got)
                                << "mode " << m << " n " << n << " at ("
                                << x << "," << y << ") slice_top "
                                << slice_top << " seed " << seed;
                        }
                    }
                }
            }
        }
    }
}

TEST(NgcIntra, AvailabilityRules)
{
    EXPECT_TRUE(ngcIntraAvailable(NgcIntraMode::Dc, 0, 0));
    EXPECT_FALSE(ngcIntraAvailable(NgcIntraMode::DiagDownLeft, 8, 0));
    EXPECT_TRUE(ngcIntraAvailable(NgcIntraMode::DiagDownLeft, 0, 8));
    EXPECT_FALSE(ngcIntraAvailable(NgcIntraMode::DiagDownRight, 0, 8));
    EXPECT_TRUE(ngcIntraAvailable(NgcIntraMode::DiagDownRight, 8, 8));
    EXPECT_FALSE(ngcIntraAvailable(NgcIntraMode::TrueMotion, 8, 0));
}

TEST(NgcIntra, VerticalWorksAtAllSizes)
{
    const Plane p = gradientPlane(96, 96);
    for (int n : {8, 16, 32}) {
        std::vector<uint8_t> pred(n * n);
        ngcIntraPredict(NgcIntraMode::Vertical, p, 32, 32, n,
                        pred.data());
        for (int r = 0; r < n; ++r)
            for (int c = 0; c < n; ++c)
                ASSERT_EQ(pred[r * n + c], p.at(32 + c, 31))
                    << "size " << n;
    }
}

TEST(NgcIntra, DiagDownLeftFollowsDiagonal)
{
    // With a top row that ramps linearly, DDL prediction at (r, c)
    // equals the smoothed sample at column c + r + 1.
    Plane p(64, 64, 0);
    for (int x = 0; x < 64; ++x)
        p.at(x, 15) = static_cast<uint8_t>(2 * x);
    std::vector<uint8_t> pred(8 * 8);
    ngcIntraPredict(NgcIntraMode::DiagDownLeft, p, 16, 16, 8, pred.data());
    for (int r = 0; r < 7; ++r)
        for (int c = 0; c < 7; ++c)
            ASSERT_EQ(pred[r * 8 + c],
                      static_cast<uint8_t>(2 * (16 + c + r + 1)));
}

TEST(NgcIntra, DiagDownRightPropagatesCorner)
{
    // Distinct corner, top, and left values: the main diagonal of the
    // prediction takes its value from the corner neighborhood.
    Plane p(64, 64, 0);
    for (int x = 0; x < 64; ++x)
        p.at(x, 15) = 200;
    for (int y = 0; y < 64; ++y)
        p.at(15, y) = 100;
    p.at(15, 15) = 150;
    std::vector<uint8_t> pred(8 * 8);
    ngcIntraPredict(NgcIntraMode::DiagDownRight, p, 16, 16, 8,
                    pred.data());
    // d == 0 smooths (top(16,15)=200, corner=150, left(15,16)=100).
    EXPECT_EQ(pred[0], (200 + 2 * 150 + 100 + 2) >> 2);
    // Deeper along the diagonal the same value propagates.
    EXPECT_EQ(pred[9 * 1], pred[0]);   // (1,1)
    EXPECT_EQ(pred[9 * 5], pred[0]);   // (5,5)
}

TEST(NgcIntra, TrueMotionReproducesLinearRamp)
{
    Plane p(64, 64);
    for (int y = 0; y < 64; ++y)
        for (int x = 0; x < 64; ++x)
            p.at(x, y) = static_cast<uint8_t>(5 + 2 * x + 3 * y);
    std::vector<uint8_t> pred(16 * 16);
    ngcIntraPredict(NgcIntraMode::TrueMotion, p, 16, 16, 16, pred.data());
    for (int r = 0; r < 16; ++r)
        for (int c = 0; c < 16; ++c)
            ASSERT_EQ(pred[r * 16 + c], p.at(16 + c, 16 + r));
}

TEST(NgcIntra, DcNoNeighborsIsMidGray)
{
    Plane p(32, 32, 9);
    std::vector<uint8_t> pred(8 * 8);
    ngcIntraPredict(NgcIntraMode::Dc, p, 0, 0, 8, pred.data());
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(pred[i], 128);
}

} // namespace
} // namespace vbench::ngc
