#pragma once

/**
 * @file
 * NGC ("next-generation codec") shared types: the libx265/libvpx-vp9
 * analogue built on 32x32 superblocks with recursive quadtree
 * partitioning, hierarchical 8x8 transforms, six intra predictors, and
 * arithmetic coding only. Architecturally a generation past VBC, and
 * correspondingly slower and better-compressing (paper Fig. 2,
 * Table 5).
 */

#include <cstdint>
#include <vector>

#include "codec/mbinfo.h"
#include "codec/syntax.h"
#include "codec/types.h"

namespace vbench::ngc {

/** Superblock edge in luma samples. */
inline constexpr int kSbSize = 32;
/** Smallest coding unit edge. */
inline constexpr int kMinCu = 8;

/** NGC intra predictors (superset of VBC's). */
enum class NgcIntraMode : uint8_t {
    Dc = 0,
    Vertical = 1,
    Horizontal = 2,
    TrueMotion = 3,   ///< left + top - corner gradient
    DiagDownLeft = 4, ///< 45-degree from the top row
    DiagDownRight = 5,///< 45-degree from top-left corner
};

inline constexpr int kNgcIntraModes = 6;

/** Coding-unit prediction modes. */
enum class CuMode : uint8_t {
    Skip = 0,
    Inter = 1,
    Intra = 2,
};

/**
 * Tool profiles: two parameterizations of the same architecture that
 * trade speed for compression slightly differently, standing in for
 * libx265 -preset veryslow and libvpx-vp9 --cpu-used 0.
 */
enum class NgcProfile : uint8_t {
    HevcLike = 0,
    Vp9Like = 1,
};

const char *toString(NgcProfile profile);

/**
 * Context id layout for the NGC arithmetic coder. NGC shares the
 * residual / MV / ref context ids with codec::ctx (so the shared
 * residual-block syntax helpers work unchanged) and appends its own
 * partition-tree and mode contexts after them.
 */
namespace nctx {

inline constexpr int kSplit = codec::ctx::kNumContexts;  // 2 slots
inline constexpr int kSkip = kSplit + 2;
inline constexpr int kIsInter = kSkip + 1;
inline constexpr int kIntraMode = kIsInter + 1;  // 3 slots (ue)
inline constexpr int kDcCount = kIntraMode + 3;  // 3 slots
inline constexpr int kNumContexts = kDcCount + 3;

} // namespace nctx

/**
 * Per-8x8-cell coding state used for MV prediction and for mapping
 * partition decisions onto the (16x16-granular) deblocking filter.
 */
struct CellInfo {
    CuMode mode = CuMode::Intra;
    codec::MotionVector mv;
    int8_t ref = 0;
    bool coded = false;
};

/** Grid of CellInfo at 8x8 granularity. */
class CellGrid
{
  public:
    CellGrid() = default;

    CellGrid(int cols, int rows)
        : cols_(cols), rows_(rows),
          cells_(static_cast<size_t>(cols) * rows)
    {
    }

    int cols() const { return cols_; }
    int rows() const { return rows_; }

    CellInfo &at(int cx, int cy) { return cells_[cy * cols_ + cx]; }
    const CellInfo &
    at(int cx, int cy) const
    {
        return cells_[cy * cols_ + cx];
    }

    /** Record one CU's decisions in every cell it covers. */
    void
    fill(int x, int y, int size, const CellInfo &info)
    {
        for (int dy = 0; dy < size / 8; ++dy)
            for (int dx = 0; dx < size / 8; ++dx)
                at(x / 8 + dx, y / 8 + dy) = info;
    }

  private:
    int cols_ = 0;
    int rows_ = 0;
    std::vector<CellInfo> cells_;
};

/**
 * MV predictor for a CU whose top-left cell is (cx, cy): median of
 * the left, top, and top-left neighbor cells (inter cells only).
 * Shared by encoder and decoder. `top_row` is the first cell row of
 * the enclosing entropy slice: cells above it count as missing so
 * slices predict independently. 0 (the default) is the frame top.
 */
inline codec::MotionVector
cellMvPredictor(const CellGrid &grid, int cx, int cy, int top_row = 0)
{
    auto neighbor = [&](int nx, int ny) -> codec::MotionVector {
        if (nx < 0 || ny < top_row || nx >= grid.cols() ||
            ny >= grid.rows())
            return codec::MotionVector{};
        const CellInfo &cell = grid.at(nx, ny);
        if (cell.mode == CuMode::Intra)
            return codec::MotionVector{};
        return cell.mv;
    };
    const codec::MotionVector a = neighbor(cx - 1, cy);
    const codec::MotionVector b = neighbor(cx, cy - 1);
    const codec::MotionVector c = neighbor(cx - 1, cy - 1);
    codec::MotionVector pred;
    pred.x = static_cast<int16_t>(codec::median3(a.x, b.x, c.x));
    pred.y = static_cast<int16_t>(codec::median3(a.y, b.y, c.y));
    return pred;
}

/**
 * The 16x16 deblocking grid for 8x8 cell decisions: a macroblock is
 * intra if any of its cells is, coded if any is, and takes its
 * top-left cell's MV and reference. Encoder and decoder filter the
 * same grid.
 */
inline codec::MbGrid
deblockGrid(const CellGrid &cells, int qp)
{
    codec::MbGrid grid(cells.cols() / 2, cells.rows() / 2);
    for (int mby = 0; mby < grid.rows(); ++mby) {
        for (int mbx = 0; mbx < grid.cols(); ++mbx) {
            codec::MbInfo &info = grid.at(mbx, mby);
            bool any_intra = false;
            bool any_coded = false;
            for (int dy = 0; dy < 2; ++dy) {
                for (int dx = 0; dx < 2; ++dx) {
                    const CellInfo &cell =
                        cells.at(mbx * 2 + dx, mby * 2 + dy);
                    any_intra |= cell.mode == CuMode::Intra;
                    any_coded |= cell.coded;
                }
            }
            const CellInfo &cell = cells.at(mbx * 2, mby * 2);
            info.mode = any_intra ? codec::MbMode::Intra
                                  : codec::MbMode::Inter16;
            info.mv = cell.mv;
            info.ref = cell.ref;
            info.qp = static_cast<uint8_t>(qp);
            info.coded = any_coded;
        }
    }
    return grid;
}

} // namespace vbench::ngc
