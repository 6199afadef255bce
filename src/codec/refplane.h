#pragma once

/**
 * @file
 * Edge-padded reference plane for motion compensation and search.
 *
 * Both the encoder and decoder build RefPlanes from reconstructed
 * frames; all motion arithmetic reads through them, so the two sides
 * are bit-identical by construction and the hot loops need no bounds
 * checks.
 */

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>
#include <vector>

#include "kernels/kernel_ops.h"
#include "video/frame.h"
#include "video/plane.h"

namespace vbench::codec {

/** Pad width in samples; bounds the legal motion range. */
inline constexpr int kRefPad = 48;

class RefPlane
{
  public:
    RefPlane() = default;

    /** Build by copying and edge-extending a reconstructed plane. */
    explicit
    RefPlane(const video::Plane &src)
        : width_(src.width()), height_(src.height()),
          stride_(src.width() + 2 * kRefPad),
          buf_((src.width() + 2 * kRefPad) *
               (src.height() + 2 * kRefPad))
    {
        uint8_t *origin = buf_.data() + kRefPad * stride_ + kRefPad;
        // Interior.
        kernels::ops().copy2d(src.data(), width_, origin, stride_,
                              width_, height_);
        // Horizontal extension.
        for (int y = 0; y < height_; ++y) {
            const uint8_t *in = src.row(y);
            uint8_t *out = origin + y * stride_;
            std::memset(out - kRefPad, in[0], kRefPad);
            std::memset(out + width_, in[width_ - 1], kRefPad);
        }
        // Vertical extension (rows already horizontally extended).
        const uint8_t *top = origin - kRefPad;
        const uint8_t *bottom = origin + (height_ - 1) * stride_ - kRefPad;
        for (int y = 1; y <= kRefPad; ++y) {
            std::memcpy(buf_.data() + (kRefPad - y) * stride_, top,
                        static_cast<size_t>(stride_));
            std::memcpy(buf_.data() + (kRefPad + height_ - 1 + y) * stride_,
                        bottom, static_cast<size_t>(stride_));
        }
    }

    int width() const { return width_; }
    int height() const { return height_; }
    int stride() const { return stride_; }
    bool empty() const { return buf_.empty(); }

    /**
     * Pointer to sample (x, y); coordinates may range over
     * [-kRefPad, width + kRefPad) and likewise vertically.
     */
    const uint8_t *
    ptr(int x, int y) const
    {
        return buf_.data() + (y + kRefPad) * stride_ + (x + kRefPad);
    }

  private:
    int width_ = 0;
    int height_ = 0;
    int stride_ = 0;
    std::vector<uint8_t> buf_;
};

/** One reference picture: padded planes for Y, U, V. */
struct RefFrame {
    RefPlane y;
    RefPlane u;
    RefPlane v;

    bool empty() const { return y.empty(); }
};

/**
 * Make `recon` the newest reference picture, keeping at most
 * max(1, max_refs). Encoders and decoders run this same update, so
 * both sides always hold the same reference list.
 */
inline void
pushReference(std::deque<RefFrame> &refs, const video::Frame &recon,
              int max_refs)
{
    refs.push_front(RefFrame{RefPlane(recon.y()), RefPlane(recon.u()),
                             RefPlane(recon.v())});
    while (static_cast<int>(refs.size()) > std::max(1, max_refs))
        refs.pop_back();
}

} // namespace vbench::codec
