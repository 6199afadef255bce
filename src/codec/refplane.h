#pragma once

/**
 * @file
 * Edge-padded reference plane for motion compensation and search.
 *
 * Both the encoder and decoder build RefPlanes from reconstructed
 * frames; all motion arithmetic reads through them, so the two sides
 * are bit-identical by construction and the hot loops need no bounds
 * checks. Encoders that search sub-pel positions also give each luma
 * reference its three half-pel planes, so that a search reads every
 * half-pel candidate instead of interpolating it.
 */

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
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
    {
        assign(src);
    }

    /**
     * Copy and edge-extend `src` into this plane, reusing its buffers
     * when the size matches. Half-pel planes go stale (hasHalfPel()
     * turns false) but keep their storage for the next buildHalfPel().
     */
    void
    assign(const video::Plane &src)
    {
        width_ = src.width();
        height_ = src.height();
        stride_ = width_ + 2 * kRefPad;
        buf_.resize(static_cast<size_t>(stride_) * (height_ + 2 * kRefPad));
        half_pel_built_ = false;
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

    /**
     * Interpolate the plane's three half-pel phases with the active
     * kernels' interpH, interpV and interpHV over the whole padded
     * plane: sample (x, y) of the H plane averages (x, y) and
     * (x + 1, y), of the V plane (x, y) and (x, y + 1), of the HV plane
     * all four. The filters are pointwise, so a block read from a phase
     * plane equals motionCompensate's block at every position its
     * contract allows (docs/PERF.md). The H and HV planes' last column
     * and the V and HV planes' last row would need samples past the
     * pad; they stay unwritten, and that contract never reaches them.
     * Allocates only when the plane has no storage of this size yet.
     */
    void
    buildHalfPel()
    {
        if (half_pel_size_ != buf_.size()) {
            for (std::unique_ptr<uint8_t[]> &plane : half_pel_)
                plane = std::make_unique_for_overwrite<uint8_t[]>(
                    buf_.size());
            half_pel_size_ = buf_.size();
        }
        const int rows = height_ + 2 * kRefPad;
        const kernels::KernelOps &k = kernels::ops();
        k.interpH(buf_.data(), stride_, half_pel_[0].get(), stride_,
                  stride_ - 1, rows);
        k.interpV(buf_.data(), stride_, half_pel_[1].get(), stride_, stride_,
                  rows - 1);
        k.interpHV(buf_.data(), stride_, half_pel_[2].get(), stride_,
                   stride_ - 1, rows - 1);
        half_pel_built_ = true;
    }

    int width() const { return width_; }
    int height() const { return height_; }
    int stride() const { return stride_; }
    bool empty() const { return buf_.empty(); }
    /** Whether buildHalfPel() ran since the plane was last assigned. */
    bool hasHalfPel() const { return half_pel_built_; }

    /**
     * Pointer to sample (x, y); coordinates may range over
     * [-kRefPad, width + kRefPad) and likewise vertically.
     */
    const uint8_t *
    ptr(int x, int y) const
    {
        return buf_.data() + offset(x, y);
    }

    /**
     * Pointer to sample (x, y) of one half-pel phase, rows stride()
     * apart: phase 0 is the plane itself, 1 the H plane, 2 the V plane
     * and 3 the HV plane, i.e. (mv.x & 1) + 2 (mv.y & 1) of a half-pel
     * MV. Phases 1-3 need hasHalfPel().
     */
    const uint8_t *
    phasePtr(int phase, int x, int y) const
    {
        return phase == 0 ? ptr(x, y)
                          : half_pel_[phase - 1].get() + offset(x, y);
    }

  private:
    size_t
    offset(int x, int y) const
    {
        return static_cast<size_t>(y + kRefPad) * stride_ + (x + kRefPad);
    }

    int width_ = 0;
    int height_ = 0;
    int stride_ = 0;
    std::vector<uint8_t> buf_;
    /// The H, V and HV planes, each laid out like buf_.
    std::unique_ptr<uint8_t[]> half_pel_[3];
    size_t half_pel_size_ = 0;  ///< samples allocated per phase plane
    bool half_pel_built_ = false;
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
 * both sides always hold the same reference list. The picture that
 * drops out lends its buffers, half-pel planes included, to the new
 * one instead of new ones being allocated and zero-filled.
 */
inline void
pushReference(std::deque<RefFrame> &refs, const video::Frame &recon,
              int max_refs)
{
    RefFrame frame;
    while (static_cast<int>(refs.size()) >= std::max(1, max_refs)) {
        frame = std::move(refs.back());
        refs.pop_back();
    }
    frame.y.assign(recon.y());
    frame.u.assign(recon.u());
    frame.v.assign(recon.v());
    refs.push_front(std::move(frame));
}

/**
 * Build the half-pel planes of every luma reference that lacks them.
 * Encoders whose search visits half-pel candidates run this as each P
 * frame starts: the newest reference is built then, once, and the last
 * frame of a stream never is.
 */
inline void
buildHalfPelPlanes(std::deque<RefFrame> &refs)
{
    for (RefFrame &ref : refs)
        if (!ref.y.hasHalfPel())
            ref.y.buildHalfPel();
}

} // namespace vbench::codec
