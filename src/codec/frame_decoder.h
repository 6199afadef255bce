#pragma once

/**
 * @file
 * The decode loop both decoders run: the stream header, length-prefixed
 * frame records, back-to-back concatenated streams, the frame byte,
 * slice framing, and the reference update and crop. A codec supplies a
 * FrameDecoder subclass that parses and reconstructs its cells (VBC
 * macroblocks, NGC superblock trees); everything else is shared, so
 * both formats reject malformed framing by the same checks.
 */

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>

#include "codec/bitstream.h"
#include "codec/refplane.h"
#include "codec/syntax.h"
#include "codec/types.h"
#include "obs/trace.h"
#include "uarch/probe.h"
#include "video/video.h"

namespace vbench::codec {

/** Decoder configuration (both codecs). */
struct DecoderConfig {
    uarch::UarchProbe *probe = nullptr;
    /// Stage tracer; null (the default) costs one branch per frame.
    obs::Tracer *tracer = nullptr;
};

/**
 * Per-stream decoder state. decodeFrame validates one frame record —
 * frame byte, QP bound, P-frame reference, slice count against the
 * row count, u32 slice length prefixes, no trailing bytes — and hands
 * each slice's cells to the subclass in raster order.
 */
class FrameDecoder
{
  public:
    /** `block` is the cell edge in luma pixels. */
    FrameDecoder(const HeaderFields &header, int block,
                 uarch::UarchProbe *probe);
    virtual ~FrameDecoder() = default;
    FrameDecoder(const FrameDecoder &) = delete;
    FrameDecoder &operator=(const FrameDecoder &) = delete;

    const HeaderFields &header() const { return header_; }

    /** Decode one frame payload into `out`; false on malformed input. */
    bool decodeFrame(const uint8_t *payload, size_t size, video::Video &out);

  protected:
    /** Reset per-frame cell state before the first slice. */
    virtual void beginFrame() = 0;

    /** Entropy decoder over one slice segment. */
    virtual std::unique_ptr<SyntaxReader>
    makeReader(const uint8_t *seg, size_t size) const = 0;

    /**
     * Parse and reconstruct cell (row, col) of a slice whose first row
     * is `slice_top`; false on malformed syntax.
     */
    virtual bool decodeCell(SyntaxReader &reader, FrameType type, int row,
                            int col, int slice_top) = 0;

    /** In-loop deblocking of recon_. */
    virtual void deblock() = 0;

    HeaderFields header_;
    uarch::UarchProbe *probe_;
    int padded_w_;
    int padded_h_;
    int cols_;  ///< cells per row
    int rows_;  ///< cell rows

    video::Frame recon_;
    std::deque<RefFrame> refs_;
    int qp_ = 26;       ///< the current frame's QP
    int last_qp_ = 26;  ///< QP-delta chain; restarts at each slice head
    uint64_t parse_hash_ = 0;  ///< probe-only parse decision hash

  private:
    bool decodeSlice(const uint8_t *seg, size_t seg_size, FrameType type,
                     int row_begin, int row_end);
};

/**
 * Parses a stream header at `data` (setting `consumed`) and returns
 * that stream's decoder, or null when the header is malformed.
 */
using DecoderFactory = std::function<std::unique_ptr<FrameDecoder>(
    const uint8_t *data, size_t size, size_t &consumed)>;

/**
 * Decode a stream, then — split-and-stitch concat support — continue
 * into any back-to-back stream that follows (same `magic`, same
 * geometry). Trailing bytes that are not a stream header are ignored.
 */
std::optional<video::Video> decodeStreams(const uint8_t *data, size_t size,
                                          const char *magic,
                                          const DecoderFactory &open,
                                          obs::Tracer *tracer);

} // namespace vbench::codec
