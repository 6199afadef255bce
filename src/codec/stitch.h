#pragma once

/**
 * @file
 * Split-and-stitch support for the VBC container: concatenate
 * independently encoded closed-GOP segment streams into one stream,
 * and cut a closed-GOP stream back into segment streams. The NGC
 * container shares the framing and reuses the same templates
 * (ngc/ngc_bitstream.h).
 *
 * Because every frame record is self-contained (fresh entropy coder
 * per frame, references cleared at each IDR) the container is the only
 * cross-segment state: stitching rewrites one merged header with the
 * summed frame count and concatenates the frame records verbatim. A
 * stream produced by stitching segments encoded with
 * EncoderConfig::segment_frames + rc_in chaining is byte-identical to
 * the whole-file closed-GOP encode (see docs/SERVICE.md).
 */

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "codec/bitstream.h"
#include "codec/types.h"

namespace vbench::codec {

namespace detail {

/** Byte extent of the first `frames` frame records after the header. */
inline bool
frameRecordExtent(const uint8_t *data, size_t size, size_t offset,
                  uint32_t frames, size_t &end)
{
    for (uint32_t i = 0; i < frames; ++i) {
        if (size - offset < 4)
            return false;
        const uint32_t len = readU32(data + offset);
        if (len == 0 || size - offset - 4 < len)
            return false;
        offset += 4 + len;
    }
    end = offset;
    return true;
}

inline bool
sameCodingTools(const StreamHeader &a, const StreamHeader &b)
{
    return a.sameShape(b) && a.entropy == b.entropy &&
        a.adaptive_quant == b.adaptive_quant;
}

/**
 * stitchStreams for any container that shares VBC's framing: `parse`,
 * `write` and `same` are its header parser, writer and tool check.
 */
template <class Header, class Parse, class Write, class Same>
std::optional<ByteBuffer>
stitchWith(const std::vector<ByteBuffer> &segments, Parse parse,
           Write write, Same same)
{
    if (segments.empty())
        return std::nullopt;
    Header merged;
    uint64_t total_frames = 0;
    std::vector<std::pair<size_t, size_t>> bodies;  // [begin, end) per seg
    for (size_t s = 0; s < segments.size(); ++s) {
        const ByteBuffer &seg = segments[s];
        size_t consumed = 0;
        const std::optional<Header> header =
            parse(seg.data(), seg.size(), consumed);
        if (!header)
            return std::nullopt;
        if (s == 0)
            merged = *header;
        else if (!same(merged, *header))
            return std::nullopt;
        if (header->frame_count > 0) {
            if (seg.size() < consumed + 5 ||
                frameTypeFromByte(seg[consumed + 4]) != FrameType::I)
                return std::nullopt;
        }
        size_t end = 0;
        if (!frameRecordExtent(seg.data(), seg.size(), consumed,
                               header->frame_count, end))
            return std::nullopt;
        total_frames += header->frame_count;
        bodies.emplace_back(consumed, end);
    }
    merged.frame_count = static_cast<uint32_t>(total_frames);
    ByteBuffer out;
    write(out, merged);
    for (size_t s = 0; s < segments.size(); ++s)
        out.insert(out.end(), segments[s].begin() + bodies[s].first,
                   segments[s].begin() + bodies[s].second);
    return out;
}

/** splitStream for any container that shares VBC's framing. */
template <class Header, class Parse, class Write>
std::optional<std::vector<ByteBuffer>>
splitWith(const ByteBuffer &stream, int segment_frames, Parse parse,
          Write write)
{
    if (segment_frames <= 0)
        return std::nullopt;
    size_t offset = 0;
    const std::optional<Header> header =
        parse(stream.data(), stream.size(), offset);
    if (!header)
        return std::nullopt;
    std::vector<ByteBuffer> segments;
    uint32_t done = 0;
    while (done < header->frame_count) {
        const uint32_t take = std::min(
            static_cast<uint32_t>(segment_frames),
            header->frame_count - done);
        if (stream.size() < offset + 5 ||
            frameTypeFromByte(stream[offset + 4]) != FrameType::I)
            return std::nullopt;
        size_t end = 0;
        if (!frameRecordExtent(stream.data(), stream.size(), offset, take,
                               end))
            return std::nullopt;
        Header seg_header = *header;
        seg_header.frame_count = take;
        ByteBuffer seg;
        write(seg, seg_header);
        seg.insert(seg.end(), stream.begin() + offset,
                   stream.begin() + end);
        segments.push_back(std::move(seg));
        offset = end;
        done += take;
    }
    return segments;
}

} // namespace detail

/**
 * Concatenate segment streams into one stream. All segments must share
 * geometry and coding tools, and every segment must open with an IDR
 * (anything else would reference frames across the cut). Returns
 * nullopt on malformed or incompatible input.
 */
inline std::optional<ByteBuffer>
stitchStreams(const std::vector<ByteBuffer> &segments)
{
    return detail::stitchWith<StreamHeader>(segments, parseStreamHeader,
                                            writeStreamHeader,
                                            detail::sameCodingTools);
}

/**
 * Cut a closed-GOP stream into segment streams of `segment_frames`
 * frames each (last segment may be shorter). Each cut point must land
 * on an IDR — the stream has to have been encoded with a matching
 * EncoderConfig::segment_frames (or gop dividing segment_frames).
 * Inverse of stitchStreams; returns nullopt on malformed input or a
 * non-IDR cut point.
 */
inline std::optional<std::vector<ByteBuffer>>
splitStream(const ByteBuffer &stream, int segment_frames)
{
    return detail::splitWith<StreamHeader>(stream, segment_frames,
                                           parseStreamHeader,
                                           writeStreamHeader);
}

} // namespace vbench::codec
