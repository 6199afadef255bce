#pragma once

/**
 * @file
 * NGC container format. Same framing discipline as VBC (magic, header
 * bits, length-prefixed frame records) with an NGC magic and tool set.
 */

#include <cstring>
#include <optional>
#include <vector>

#include "codec/bitio.h"
#include "codec/bitstream.h"
#include "codec/stitch.h"
#include "ngc/ngc_types.h"

namespace vbench::ngc {

/** NGC sequence parameters: the shared fields plus the profile. */
struct NgcStreamHeader : codec::HeaderFields {
    NgcProfile profile = NgcProfile::HevcLike;
};

inline constexpr char kNgcMagic[4] = {'N', 'G', 'C', '1'};

/** Same layout as the VBC header, with the profile bit for its flags. */
inline void
writeNgcHeader(codec::ByteBuffer &out, const NgcStreamHeader &header)
{
    codec::writeHeaderFields(
        out, kNgcMagic, header, [&header](codec::BitWriter &bits) {
            bits.putBit(header.profile == NgcProfile::Vp9Like);
            bits.putBit(header.deblock);
        });
}

inline std::optional<NgcStreamHeader>
parseNgcHeader(const uint8_t *data, size_t size, size_t &consumed)
{
    return codec::parseHeaderFields<NgcStreamHeader>(
        data, size, consumed, kNgcMagic,
        [](codec::BitReader &bits, NgcStreamHeader &header) {
            header.profile =
                bits.getBit() ? NgcProfile::Vp9Like : NgcProfile::HevcLike;
            header.deblock = bits.getBit();
        });
}

/**
 * Concatenate NGC segment streams into one stream; same contract as
 * codec::stitchStreams (shared geometry/tools, every segment opens
 * with an IDR, frame records copied verbatim under a merged header).
 */
inline std::optional<codec::ByteBuffer>
stitchNgcStreams(const std::vector<codec::ByteBuffer> &segments)
{
    return codec::detail::stitchWith<NgcStreamHeader>(
        segments, parseNgcHeader, writeNgcHeader,
        [](const NgcStreamHeader &a, const NgcStreamHeader &b) {
            return a.sameShape(b) && a.profile == b.profile;
        });
}

/**
 * Cut a closed-GOP NGC stream into segment streams of
 * `segment_frames` frames; inverse of stitchNgcStreams, same contract
 * as codec::splitStream.
 */
inline std::optional<std::vector<codec::ByteBuffer>>
splitNgcStream(const codec::ByteBuffer &stream, int segment_frames)
{
    return codec::detail::splitWith<NgcStreamHeader>(
        stream, segment_frames, parseNgcHeader, writeNgcHeader);
}

} // namespace vbench::ngc
