#pragma once

/**
 * @file
 * VBC decoder. Bit-exact inverse of the encoder's reconstruction path.
 */

#include <optional>

#include "codec/frame_decoder.h"
#include "codec/types.h"
#include "video/video.h"

namespace vbench::codec {

/**
 * Decode a VBC stream.
 *
 * @param data compressed stream bytes.
 * @param size stream length.
 * @param config optional instrumentation.
 * @return the decoded clip, or nullopt on malformed input.
 */
std::optional<video::Video> decode(const uint8_t *data, size_t size,
                                   const DecoderConfig &config = {});

/** Convenience overload. */
inline std::optional<video::Video>
decode(const ByteBuffer &stream, const DecoderConfig &config = {})
{
    return decode(stream.data(), stream.size(), config);
}

} // namespace vbench::codec
