#pragma once

/**
 * @file
 * NGC decoder.
 */

#include <optional>

#include "codec/frame_decoder.h"
#include "codec/types.h"
#include "video/video.h"

namespace vbench::ngc {

/**
 * Decode an NGC stream.
 * @return the clip, or nullopt on malformed input.
 */
std::optional<video::Video>
ngcDecode(const uint8_t *data, size_t size,
          const codec::DecoderConfig &config = {});

inline std::optional<video::Video>
ngcDecode(const codec::ByteBuffer &stream,
          const codec::DecoderConfig &config = {})
{
    return ngcDecode(stream.data(), stream.size(), config);
}

} // namespace vbench::ngc
