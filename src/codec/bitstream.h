#pragma once

/**
 * @file
 * VBC container format: a byte-oriented stream header followed by
 * length-prefixed frame records.
 *
 * Layout:
 *   magic "VBC1" (4 bytes)
 *   header bits (BitWriter, byte-aligned at the end):
 *     version ue, width ue, height ue, fps_num ue, fps_den ue,
 *     frame_count ue, entropy bit, deblock bit, aq bit, num_refs ue
 *     [version >= 2] slice_count ue
 *   per frame:
 *     payload length u32 little-endian (includes the 1-byte header)
 *     frame byte: bit 0 = type (0 I / 1 P), bits 2..7 = base QP
 *     slice_count == 1: entropy payload (VLC bits or range-coded blob)
 *     slice_count  > 1: slice_count records of
 *       slice length u32 little-endian + slice entropy payload
 *
 * Single-slice streams are written as version 1 — byte-identical to
 * the pre-slice format — so slices are purely opt-in on the wire; a
 * version-2 header only appears when there is a slice_count to carry.
 */

#include <cstdint>
#include <cstring>
#include <optional>

#include "codec/bitio.h"
#include "codec/types.h"

namespace vbench::codec {

/** Sequence-level parameters every container header carries. */
struct HeaderFields {
    int width = 0;
    int height = 0;
    uint32_t fps_num = 30;
    uint32_t fps_den = 1;
    uint32_t frame_count = 0;
    bool deblock = true;
    uint32_t num_refs = 1;
    /// Entropy slice bands per frame; 1 = the legacy single-segment
    /// payload (written as a version-1 header, byte-identical to the
    /// pre-slice format).
    uint32_t slice_count = 1;

    double fps() const { return static_cast<double>(fps_num) / fps_den; }

    /** Same fields apart from the frame count (stitchable segments). */
    bool
    sameShape(const HeaderFields &o) const
    {
        return width == o.width && height == o.height &&
            fps_num == o.fps_num && fps_den == o.fps_den &&
            deblock == o.deblock && num_refs == o.num_refs &&
            slice_count == o.slice_count;
    }
};

/** VBC sequence parameters: the shared fields plus its coding tools. */
struct StreamHeader : HeaderFields {
    EntropyMode entropy = EntropyMode::Vlc;
    bool adaptive_quant = false;
};

inline constexpr char kMagic[4] = {'V', 'B', 'C', '1'};
inline constexpr uint32_t kVersion = 1;
/// Header version carrying a slice_count field (> 1 slices only).
inline constexpr uint32_t kVersionSlices = 2;
/// Upper bound on slice bands per frame; the encoder additionally
/// clamps to the frame's MB/SB row count. A typo'd VBENCH_SLICES must
/// not produce thousands of two-byte slices.
inline constexpr uint32_t kMaxSlices = 64;

/**
 * Write a container header: `magic`, then the fields every codec's
 * header shares, with `flags(BitWriter &)` writing the codec's own
 * flag bits after frame_count. Shared by the VBC and NGC containers.
 */
template <class Header, class Flags>
void
writeHeaderFields(ByteBuffer &out, const char *magic, const Header &header,
                  Flags flags)
{
    out.insert(out.end(), magic, magic + 4);
    BitWriter bits(out);
    bits.putUe(header.slice_count > 1 ? kVersionSlices : kVersion);
    bits.putUe(static_cast<uint32_t>(header.width));
    bits.putUe(static_cast<uint32_t>(header.height));
    bits.putUe(header.fps_num);
    bits.putUe(header.fps_den);
    bits.putUe(header.frame_count);
    flags(bits);
    bits.putUe(header.num_refs);
    if (header.slice_count > 1)
        bits.putUe(header.slice_count);
    bits.align();
}

/**
 * Parse a header written by writeHeaderFields; `flags(BitReader &,
 * Header &)` reads the codec's flag bits.
 * @param[out] consumed bytes consumed from `data`.
 * @return header, or nullopt if malformed.
 */
template <class Header, class Flags>
std::optional<Header>
parseHeaderFields(const uint8_t *data, size_t size, size_t &consumed,
                  const char *magic, Flags flags)
{
    if (size < 8 || std::memcmp(data, magic, 4) != 0)
        return std::nullopt;
    BitReader bits(data + 4, size - 4);
    Header header;
    const uint32_t version = bits.getUe();
    if (version != kVersion && version != kVersionSlices)
        return std::nullopt;
    header.width = static_cast<int>(bits.getUe());
    header.height = static_cast<int>(bits.getUe());
    header.fps_num = bits.getUe();
    header.fps_den = bits.getUe();
    header.frame_count = bits.getUe();
    flags(bits, header);
    header.num_refs = bits.getUe();
    if (version >= kVersionSlices)
        header.slice_count = bits.getUe();
    if (bits.overflowed() || header.width <= 0 || header.height <= 0 ||
        header.fps_num == 0 || header.fps_den == 0 ||
        header.num_refs == 0 || header.num_refs > 8 ||
        header.slice_count == 0 || header.slice_count > kMaxSlices ||
        (version >= kVersionSlices && header.slice_count < 2)) {
        return std::nullopt;
    }
    consumed = 4 + (bits.bitPos() + 7) / 8;
    return header;
}

/** Serialize the stream header onto a buffer. */
inline void
writeStreamHeader(ByteBuffer &out, const StreamHeader &header)
{
    writeHeaderFields(out, kMagic, header, [&header](BitWriter &bits) {
        bits.putBit(header.entropy == EntropyMode::Arith);
        bits.putBit(header.deblock);
        bits.putBit(header.adaptive_quant);
    });
}

/**
 * Parse the stream header.
 * @param[out] consumed bytes consumed from `data`.
 * @return header, or nullopt if malformed.
 */
inline std::optional<StreamHeader>
parseStreamHeader(const uint8_t *data, size_t size, size_t &consumed)
{
    return parseHeaderFields<StreamHeader>(
        data, size, consumed, kMagic,
        [](BitReader &bits, StreamHeader &header) {
            header.entropy =
                bits.getBit() ? EntropyMode::Arith : EntropyMode::Vlc;
            header.deblock = bits.getBit();
            header.adaptive_quant = bits.getBit();
        });
}

/**
 * First MB/SB row of slice band `s` when `rows` rows split into
 * `slices` horizontal bands of whole rows. Integer band math handles
 * row counts the slice count does not divide; encoder and decoder
 * derive the same bands from the same (rows, slices) pair. Band s
 * covers [sliceRowStart(rows, slices, s), sliceRowStart(rows, slices,
 * s + 1)).
 */
inline int
sliceRowStart(int rows, int slices, int s)
{
    return static_cast<int>(
        (static_cast<int64_t>(rows) * s) / slices);
}

/** Append a little-endian u32 (frame payload length). */
inline void
appendU32(ByteBuffer &out, uint32_t v)
{
    out.push_back(static_cast<uint8_t>(v & 0xFF));
    out.push_back(static_cast<uint8_t>((v >> 8) & 0xFF));
    out.push_back(static_cast<uint8_t>((v >> 16) & 0xFF));
    out.push_back(static_cast<uint8_t>((v >> 24) & 0xFF));
}

inline uint32_t
readU32(const uint8_t *data)
{
    return static_cast<uint32_t>(data[0]) |
        (static_cast<uint32_t>(data[1]) << 8) |
        (static_cast<uint32_t>(data[2]) << 16) |
        (static_cast<uint32_t>(data[3]) << 24);
}

/** Pack / unpack the 1-byte frame header. */
inline uint8_t
packFrameByte(FrameType type, int qp)
{
    return static_cast<uint8_t>((type == FrameType::P ? 1 : 0) |
                                ((qp & 0x3F) << 2));
}

inline FrameType
frameTypeFromByte(uint8_t b)
{
    return (b & 1) ? FrameType::P : FrameType::I;
}

inline int
frameQpFromByte(uint8_t b)
{
    return (b >> 2) & 0x3F;
}

} // namespace vbench::codec
