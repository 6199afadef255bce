#include "codec/frame_decoder.h"

#include <algorithm>
#include <cstring>

namespace vbench::codec {

FrameDecoder::FrameDecoder(const HeaderFields &header, int block,
                           uarch::UarchProbe *probe)
    : header_(header), probe_(probe),
      padded_w_((header.width + block - 1) & ~(block - 1)),
      padded_h_((header.height + block - 1) & ~(block - 1)),
      cols_(padded_w_ / block), rows_(padded_h_ / block)
{
}

bool
FrameDecoder::decodeFrame(const uint8_t *payload, size_t size,
                          video::Video &out)
{
    if (size < 1)
        return false;
    const FrameType type = frameTypeFromByte(payload[0]);
    qp_ = frameQpFromByte(payload[0]);
    // The header byte carries 6 QP bits (0..63); values past kMaxQp
    // never come from an encoder and would overrun the QP-indexed
    // deblock threshold tables.
    if (qp_ < kMinQp || qp_ > kMaxQp)
        return false;
    if (type == FrameType::I)
        refs_.clear();
    if (type == FrameType::P && refs_.empty())
        return false;

    const int slices = static_cast<int>(header_.slice_count);
    if (slices < 1 || slices > rows_)
        return false;

    recon_ = video::Frame(padded_w_, padded_h_);
    beginFrame();

    // Each slice is a self-contained segment: fresh entropy contexts,
    // fresh QP-delta chain, prediction bounded by the slice head.
    // slice_count == 1 is the legacy layout — the whole payload after
    // the frame byte is the one segment, with no length prefix.
    size_t offset = 1;
    for (int s = 0; s < slices; ++s) {
        const uint8_t *seg = payload + offset;
        size_t seg_size = size - offset;
        if (slices > 1) {
            if (size - offset < 4)
                return false;
            const uint32_t len = readU32(payload + offset);
            offset += 4;
            if (len == 0 || size - offset < len)
                return false;
            seg = payload + offset;
            seg_size = len;
            offset += len;
        }
        if (!decodeSlice(seg, seg_size, type,
                         sliceRowStart(rows_, slices, s),
                         sliceRowStart(rows_, slices, s + 1)))
            return false;
    }
    if (slices > 1 && offset != size)
        return false;  // trailing garbage after the last slice

    if (header_.deblock)
        deblock();
    pushReference(refs_, recon_, static_cast<int>(header_.num_refs));

    video::Frame cropped(header_.width, header_.height);
    video::padPlaneInto(recon_.y(), cropped.y());
    video::padPlaneInto(recon_.u(), cropped.u());
    video::padPlaneInto(recon_.v(), cropped.v());
    out.append(std::move(cropped));
    return true;
}

bool
FrameDecoder::decodeSlice(const uint8_t *seg, size_t seg_size,
                          FrameType type, int row_begin, int row_end)
{
    const std::unique_ptr<SyntaxReader> reader = makeReader(seg, seg_size);
    last_qp_ = qp_;
    double bits_done = 0;
    for (int row = row_begin; row < row_end; ++row) {
        for (int col = 0; col < cols_; ++col) {
            if (!decodeCell(*reader, type, row, col, row_begin))
                return false;
            if (probe_) {
                const double bits = reader->bitsConsumed();
                probe_->record(
                    uarch::KernelId::DecodeParse,
                    std::max<uint64_t>(
                        1, static_cast<uint64_t>(bits - bits_done)),
                    parse_hash_, 64);
                bits_done = bits;
            }
        }
    }
    return true;
}

std::optional<video::Video>
decodeStreams(const uint8_t *data, size_t size, const char *magic,
              const DecoderFactory &open, obs::Tracer *tracer)
{
    size_t offset = 0;
    std::unique_ptr<FrameDecoder> stream = open(data, size, offset);
    if (!stream)
        return std::nullopt;

    video::Video out(stream->header().width, stream->header().height,
                     stream->header().fps());
    int32_t frame_index = 0;
    while (true) {
        for (uint32_t i = 0; i < stream->header().frame_count; ++i) {
            if (offset + 4 > size)
                return std::nullopt;
            const uint32_t payload_len = readU32(data + offset);
            offset += 4;
            if (payload_len == 0 || offset + payload_len > size)
                return std::nullopt;
            {
                obs::ScopedSpan span(tracer, obs::Track::Decode,
                                     obs::Stage::DecodeFrame, frame_index);
                if (!stream->decodeFrame(data + offset, payload_len, out))
                    return std::nullopt;
            }
            offset += payload_len;
            ++frame_index;
        }
        if (size - offset < 4 || std::memcmp(data + offset, magic, 4) != 0)
            break;
        size_t consumed = 0;
        stream = open(data + offset, size - offset, consumed);
        if (!stream)
            return std::nullopt;
        if (stream->header().width != out.width() ||
            stream->header().height != out.height())
            return std::nullopt;
        offset += consumed;
    }
    return out;
}

} // namespace vbench::codec
