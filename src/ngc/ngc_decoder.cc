#include "ngc/ngc_decoder.h"

#include <algorithm>
#include <memory>

#include "codec/deblock.h"
#include "codec/interp.h"
#include "ngc/ngc_bitstream.h"
#include "ngc/ngc_intra.h"
#include "ngc/ngc_residual.h"

namespace vbench::ngc {

namespace {

using codec::FrameType;
using codec::MotionVector;
using codec::SyntaxReader;
using uarch::KernelId;
using video::Video;

namespace ctx = codec::ctx;

/** NGC CU-tree parsing for the shared frame decoder. */
class NgcFrameDecoder final : public codec::FrameDecoder
{
  public:
    NgcFrameDecoder(const NgcStreamHeader &header, uarch::UarchProbe *probe)
        : FrameDecoder(header, kSbSize, probe)
    {
    }

  private:
    void
    beginFrame() override
    {
        cells_ = CellGrid(padded_w_ / 8, padded_h_ / 8);
    }

    std::unique_ptr<SyntaxReader>
    makeReader(const uint8_t *seg, size_t size) const override
    {
        return std::make_unique<codec::ArithSyntaxReader>(
            seg, size, nctx::kNumContexts);
    }

    void
    deblock() override
    {
        codec::deblockFrame(recon_, deblockGrid(cells_, qp_), probe_);
    }

    bool
    decodeCell(SyntaxReader &reader, FrameType type, int row, int col,
               int slice_top) override
    {
        return decodeTree(reader, col * kSbSize, row * kSbSize, kSbSize, 0,
                          type, slice_top * kSbSize);
    }

    bool
    decodeTree(SyntaxReader &reader, int x, int y, int size, int depth,
               FrameType type, int slice_top_px)
    {
        bool split = false;
        if (size > kMinCu)
            split = reader.bit(nctx::kSplit + std::min(depth, 1)) != 0;
        if (split) {
            const int half = size / 2;
            for (int q = 0; q < 4; ++q) {
                if (!decodeTree(reader, x + (q & 1) * half,
                                y + (q >> 1) * half, half, depth + 1,
                                type, slice_top_px)) {
                    return false;
                }
            }
            return true;
        }
        return decodeLeaf(reader, x, y, size, type, slice_top_px);
    }

    bool
    decodeLeaf(SyntaxReader &reader, int x, int y, int size,
               FrameType type, int slice_top_px)
    {
        if (probe_)
            probe_->record(KernelId::Dispatch, size * size / 256 + 1);

        const MotionVector pred_mv =
            cellMvPredictor(cells_, x / 8, y / 8, slice_top_px / 8);
        const int csize = size / 2;
        const int cx = x / 2;
        const int cy = y / 2;

        uint8_t pred_y[kSbSize * kSbSize];
        uint8_t pred_u[16 * 16];
        uint8_t pred_v[16 * 16];

        bool skip = false;
        bool inter = false;
        MotionVector mv{};
        int ref = 0;
        NgcIntraMode intra_mode = NgcIntraMode::Dc;

        if (type == FrameType::P)
            skip = reader.bit(nctx::kSkip) != 0;

        if (skip) {
            mv = codec::clampMvForBlock(pred_mv, x, y, size, size,
                                        padded_w_, padded_h_);
            inter = true;
        } else if (type == FrameType::P &&
                   reader.bit(nctx::kIsInter) != 0) {
            inter = true;
            if (header_.num_refs > 1) {
                const uint32_t r = reader.ue(ctx::kRefIdx, 2);
                if (r >= refs_.size())
                    return false;
                ref = static_cast<int>(r);
            }
            mv.x = static_cast<int16_t>(pred_mv.x +
                                        reader.se(ctx::kMvX, 4));
            mv.y = static_cast<int16_t>(pred_mv.y +
                                        reader.se(ctx::kMvY, 4));
            if (!codec::mvInsideReference(mv, x, y, size, size, padded_w_,
                                          padded_h_))
                return false;
        } else {
            const uint32_t m = reader.ue(nctx::kIntraMode, 3);
            if (m >= kNgcIntraModes)
                return false;
            intra_mode = static_cast<NgcIntraMode>(m);
            if (!ngcIntraAvailable(intra_mode, x, y, slice_top_px))
                return false;
        }

        // Predictions.
        if (inter) {
            codec::predictInter(refs_[ref].y, x, y, size, 1, &mv, 0, pred_y);
            codec::predictInter(refs_[ref].u, cx, cy, csize, 1, &mv, 1,
                                pred_u);
            codec::predictInter(refs_[ref].v, cx, cy, csize, 1, &mv, 1,
                                pred_v);
        } else {
            ngcIntraPredictCu(intra_mode, recon_, x, y, size, slice_top_px,
                              pred_y, pred_u, pred_v);
        }

        int nonzero = 0;
        int16_t levels[kMaxCuLevels];
        if (!skip) {
            nonzero = readCuLevels(reader, size, levels);
            if (nonzero < 0)
                return false;
        }
        const int inv_blocks =
            reconstructCu(recon_, x, y, size, qp_, pred_y, pred_u, pred_v,
                          skip ? nullptr : levels);
        if (probe_ && inv_blocks > 0) {
            probe_->record(KernelId::Dequant, inv_blocks * 4);
            probe_->record(KernelId::TransformInv, inv_blocks * 4);
            probe_->record(KernelId::Reconstruct,
                           static_cast<uint64_t>(size) * size / 16,
                           static_cast<uint64_t>(inv_blocks), 6);
        }

        cells_.fill(x, y, size,
                    CellInfo{skip ? CuMode::Skip
                                  : (inter ? CuMode::Inter : CuMode::Intra),
                             inter ? mv : MotionVector{},
                             static_cast<int8_t>(ref), nonzero != 0});
        parse_hash_ = parse_hash_ * 0x9E3779B97F4A7C15ull +
            static_cast<uint64_t>(nonzero);
        return true;
    }

    CellGrid cells_;
};

} // namespace

std::optional<Video>
ngcDecode(const uint8_t *data, size_t size, const codec::DecoderConfig &config)
{
    return codec::decodeStreams(
        data, size, kNgcMagic,
        [&config](const uint8_t *header_data, size_t header_size,
                  size_t &consumed) -> std::unique_ptr<codec::FrameDecoder> {
            const std::optional<NgcStreamHeader> header =
                parseNgcHeader(header_data, header_size, consumed);
            if (!header)
                return nullptr;
            return std::make_unique<NgcFrameDecoder>(*header, config.probe);
        },
        config.tracer);
}

} // namespace vbench::ngc
