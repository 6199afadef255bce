#include "codec/decoder.h"

#include <memory>

#include "codec/bitstream.h"
#include "codec/deblock.h"
#include "codec/interp.h"
#include "codec/intra.h"
#include "codec/mbinfo.h"
#include "codec/recon.h"
#include "codec/residual.h"

namespace vbench::codec {

namespace {

using uarch::KernelId;
using video::Video;

/** VBC macroblock parsing for the shared frame decoder. */
class VbcFrameDecoder final : public FrameDecoder
{
  public:
    VbcFrameDecoder(const StreamHeader &header, uarch::UarchProbe *probe)
        : FrameDecoder(header, kMbSize, probe), stream_(header)
    {
    }

  private:
    void beginFrame() override { grid_ = MbGrid(cols_, rows_); }

    std::unique_ptr<SyntaxReader>
    makeReader(const uint8_t *seg, size_t size) const override
    {
        if (stream_.entropy == EntropyMode::Arith)
            return std::make_unique<ArithSyntaxReader>(seg, size);
        return std::make_unique<VlcSyntaxReader>(seg, size);
    }

    void deblock() override { deblockFrame(recon_, grid_, probe_); }

    bool
    decodeCell(SyntaxReader &reader, FrameType type, int mby, int mbx,
               int slice_top) override
    {
        const int x = mbx * kMbSize;
        const int y = mby * kMbSize;
        const int cx = mbx * 8;
        const int cy = mby * 8;
        MbInfo &info = grid_.at(mbx, mby);
        const MotionVector pred_mv = mvPredictor(grid_, mbx, mby,
                                                 slice_top);

        if (probe_)
            probe_->record(KernelId::Dispatch, 1);

        uint8_t pred_y[kMbSize * kMbSize];
        uint8_t pred_u[64];
        uint8_t pred_v[64];

        if (type == FrameType::P && reader.bit(ctx::kMbSkip)) {
            // Skip: predictor MV on reference 0, no residual. The MV is
            // clamped exactly as the encoder's skip candidate was
            // (identity for valid streams; bounds-safety for hostile
            // predictor chains).
            const MotionVector skip_mv = clampMvForBlock(
                pred_mv, x, y, kMbSize, kMbSize, padded_w_, padded_h_);
            info.mode = MbMode::Skip;
            info.mv = skip_mv;
            info.ref = 0;
            info.qp = static_cast<uint8_t>(last_qp_);
            info.coded = false;
            predictInter(refs_[0].y, x, y, kMbSize, 1, &skip_mv, 0, pred_y);
            predictInter(refs_[0].u, cx, cy, 8, 1, &skip_mv, 1, pred_u);
            predictInter(refs_[0].v, cx, cy, 8, 1, &skip_mv, 1, pred_v);
            copyPrediction(recon_.y(), x, y, kMbSize, pred_y);
            copyPrediction(recon_.u(), cx, cy, 8, pred_u);
            copyPrediction(recon_.v(), cx, cy, 8, pred_v);
            return true;
        }

        MbMode mode = MbMode::Intra;
        if (type == FrameType::P) {
            if (reader.bit(ctx::kMbMode0)) {
                mode = MbMode::Inter16;
            } else {
                mode = reader.bit(ctx::kMbMode1) ? MbMode::Inter8
                                                 : MbMode::Intra;
            }
        }

        IntraMode luma_mode = IntraMode::Dc;
        IntraMode chroma_mode = IntraMode::Dc;
        MotionVector mv[4];
        int ref = 0;

        if (mode == MbMode::Intra) {
            int m = reader.bit(ctx::kIntraLuma);
            m |= reader.bit(ctx::kIntraLuma + 1) << 1;
            luma_mode = static_cast<IntraMode>(m);
            int cm = reader.bit(ctx::kIntraChroma);
            cm |= reader.bit(ctx::kIntraChroma + 1) << 1;
            chroma_mode = static_cast<IntraMode>(cm);
            if (!intraModeAvailable(luma_mode, x, y,
                                    slice_top * kMbSize) ||
                !intraModeAvailable(chroma_mode, cx, cy,
                                    slice_top * 8)) {
                return false;
            }
        } else {
            if (header_.num_refs > 1) {
                const uint32_t r = reader.ue(ctx::kRefIdx, 2);
                if (r >= refs_.size())
                    return false;
                ref = static_cast<int>(r);
            }
            const int parts = mode == MbMode::Inter8 ? 4 : 1;
            const int bs = mode == MbMode::Inter8 ? 8 : kMbSize;
            for (int part = 0; part < parts; ++part) {
                const int32_t dx = reader.se(ctx::kMvX, 4);
                const int32_t dy = reader.se(ctx::kMvY, 4);
                mv[part].x = static_cast<int16_t>(pred_mv.x + dx);
                mv[part].y = static_cast<int16_t>(pred_mv.y + dy);
                // Every compensated read must stay inside the reference
                // padding, for this partition's actual position and
                // size.
                if (!mvInsideReference(mv[part], x + (part & 1) * 8,
                                       y + (part >> 1) * 8, bs, bs,
                                       padded_w_, padded_h_))
                    return false;
            }
        }

        int qp_mb = qp_;
        if (stream_.adaptive_quant) {
            qp_mb = last_qp_ + reader.se(ctx::kQpDelta, 2);
            if (qp_mb < kMinQp || qp_mb > kMaxQp)
                return false;
            last_qp_ = qp_mb;
        }

        // Predictions.
        if (mode == MbMode::Intra) {
            intraPredict(luma_mode, recon_.y(), x, y, kMbSize, pred_y,
                         slice_top * kMbSize);
            intraPredict(chroma_mode, recon_.u(), cx, cy, 8, pred_u,
                         slice_top * 8);
            intraPredict(chroma_mode, recon_.v(), cx, cy, 8, pred_v,
                         slice_top * 8);
        } else {
            const int parts = mode == MbMode::Inter8 ? 4 : 1;
            predictInter(refs_[ref].y, x, y, kMbSize, parts, mv, 0, pred_y);
            predictInter(refs_[ref].u, cx, cy, 8, parts, mv, 1, pred_u);
            predictInter(refs_[ref].v, cx, cy, 8, parts, mv, 1, pred_v);
        }

        // Residuals: 16 luma blocks, then 4 U and 4 V.
        int16_t levels[24 * 16];
        int nonzero = 0;
        for (int b = 0; b < 24; ++b) {
            const int n = readResidualBlock(reader, levels + b * 16, b < 16);
            if (n < 0)
                return false;
            nonzero += n;
        }

        int coded_blocks = reconstructBlock(recon_.y(), x, y, kMbSize,
                                            pred_y, levels, qp_mb);
        coded_blocks += reconstructBlock(recon_.u(), cx, cy, 8, pred_u,
                                         levels + 16 * 16, qp_mb);
        coded_blocks += reconstructBlock(recon_.v(), cx, cy, 8, pred_v,
                                         levels + 20 * 16, qp_mb);
        if (probe_ && coded_blocks > 0) {
            probe_->record(KernelId::Dequant, coded_blocks);
            probe_->record(KernelId::TransformInv, coded_blocks);
            probe_->record(KernelId::Reconstruct, 24,
                           static_cast<uint64_t>(coded_blocks), 6);
        }

        info.mode = mode;
        info.mv = mv[0];
        info.ref = static_cast<int8_t>(ref);
        info.qp = static_cast<uint8_t>(qp_mb);
        info.coded = nonzero != 0;
        // Fold coefficient statistics into the parse decision hash so
        // the branch model sees real data-dependent outcomes.
        parse_hash_ = parse_hash_ * 0x9E3779B97F4A7C15ull +
            static_cast<uint64_t>(nonzero);
        return true;
    }

    const StreamHeader stream_;  ///< entropy mode and adaptive quant
    MbGrid grid_;
};

} // namespace

std::optional<Video>
decode(const uint8_t *data, size_t size, const DecoderConfig &config)
{
    return decodeStreams(
        data, size, kMagic,
        [&config](const uint8_t *header_data, size_t header_size,
                  size_t &consumed) -> std::unique_ptr<FrameDecoder> {
            const std::optional<StreamHeader> header =
                parseStreamHeader(header_data, header_size, consumed);
            if (!header)
                return nullptr;
            return std::make_unique<VbcFrameDecoder>(*header, config.probe);
        },
        config.tracer);
}

} // namespace vbench::codec
