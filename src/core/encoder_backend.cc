#include "core/encoder_backend.h"

#include <sstream>

#include "codec/decoder.h"
#include "hwenc/hwenc.h"
#include "ngc/ngc_decoder.h"
#include "ngc/ngc_encoder.h"

namespace vbench::core {

namespace {

/** Modeled fixed-function decode throughput, Mpixels/second. */
constexpr double kHwDecodeMpixS = 1600.0;

const char *
rcName(codec::RcMode mode)
{
    switch (mode) {
      case codec::RcMode::Cqp: return "cqp";
      case codec::RcMode::Crf: return "crf";
      case codec::RcMode::Abr: return "abr";
      case codec::RcMode::TwoPass: return "twopass";
    }
    return "unknown";
}

/** The settings both software encoders take straight from a request. */
void
copyPipelineConfig(const TranscodeRequest &request, obs::Tracer *tracer,
                   codec::PipelineConfig &config)
{
    config.rc = request.rc;
    config.gop = request.gop;
    config.probe = request.probe;
    config.tracer = tracer;
    config.frame_threads = request.frame_threads;
    config.slice_count = request.slice_count;
    config.cancel = request.cancel;
    config.segment_frames = request.segment_frames;
    config.rc_in = request.rc_in;
    config.pass_one = request.pass_one;
}

/** The reference software encoder at an effort level. */
class VbcBackend final : public EncoderBackend
{
  public:
    VbcBackend(const TranscodeRequest &request, obs::Tracer *tracer)
        : EncoderBackend(EncoderKind::Vbc)
    {
        copyPipelineConfig(request, tracer, config_);
        config_.effort = request.effort;
        config_.entropy_override = request.entropy_override;
        config_.deblock_override = request.deblock_override;
        config_.tools_override = request.tools_override;
    }

    BackendEncodeResult
    encode(const video::Video &input) override
    {
        codec::Encoder encoder(config_);
        return {encoder.encode(input), std::nullopt};
    }

    std::optional<video::Video>
    decodeOutput(const codec::ByteBuffer &stream) const override
    {
        return codec::decode(stream);
    }

    std::string
    describe() const override
    {
        std::ostringstream ss;
        ss << "vbc(effort=" << config_.effort
           << ", rc=" << rcName(config_.rc.mode) << ")";
        return ss.str();
    }

  private:
    codec::EncoderConfig config_;
};

/** The next-generation software encoder, either profile. */
class NgcBackend final : public EncoderBackend
{
  public:
    NgcBackend(const TranscodeRequest &request, obs::Tracer *tracer)
        : EncoderBackend(request.kind)
    {
        copyPipelineConfig(request, tracer, config_);
        config_.profile = request.kind == EncoderKind::NgcHevc
            ? ngc::NgcProfile::HevcLike
            : ngc::NgcProfile::Vp9Like;
        config_.speed = request.ngc_speed;
    }

    BackendEncodeResult
    encode(const video::Video &input) override
    {
        ngc::NgcEncoder encoder(config_);
        return {encoder.encode(input), std::nullopt};
    }

    std::optional<video::Video>
    decodeOutput(const codec::ByteBuffer &stream) const override
    {
        return ngc::ngcDecode(stream);
    }

    std::string
    describe() const override
    {
        std::ostringstream ss;
        ss << toString(kind()) << "(speed=" << config_.speed
           << ", rc=" << rcName(config_.rc.mode) << ")";
        return ss.str();
    }

  private:
    ngc::NgcConfig config_;
};

/** A fixed-function hardware pipeline model. */
class HwBackend final : public EncoderBackend
{
  public:
    HwBackend(const TranscodeRequest &request, obs::Tracer *tracer)
        : EncoderBackend(request.kind),
          spec_(request.kind == EncoderKind::NvencLike
                    ? hwenc::nvencLikeSpec()
                    : hwenc::qsvLikeSpec()),
          rc_(request.rc), tracer_(tracer)
    {
    }

    BackendEncodeResult
    encode(const video::Video &input) override
    {
        hwenc::HwEncodeResult hw =
            hwenc::hwEncode(spec_, input, rc_, tracer_);
        // Hardware time is the pipeline model's, not the simulation's
        // wall clock: modeled decode plus modeled encode.
        const double seconds = hw.seconds +
            static_cast<double>(input.totalPixels()) /
                (kHwDecodeMpixS * 1e6);
        return {std::move(hw.encoded), seconds};
    }

    std::optional<video::Video>
    decodeOutput(const codec::ByteBuffer &stream) const override
    {
        return codec::decode(stream);
    }

    std::string
    describe() const override
    {
        std::ostringstream ss;
        ss << toString(kind()) << "(rc=" << rcName(rc_.mode) << ")";
        return ss.str();
    }

  private:
    hwenc::HwEncoderSpec spec_;
    codec::RateControlConfig rc_;
    obs::Tracer *tracer_;
};

} // namespace

std::unique_ptr<EncoderBackend>
EncoderBackend::create(const TranscodeRequest &request,
                       obs::Tracer *tracer)
{
    switch (request.kind) {
      case EncoderKind::Vbc:
        return std::make_unique<VbcBackend>(request, tracer);
      case EncoderKind::NgcHevc:
      case EncoderKind::NgcVp9:
        return std::make_unique<NgcBackend>(request, tracer);
      case EncoderKind::NvencLike:
      case EncoderKind::QsvLike:
        return std::make_unique<HwBackend>(request, tracer);
    }
    return nullptr;
}

} // namespace vbench::core
