#pragma once

/**
 * @file
 * VBC encoder: the software transcoder core (libx264 analogue).
 */

#include <optional>

#include "codec/frame_pipeline.h"
#include "codec/preset.h"
#include "video/video.h"

namespace vbench::codec {

/** VBC encoder configuration: the shared pipeline settings plus tools. */
struct EncoderConfig : PipelineConfig {
    int effort = 5;          ///< 0..9 preset dial (paper §2.2)
    int entropy_override = -1;  ///< -1 auto, else EntropyMode value
    int deblock_override = -1;  ///< -1 auto, else 0/1
    /// Explicit tool set, bypassing the effort dial (used by the
    /// fixed-function hardware encoder models, whose tools are frozen
    /// in silicon rather than selected by a preset).
    std::optional<ToolPreset> tools_override;
    /// Trace track frames are committed to (the hardware models run
    /// this encoder with frozen tools and relabel their timeline).
    obs::Track track = obs::Track::VbcEncode;
};

/**
 * The encoder. One instance encodes one clip (stateless between
 * encode() calls apart from configuration).
 */
class Encoder
{
  public:
    explicit Encoder(const EncoderConfig &config);

    /**
     * Encode a clip. Two-pass rate control runs both passes
     * internally (wall-clock cost is visible to the caller, exactly
     * as the paper's speed metric requires).
     */
    EncodeResult encode(const video::Video &source);

    /** The tool preset the configured effort resolves to. */
    const ToolPreset &tools() const { return tools_; }

  private:
    EncoderConfig config_;
    ToolPreset tools_;
};

/**
 * Run the two-pass analysis pass (the same fast constant-QP encode
 * Encoder::encode runs internally) and return its per-frame stats; see
 * FramePipeline::passOneStats.
 */
PassOneStats collectPassOneStats(const EncoderConfig &config,
                                 const video::Video &source);

} // namespace vbench::codec
