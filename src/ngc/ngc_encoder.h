#pragma once

/**
 * @file
 * NGC encoder: the next-generation software encoder (libx265 /
 * libvpx-vp9 analogue). Same public shape as codec::Encoder so the
 * benchmark harness can drive either interchangeably.
 */

#include "codec/frame_pipeline.h"
#include "ngc/ngc_types.h"
#include "video/video.h"

namespace vbench::ngc {

/** NGC encoder configuration: the shared pipeline settings plus tools. */
struct NgcConfig : codec::PipelineConfig {
    NgcProfile profile = NgcProfile::HevcLike;
    /// 0 = slowest / best (Popular-grade), 1 = balanced, 2 = fast.
    int speed = 1;
};

/**
 * Encode a clip with NGC. Reuses codec::EncodeResult so downstream
 * metrics code is codec-agnostic.
 */
class NgcEncoder
{
  public:
    explicit NgcEncoder(const NgcConfig &config);

    codec::EncodeResult encode(const video::Video &source);

  private:
    NgcConfig config_;
};

/**
 * Run the NGC two-pass analysis pass and return its per-frame stats;
 * see codec::FramePipeline::passOneStats.
 */
codec::PassOneStats collectNgcPassOneStats(const NgcConfig &config,
                                           const video::Video &source);

} // namespace vbench::ngc
