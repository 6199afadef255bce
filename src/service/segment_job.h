#pragma once

/**
 * @file
 * The service's wire-level job boundary: one segment transcode as a
 * versioned, byte-serializable message pair. A SegmentJob carries
 * everything a worker needs — the segment's universal-format bytes,
 * the encode parameters, and the rate-control carry from the previous
 * segment of a chained rung — and a SegmentResult carries everything
 * the dispatcher needs back: the encoded stream, the controller state
 * for the next segment, and the critical-path breakdown. Nothing else
 * crosses the boundary, which is the point: a worker holding only the
 * serialized SegmentJob (a remote machine, a fleet::Worker, the local
 * scheduler) produces a byte-identical stream.
 *
 * Wire format: little-endian, fixed field order, a 4-byte magic and a
 * 2-byte version up front. Strings and byte blobs are u32
 * length-prefixed. deserialize() rejects bad magic, unknown versions,
 * truncated fields, and trailing bytes with a descriptive error —
 * never a partial message.
 *
 * Host-local members of core::TranscodeRequest (tracer/metrics/probe/
 * cancel pointers, pass_one) are NOT serialized: they are execution-
 * environment attachments, not job description. Span ids ARE carried,
 * so a remote worker's slices join the request's distributed trace.
 */

#include <cstdint>
#include <optional>
#include <string>

#include "cache/cache.h"
#include "codec/types.h"
#include "core/scenario.h"
#include "core/transcoder.h"
#include "obs/exemplar.h"
#include "sched/scheduler.h"
#include "video/video.h"

namespace vbench::service {

/** Wire magic "VBSJ" / "VBSR" (little-endian u32) and version. */
inline constexpr uint32_t kSegmentJobMagic = 0x4A53'4256u;
inline constexpr uint32_t kSegmentResultMagic = 0x5253'4256u;
inline constexpr uint16_t kSegmentWireVersion = 2;

/**
 * One segment transcode, self-contained. The dispatcher builds one
 * per (request, rung, segment) and converts it into a scheduler job;
 * serialize() turns it into the message a remote worker would receive.
 */
struct SegmentJob {
    uint64_t request_id = 0;
    std::string rung;          ///< ladder rung name
    int32_t segment_index = 0; ///< position in the rung's chain
    core::Scenario scenario = core::Scenario::Upload;
    /// The segment's universal-format input stream.
    codec::ByteBuffer input;
    /// Encode parameters. Only the wire subset survives serialization
    /// (see file comment); params.rc_in is the RcSnapshot carry.
    core::TranscodeRequest params;

    /** Scheduler/trace label: "svc.<id>.<rung>.s<k>". */
    std::string label() const;

    /**
     * Canonical transcode identity for the output cache
     * (docs/CACHE.md): a digest over exactly the fields that determine
     * the encoded bytes — the input stream, the segment index, the
     * encode-parameter wire subset, and the rc_in carry. Identity
     * fields that do NOT affect the output are excluded on purpose, so
     * identical content hits across requests: request_id, rung display
     * name, scenario, span ids, and frame_threads (streams are
     * byte-identical at every wavefront width — tests/codec/
     * test_frame_threads.cc). slice_count IS part of the key: entropy
     * slices change the emitted bytes (reset contexts, length
     * prefixes), so each slice configuration is a distinct transcode
     * identity. Host-local pass_one stats cannot be canonicalized;
     * callers must not cache jobs that carry them.
     */
    cache::CacheKey cacheKey() const;

    codec::ByteBuffer serialize() const;

    /**
     * Parse a serialized SegmentJob. Returns nullopt and sets `error`
     * on malformed input (bad magic, version, truncation, trailing
     * bytes).
     */
    static std::optional<SegmentJob>
    deserialize(const codec::ByteBuffer &bytes, std::string *error);
};

/** What one executed SegmentJob produced, wire-serializable. */
struct SegmentResult {
    uint64_t request_id = 0;
    std::string rung;
    int32_t segment_index = 0;
    bool ok = false;
    std::string error;         ///< transcode error when !ok
    codec::ByteBuffer stream;  ///< the encoded segment
    /// Controller state after this segment — the next SegmentJob of a
    /// chained rung carries it as params.rc_in.
    codec::RcSnapshot rc_state;
    obs::CriticalPath critical_path;
    core::Measurement m;       ///< speed / bitrate / PSNR
    double seconds = 0;        ///< on-worker transcode wall clock
    int32_t frame_threads = 1; ///< effective wavefront width
    int32_t slice_count = 1;   ///< effective entropy slice count

    codec::ByteBuffer serialize() const;

    static std::optional<SegmentResult>
    deserialize(const codec::ByteBuffer &bytes, std::string *error);
};

/**
 * Execute a SegmentJob on this host. `original` supplies the pristine
 * quality reference when the caller has it (the local dispatcher
 * keeps the corpus in memory); a remote worker passes null and the
 * input the encode decoded stands in, so the segment is decoded once —
 * the encoded bytes are identical either way, only the reported PSNR
 * baseline differs. The request is validated before anything is
 * decoded; an input that does not decode fails with
 * "undecodable segment input".
 */
SegmentResult executeSegmentJob(const SegmentJob &job,
                                const video::Video *original = nullptr);

/**
 * Convert a SegmentJob into the scheduler's in-memory job form. The
 * dispatcher's path to the local pool: SegmentJob -> TranscodeJob ->
 * sched::Scheduler::submit. `original` is the host-local quality
 * reference (not part of the wire message).
 */
sched::TranscodeJob
toTranscodeJob(SegmentJob job,
               std::shared_ptr<const video::Video> original);

} // namespace vbench::service
