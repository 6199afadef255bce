#include "service/segment_job.h"

#include <bit>
#include <cstring>
#include <memory>
#include <utility>

namespace vbench::service {

namespace {

/** Little-endian field writer over a growing ByteBuffer. */
class Writer
{
  public:
    explicit Writer(codec::ByteBuffer &out) : out_(out) {}

    void u8(uint8_t v) { out_.push_back(v); }

    void u16(uint16_t v)
    {
        for (int i = 0; i < 2; ++i)
            out_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }

    void u32(uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            out_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }

    void u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            out_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }

    void i32(int32_t v) { u32(static_cast<uint32_t>(v)); }

    void f64(double v) { u64(std::bit_cast<uint64_t>(v)); }

    void str(const std::string &s)
    {
        u32(static_cast<uint32_t>(s.size()));
        out_.insert(out_.end(), s.begin(), s.end());
    }

    void bytes(const codec::ByteBuffer &b)
    {
        u32(static_cast<uint32_t>(b.size()));
        out_.insert(out_.end(), b.begin(), b.end());
    }

  private:
    codec::ByteBuffer &out_;
};

/**
 * Bounds-checked little-endian reader. Every getter reports failure
 * through ok(); the first short read poisons the reader so a caller
 * can decode the whole fixed layout and check once.
 */
class Reader
{
  public:
    explicit Reader(const codec::ByteBuffer &in) : in_(in) {}

    bool ok() const { return ok_; }
    bool atEnd() const { return pos_ == in_.size(); }

    /**
     * Name the wire field the next getters decode. On the first short
     * read the reader freezes this name and the field's start offset,
     * so a truncation error can say WHICH field died and WHERE — the
     * rpc supervisor logs that line verbatim when a child's reply is
     * cut off mid-stream.
     */
    void field(const char *name)
    {
        if (ok_) {
            field_ = name;
            field_pos_ = pos_;
        }
    }

    const char *failField() const { return field_; }
    size_t failOffset() const { return field_pos_; }

    uint8_t u8()
    {
        if (!need(1))
            return 0;
        return in_[pos_++];
    }

    uint16_t u16()
    {
        if (!need(2))
            return 0;
        uint16_t v = 0;
        for (int i = 0; i < 2; ++i)
            v = static_cast<uint16_t>(v | (in_[pos_++] << (8 * i)));
        return v;
    }

    uint32_t u32()
    {
        if (!need(4))
            return 0;
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<uint32_t>(in_[pos_++]) << (8 * i);
        return v;
    }

    uint64_t u64()
    {
        if (!need(8))
            return 0;
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<uint64_t>(in_[pos_++]) << (8 * i);
        return v;
    }

    int32_t i32() { return static_cast<int32_t>(u32()); }

    double f64() { return std::bit_cast<double>(u64()); }

    std::string str()
    {
        const uint32_t n = u32();
        if (!need(n))
            return {};
        std::string s(reinterpret_cast<const char *>(&in_[pos_]), n);
        pos_ += n;
        return s;
    }

    codec::ByteBuffer bytes()
    {
        const uint32_t n = u32();
        if (!need(n))
            return {};
        codec::ByteBuffer b(in_.begin() + static_cast<long>(pos_),
                            in_.begin() + static_cast<long>(pos_ + n));
        pos_ += n;
        return b;
    }

  private:
    bool need(size_t n)
    {
        if (!ok_ || in_.size() - pos_ < n) {
            ok_ = false;
            return false;
        }
        return true;
    }

    const codec::ByteBuffer &in_;
    size_t pos_ = 0;
    bool ok_ = true;
    const char *field_ = "header";
    size_t field_pos_ = 0;
};

void
putToolPreset(Writer &w, const codec::ToolPreset &t)
{
    w.u8(static_cast<uint8_t>(t.search));
    w.i32(t.range);
    w.u8(t.subpel ? 1 : 0);
    w.i32(t.subpel_iters);
    w.u8(t.inter8 ? 1 : 0);
    w.i32(t.refs);
    w.i32(t.rdo);
    w.u8(t.adaptive_quant ? 1 : 0);
    w.u8(static_cast<uint8_t>(t.entropy));
    w.u8(t.deblock ? 1 : 0);
    w.i32(t.intra_modes);
    w.f64(t.early_skip_scale);
    w.u8(t.scenecut ? 1 : 0);
    w.u8(t.satd_subpel ? 1 : 0);
}

codec::ToolPreset
getToolPreset(Reader &r)
{
    codec::ToolPreset t;
    t.search = static_cast<codec::SearchKind>(r.u8());
    t.range = r.i32();
    t.subpel = r.u8() != 0;
    t.subpel_iters = r.i32();
    t.inter8 = r.u8() != 0;
    t.refs = r.i32();
    t.rdo = r.i32();
    t.adaptive_quant = r.u8() != 0;
    t.entropy = static_cast<codec::EntropyMode>(r.u8());
    t.deblock = r.u8() != 0;
    t.intra_modes = r.i32();
    t.early_skip_scale = r.f64();
    t.scenecut = r.u8() != 0;
    t.satd_subpel = r.u8() != 0;
    return t;
}

bool
checkHeader(Reader &r, uint32_t magic, const char *what,
            std::string *error)
{
    if (r.u32() != magic) {
        if (error)
            *error = std::string(what) + ": bad magic";
        return false;
    }
    const uint16_t version = r.u16();
    if (!r.ok() || version != kSegmentWireVersion) {
        if (error)
            *error = std::string(what) + ": unsupported wire version " +
                std::to_string(version) + " (want " +
                std::to_string(kSegmentWireVersion) + ")";
        return false;
    }
    return true;
}

bool
checkTail(const Reader &r, const char *what, std::string *error)
{
    if (!r.ok()) {
        if (error)
            *error = std::string(what) + ": truncated message (field " +
                r.failField() + ", at byte " +
                std::to_string(r.failOffset()) + ")";
        return false;
    }
    if (!r.atEnd()) {
        if (error)
            *error = std::string(what) + ": trailing bytes";
        return false;
    }
    return true;
}

} // namespace

std::string
SegmentJob::label() const
{
    return "svc." + std::to_string(request_id) + "." + rung + ".s" +
        std::to_string(segment_index);
}

cache::CacheKey
SegmentJob::cacheKey() const
{
    cache::KeyBuilder kb;
    kb.u32(0x76624B32u);  // "vbK2": key-schema version tag
    kb.i32(segment_index);
    kb.bytes(input);
    kb.u8(static_cast<uint8_t>(params.kind));
    kb.u8(static_cast<uint8_t>(params.rc.mode));
    kb.i32(params.rc.qp);
    kb.f64(params.rc.crf);
    kb.f64(params.rc.bitrate_bps);
    kb.f64(params.rc.fps);
    kb.f64(params.rc.pixels_per_frame);
    kb.i32(params.rc.min_qp);
    kb.i32(params.rc.ip_qp_offset);
    kb.i32(params.effort);
    kb.i32(params.ngc_speed);
    kb.i32(params.gop);
    kb.i32(params.entropy_override);
    kb.i32(params.deblock_override);
    kb.boolean(params.tools_override.has_value());
    if (params.tools_override) {
        const codec::ToolPreset &t = *params.tools_override;
        kb.u8(static_cast<uint8_t>(t.search));
        kb.i32(t.range);
        kb.boolean(t.subpel);
        kb.i32(t.subpel_iters);
        kb.boolean(t.inter8);
        kb.i32(t.refs);
        kb.i32(t.rdo);
        kb.boolean(t.adaptive_quant);
        kb.u8(static_cast<uint8_t>(t.entropy));
        kb.boolean(t.deblock);
        kb.i32(t.intra_modes);
        kb.f64(t.early_skip_scale);
        kb.boolean(t.scenecut);
        kb.boolean(t.satd_subpel);
    }
    kb.i32(params.slice_count);
    kb.i32(params.segment_frames);
    kb.boolean(params.rc_in.has_value());
    if (params.rc_in) {
        kb.f64(params.rc_in->spent_bits);
        kb.f64(params.rc_in->planned_bits);
        kb.i32(params.rc_in->frames_done);
    }
    return kb.finish();
}

codec::ByteBuffer
SegmentJob::serialize() const
{
    codec::ByteBuffer out;
    out.reserve(input.size() + 256);
    Writer w(out);
    w.u32(kSegmentJobMagic);
    w.u16(kSegmentWireVersion);
    w.u64(request_id);
    w.str(rung);
    w.i32(segment_index);
    w.u8(static_cast<uint8_t>(scenario));
    w.bytes(input);

    w.u8(static_cast<uint8_t>(params.kind));
    w.u8(static_cast<uint8_t>(params.rc.mode));
    w.i32(params.rc.qp);
    w.f64(params.rc.crf);
    w.f64(params.rc.bitrate_bps);
    w.f64(params.rc.fps);
    w.f64(params.rc.pixels_per_frame);
    w.i32(params.rc.min_qp);
    w.i32(params.rc.ip_qp_offset);
    w.i32(params.effort);
    w.i32(params.ngc_speed);
    w.i32(params.gop);
    w.i32(params.entropy_override);
    w.i32(params.deblock_override);
    w.u8(params.tools_override.has_value() ? 1 : 0);
    if (params.tools_override)
        putToolPreset(w, *params.tools_override);
    w.i32(params.frame_threads);
    w.i32(params.slice_count);
    w.i32(params.segment_frames);
    w.u8(params.rc_in.has_value() ? 1 : 0);
    if (params.rc_in) {
        w.f64(params.rc_in->spent_bits);
        w.f64(params.rc_in->planned_bits);
        w.i32(params.rc_in->frames_done);
    }
    w.u64(params.span.trace_id);
    w.u64(params.span.span_id);
    w.u64(params.span.parent_id);
    return out;
}

std::optional<SegmentJob>
SegmentJob::deserialize(const codec::ByteBuffer &bytes,
                        std::string *error)
{
    Reader r(bytes);
    if (!checkHeader(r, kSegmentJobMagic, "SegmentJob", error))
        return std::nullopt;
    SegmentJob job;
    r.field("request_id");
    job.request_id = r.u64();
    r.field("rung");
    job.rung = r.str();
    r.field("segment_index");
    job.segment_index = r.i32();
    r.field("scenario");
    const uint8_t scenario = r.u8();
    if (r.ok() && scenario >= core::kNumScenarios) {
        if (error)
            *error = "SegmentJob: unknown scenario " +
                std::to_string(scenario);
        return std::nullopt;
    }
    job.scenario = static_cast<core::Scenario>(scenario);
    r.field("input");
    job.input = r.bytes();

    r.field("encoder_kind");
    const uint8_t kind = r.u8();
    if (r.ok() &&
        kind > static_cast<uint8_t>(core::EncoderKind::QsvLike)) {
        if (error)
            *error =
                "SegmentJob: unknown encoder kind " + std::to_string(kind);
        return std::nullopt;
    }
    job.params.kind = static_cast<core::EncoderKind>(kind);
    r.field("rc_mode");
    const uint8_t mode = r.u8();
    if (r.ok() && mode > static_cast<uint8_t>(codec::RcMode::TwoPass)) {
        if (error)
            *error = "SegmentJob: unknown rc mode " + std::to_string(mode);
        return std::nullopt;
    }
    job.params.rc.mode = static_cast<codec::RcMode>(mode);
    r.field("rc_config");
    job.params.rc.qp = r.i32();
    job.params.rc.crf = r.f64();
    job.params.rc.bitrate_bps = r.f64();
    job.params.rc.fps = r.f64();
    job.params.rc.pixels_per_frame = r.f64();
    job.params.rc.min_qp = r.i32();
    job.params.rc.ip_qp_offset = r.i32();
    r.field("encode_params");
    job.params.effort = r.i32();
    job.params.ngc_speed = r.i32();
    job.params.gop = r.i32();
    job.params.entropy_override = r.i32();
    job.params.deblock_override = r.i32();
    r.field("tools_override");
    if (r.u8() != 0)
        job.params.tools_override = getToolPreset(r);
    r.field("frame_threads");
    job.params.frame_threads = r.i32();
    r.field("slice_count");
    job.params.slice_count = r.i32();
    r.field("segment_frames");
    job.params.segment_frames = r.i32();
    r.field("rc_in");
    if (r.u8() != 0) {
        codec::RcSnapshot rc;
        rc.spent_bits = r.f64();
        rc.planned_bits = r.f64();
        rc.frames_done = r.i32();
        job.params.rc_in = rc;
    }
    r.field("span");
    job.params.span.trace_id = r.u64();
    job.params.span.span_id = r.u64();
    job.params.span.parent_id = r.u64();
    if (!checkTail(r, "SegmentJob", error))
        return std::nullopt;
    return job;
}

codec::ByteBuffer
SegmentResult::serialize() const
{
    codec::ByteBuffer out;
    out.reserve(stream.size() + 192);
    Writer w(out);
    w.u32(kSegmentResultMagic);
    w.u16(kSegmentWireVersion);
    w.u64(request_id);
    w.str(rung);
    w.i32(segment_index);
    w.u8(ok ? 1 : 0);
    w.str(error);
    w.bytes(stream);
    w.f64(rc_state.spent_bits);
    w.f64(rc_state.planned_bits);
    w.i32(rc_state.frames_done);
    w.f64(critical_path.queue_wait_ms);
    w.f64(critical_path.rc_chain_ms);
    w.f64(critical_path.encode_ms);
    w.f64(critical_path.stitch_ms);
    w.f64(m.speed_mpix_s);
    w.f64(m.bitrate_bpps);
    w.f64(m.psnr_db);
    w.f64(seconds);
    w.i32(frame_threads);
    w.i32(slice_count);
    return out;
}

std::optional<SegmentResult>
SegmentResult::deserialize(const codec::ByteBuffer &bytes,
                           std::string *error)
{
    Reader r(bytes);
    if (!checkHeader(r, kSegmentResultMagic, "SegmentResult", error))
        return std::nullopt;
    SegmentResult res;
    r.field("request_id");
    res.request_id = r.u64();
    r.field("rung");
    res.rung = r.str();
    r.field("segment_index");
    res.segment_index = r.i32();
    r.field("ok");
    res.ok = r.u8() != 0;
    r.field("error");
    res.error = r.str();
    r.field("stream");
    res.stream = r.bytes();
    r.field("rc_state");
    res.rc_state.spent_bits = r.f64();
    res.rc_state.planned_bits = r.f64();
    res.rc_state.frames_done = r.i32();
    r.field("critical_path");
    res.critical_path.queue_wait_ms = r.f64();
    res.critical_path.rc_chain_ms = r.f64();
    res.critical_path.encode_ms = r.f64();
    res.critical_path.stitch_ms = r.f64();
    r.field("measurement");
    res.m.speed_mpix_s = r.f64();
    res.m.bitrate_bpps = r.f64();
    res.m.psnr_db = r.f64();
    r.field("seconds");
    res.seconds = r.f64();
    r.field("frame_threads");
    res.frame_threads = r.i32();
    r.field("slice_count");
    res.slice_count = r.i32();
    if (!checkTail(r, "SegmentResult", error))
        return std::nullopt;
    return res;
}

SegmentResult
executeSegmentJob(const SegmentJob &job, const video::Video *original)
{
    SegmentResult res;
    res.request_id = job.request_id;
    res.rung = job.rung;
    res.segment_index = job.segment_index;

    // No pristine reference travels on the wire: a remote worker
    // passes null, and transcode() validates the request, decodes the
    // input once, and measures quality against that decode.
    const core::TranscodeOutcome outcome =
        core::transcode(job.input, original, job.params);
    res.ok = outcome.ok;
    res.error = outcome.error == core::kUndecodableInput
        ? "undecodable segment input"
        : outcome.error;
    res.stream = outcome.stream;
    res.rc_state = outcome.rc_state;
    res.critical_path = outcome.critical_path;
    res.m = outcome.m;
    res.seconds = outcome.seconds;
    res.frame_threads = outcome.frame_threads;
    res.slice_count = outcome.slice_count;
    return res;
}

sched::TranscodeJob
toTranscodeJob(SegmentJob job,
               std::shared_ptr<const video::Video> original)
{
    sched::TranscodeJob tj;
    tj.label = job.label();
    tj.input =
        std::make_shared<codec::ByteBuffer>(std::move(job.input));
    tj.original = std::move(original);
    tj.request = job.params;
    return tj;
}

} // namespace vbench::service
