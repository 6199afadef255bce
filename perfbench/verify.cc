#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>

#include "codec/decoder.h"
#include "metrics/psnr.h"
#include "ngc/ngc_decoder.h"
#include "perfbench.h"

namespace perfbench {

namespace {

struct Delivery {
    std::string key;
    const codec::ByteBuffer *stream = nullptr;
    const video::Video *original = nullptr;
    core::EncoderKind kind = core::EncoderKind::Vbc;
    int segments = 0;
    // Filled by the check.
    bool ok = false;
    std::string error;
    double psnr_db = 0;
    uint64_t pixels = 0;
};

/**
 * Decode one delivered stream with its codec's decoder and hold it to
 * the pristine source: same geometry, every frame present. The quality
 * number is PSNR against the pristine frames, which no executor sees
 * (proc workers score against their decoded input instead).
 */
void
check(Delivery &d)
{
    std::optional<video::Video> decoded =
        d.kind == core::EncoderKind::Vbc ? codec::decode(*d.stream)
                                         : ngc::ngcDecode(*d.stream);
    if (!decoded) {
        d.error = d.key + ": delivered stream does not decode";
        return;
    }
    if (decoded->frameCount() != d.original->frameCount() ||
        decoded->width() != d.original->width() ||
        decoded->height() != d.original->height()) {
        d.error = d.key + ": decoded " +
            std::to_string(decoded->frameCount()) + " frames of " +
            std::to_string(decoded->width()) + "x" +
            std::to_string(decoded->height()) + ", source has " +
            std::to_string(d.original->frameCount()) + " of " +
            std::to_string(d.original->width()) + "x" +
            std::to_string(d.original->height());
        return;
    }
    d.psnr_db = metrics::videoPsnr(*d.original, *decoded);
    // Transcodes of synthetic content at the reference operating
    // points land far above this; below it the stream is garbage.
    constexpr double kMinPsnrDb = 20.0;
    if (!(d.psnr_db >= kMinPsnrDb)) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.2f", d.psnr_db);
        d.error = d.key + ": PSNR " + buf + " dB against the source";
        return;
    }
    d.pixels = d.original->totalPixels();
    d.ok = true;
}

} // namespace

Verified
verifyOutputs(const WorkloadSpec &spec, const Prepared &prep,
              const service::ServiceResult &result, int threads)
{
    Verified v;
    std::vector<Delivery> todo;
    for (const service::ServiceRequest &req : spec.requests) {
        const service::CorpusClip &clip = prep.corpus.clips[req.clip];
        const int segments = std::max(1, clip.segmentCount());
        for (const service::RungSpec &r : req.rungs) {
            v.segments_due += static_cast<uint64_t>(segments);
            const std::string key = std::to_string(req.id) + "." + r.name;
            const auto it = result.outputs.find(key);
            if (it == result.outputs.end()) {
                // Failed segment, shed request or stitch failure: the
                // viewer never gets this rung.
                v.segments_failed += static_cast<uint64_t>(segments);
                continue;
            }
            Delivery d;
            d.key = key;
            d.stream = &it->second;
            d.original = clip.original.get();
            d.kind = r.request.kind;
            d.segments = segments;
            todo.push_back(std::move(d));
        }
    }

    std::atomic<size_t> next{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < std::max(1, threads); ++t)
        pool.emplace_back([&] {
            for (size_t i = next++; i < todo.size(); i = next++)
                check(todo[i]);
        });
    for (std::thread &t : pool)
        t.join();

    double psnr_sum = 0;
    for (const Delivery &d : todo) {
        if (!d.ok) {
            v.correct = false;
            v.errors.push_back(d.error);
            v.segments_failed += static_cast<uint64_t>(d.segments);
            continue;
        }
        ++v.delivered_streams;
        v.delivered_pixels += d.pixels;
        v.delivered_bits += static_cast<uint64_t>(d.stream->size()) * 8;
        psnr_sum += d.psnr_db;
    }
    if (v.delivered_streams > 0)
        v.psnr_db = psnr_sum / static_cast<double>(v.delivered_streams);

    // Digest over every delivered byte, in key order: the same seed
    // must deliver the same bytes on every run and every executor.
    cache::KeyBuilder digest;
    for (const auto &[key, stream] : result.outputs)
        digest.str(key).bytes(stream);
    v.digest = digest.finish().toString();
    return v;
}

} // namespace perfbench
