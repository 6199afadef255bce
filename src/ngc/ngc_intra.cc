#include "ngc/ngc_intra.h"

#include <cassert>
#include <cstring>

#include "codec/types.h"

namespace vbench::ngc {

using codec::clampPixel;

bool
ngcIntraAvailable(NgcIntraMode mode, int x, int y, int slice_top)
{
    switch (mode) {
      case NgcIntraMode::Dc:
        return true;
      case NgcIntraMode::Vertical:
      case NgcIntraMode::DiagDownLeft:
        return y > slice_top;
      case NgcIntraMode::Horizontal:
        return x > 0;
      case NgcIntraMode::TrueMotion:
      case NgcIntraMode::DiagDownRight:
        return x > 0 && y > slice_top;
    }
    return false;
}

namespace {

/**
 * out[i] = recon.atClamped(x + i, y) for i < count: one row of edge
 * samples, each coordinate clamped into the plane as atClamped does.
 */
void
clampedRow(const video::Plane &recon, int x, int y, int count, uint8_t *out)
{
    const uint8_t *row =
        recon.row(codec::clampInt(y, 0, recon.height() - 1));
    for (int i = 0; i < count; ++i)
        out[i] = row[codec::clampInt(x + i, 0, recon.width() - 1)];
}

/**
 * The 2N - 1 samples of a 1-2-1 filtered edge of 2N + 1 samples:
 * out[i] = (e[i] + 2 e[i + 1] + e[i + 2] + 2) >> 2.
 */
template <int N>
void
smooth121(const uint8_t (&e)[2 * N + 1], uint8_t (&out)[2 * N - 1])
{
    for (int i = 0; i < 2 * N - 1; ++i)
        out[i] = static_cast<uint8_t>((e[i] + 2 * e[i + 1] + e[i + 2] + 2) >>
                                      2);
}

template <int N>
void
predict(NgcIntraMode mode, const video::Plane &recon, int x, int y,
        bool has_top, bool has_left, uint8_t *out)
{
    // The neighbours' rows; only dereferenced where the mode's
    // availability guarantees them.
    const uint8_t *top = has_top ? recon.row(y - 1) + x : nullptr;
    const auto left = [&](int r) { return recon.row(y + r)[x - 1]; };

    switch (mode) {
      case NgcIntraMode::Dc: {
        int sum = 0;
        int count = 0;
        if (has_top) {
            for (int i = 0; i < N; ++i)
                sum += top[i];
            count += N;
        }
        if (has_left) {
            for (int i = 0; i < N; ++i)
                sum += left(i);
            count += N;
        }
        const uint8_t dc = count > 0
            ? static_cast<uint8_t>((sum + count / 2) / count)
            : 128;
        std::memset(out, dc, N * N);
        break;
      }
      case NgcIntraMode::Vertical:
        for (int r = 0; r < N; ++r)
            std::memcpy(out + r * N, top, N);
        break;
      case NgcIntraMode::Horizontal:
        for (int r = 0; r < N; ++r)
            std::memset(out + r * N, left(r), N);
        break;
      case NgcIntraMode::TrueMotion: {
        const int corner = top[-1];
        for (int r = 0; r < N; ++r) {
            const int base = left(r) - corner;
            for (int c = 0; c < N; ++c)
                out[r * N + c] = clampPixel(base + top[c]);
        }
        break;
      }
      case NgcIntraMode::DiagDownLeft: {
        // 45 degrees from the top row extended right (clamped at the
        // plane edge), smoothed by a 1-2-1 filter: row r is the
        // filtered edge from sample r on.
        uint8_t edge[2 * N + 1];
        uint8_t filtered[2 * N - 1];
        clampedRow(recon, x, y - 1, 2 * N + 1, edge);
        smooth121<N>(edge, filtered);
        for (int r = 0; r < N; ++r)
            std::memcpy(out + r * N, filtered + r, N);
        break;
      }
      case NgcIntraMode::DiagDownRight: {
        // 45 degrees from the top-left corner: one edge runs up the
        // left column (bottom sample first), through the corner and
        // along the top row, and is smoothed by a 1-2-1 filter. Sample
        // (r, c) lies on diagonal c - r, so row r is the filtered edge
        // from sample N - 1 - r on.
        uint8_t edge[2 * N + 1];
        uint8_t filtered[2 * N - 1];
        for (int i = 0; i < N; ++i)
            edge[i] = recon.atClamped(x - 1, y + N - 1 - i);
        clampedRow(recon, x - 1, y - 1, N + 1, edge + N);
        smooth121<N>(edge, filtered);
        for (int r = 0; r < N; ++r)
            std::memcpy(out + r * N, filtered + N - 1 - r, N);
        break;
      }
    }
}

} // namespace

void
ngcIntraPredict(NgcIntraMode mode, const video::Plane &recon, int x, int y,
                int n, uint8_t *out, int slice_top)
{
    const bool has_top = y > slice_top;
    const bool has_left = x > 0;
    switch (n) {
      case 4:
        return predict<4>(mode, recon, x, y, has_top, has_left, out);
      case 8:
        return predict<8>(mode, recon, x, y, has_top, has_left, out);
      case 16:
        return predict<16>(mode, recon, x, y, has_top, has_left, out);
      case 32:
        return predict<32>(mode, recon, x, y, has_top, has_left, out);
    }
    assert(false && "NGC intra blocks are 4, 8, 16 or 32 samples wide");
}

void
ngcIntraPredictCu(NgcIntraMode mode, const video::Frame &recon, int x,
                  int y, int size, int slice_top, uint8_t *pred_y,
                  uint8_t *pred_u, uint8_t *pred_v)
{
    const int cx = x / 2;
    const int cy = y / 2;
    const int ctop = slice_top / 2;
    ngcIntraPredict(mode, recon.y(), x, y, size, pred_y, slice_top);
    const NgcIntraMode cmode = ngcIntraAvailable(mode, cx, cy, ctop)
        ? mode
        : NgcIntraMode::Dc;
    ngcIntraPredict(cmode, recon.u(), cx, cy, size / 2, pred_u, ctop);
    ngcIntraPredict(cmode, recon.v(), cx, cy, size / 2, pred_v, ctop);
}

} // namespace vbench::ngc
