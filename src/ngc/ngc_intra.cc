#include "ngc/ngc_intra.h"

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

void
ngcIntraPredict(NgcIntraMode mode, const video::Plane &recon, int x, int y,
                int n, uint8_t *out, int slice_top)
{
    const bool has_top = y > slice_top;
    const bool has_left = x > 0;

    switch (mode) {
      case NgcIntraMode::Dc: {
        int sum = 0;
        int count = 0;
        if (has_top) {
            for (int i = 0; i < n; ++i)
                sum += recon.at(x + i, y - 1);
            count += n;
        }
        if (has_left) {
            for (int i = 0; i < n; ++i)
                sum += recon.at(x - 1, y + i);
            count += n;
        }
        const uint8_t dc = count > 0
            ? static_cast<uint8_t>((sum + count / 2) / count)
            : 128;
        for (int i = 0; i < n * n; ++i)
            out[i] = dc;
        break;
      }
      case NgcIntraMode::Vertical:
        for (int r = 0; r < n; ++r)
            for (int c = 0; c < n; ++c)
                out[r * n + c] = recon.at(x + c, y - 1);
        break;
      case NgcIntraMode::Horizontal:
        for (int r = 0; r < n; ++r) {
            const uint8_t v = recon.at(x - 1, y + r);
            for (int c = 0; c < n; ++c)
                out[r * n + c] = v;
        }
        break;
      case NgcIntraMode::TrueMotion: {
        const int corner = recon.at(x - 1, y - 1);
        for (int r = 0; r < n; ++r) {
            const int base = recon.at(x - 1, y + r) - corner;
            for (int c = 0; c < n; ++c)
                out[r * n + c] = clampPixel(base + recon.at(x + c, y - 1));
        }
        break;
      }
      case NgcIntraMode::DiagDownLeft:
        // 45 degrees from the top row extended right (clamped at the
        // plane edge), smoothed by a 1-2-1 filter.
        for (int r = 0; r < n; ++r) {
            for (int c = 0; c < n; ++c) {
                const int i = c + r;
                const int a = recon.atClamped(x + i, y - 1);
                const int b = recon.atClamped(x + i + 1, y - 1);
                const int d = recon.atClamped(x + i + 2, y - 1);
                out[r * n + c] =
                    static_cast<uint8_t>((a + 2 * b + d + 2) >> 2);
            }
        }
        break;
      case NgcIntraMode::DiagDownRight:
        // 45 degrees from the top-left corner: sample along the
        // diagonal through left column, corner, and top row.
        for (int r = 0; r < n; ++r) {
            for (int c = 0; c < n; ++c) {
                const int d = c - r;
                int a, b, e;
                if (d > 0) {
                    a = recon.atClamped(x + d - 2, y - 1);
                    b = recon.atClamped(x + d - 1, y - 1);
                    e = recon.atClamped(x + d, y - 1);
                } else if (d < 0) {
                    a = recon.atClamped(x - 1, y - d - 2);
                    b = recon.atClamped(x - 1, y - d - 1);
                    e = recon.atClamped(x - 1, y - d);
                } else {
                    a = recon.atClamped(x, y - 1);
                    b = recon.atClamped(x - 1, y - 1);
                    e = recon.atClamped(x - 1, y);
                }
                out[r * n + c] =
                    static_cast<uint8_t>((a + 2 * b + e + 2) >> 2);
            }
        }
        break;
    }
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
