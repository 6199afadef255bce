#include "codec/interp.h"

#include "kernels/kernel_ops.h"

namespace vbench::codec {

void
motionCompensate(const RefPlane &ref, int x, int y, MotionVector mv,
                 int w, int h, uint8_t *out)
{
    const int ix = x + (mv.x >> 1);
    const int iy = y + (mv.y >> 1);
    const int fx = mv.x & 1;
    const int fy = mv.y & 1;
    const int stride = ref.stride();
    const uint8_t *src = ref.ptr(ix, iy);
    const kernels::KernelOps &k = kernels::ops();

    if (fx == 0 && fy == 0)
        k.copy2d(src, stride, out, w, w, h);
    else if (fx == 1 && fy == 0)
        k.interpH(src, stride, out, w, w, h);
    else if (fx == 0 && fy == 1)
        k.interpV(src, stride, out, w, w, h);
    else
        k.interpHV(src, stride, out, w, w, h);
}

void
predictInter(const RefPlane &ref, int x, int y, int n, int parts,
             const MotionVector *mv, int shift, uint8_t *pred)
{
    const int b = parts == 1 ? n : n / 2;  // partition edge
    uint8_t quadrant[8 * 8];
    for (int part = 0; part < parts; ++part) {
        const int px = (part & 1) * b;
        const int py = (part >> 1) * b;
        const MotionVector v{static_cast<int16_t>(mv[part].x >> shift),
                             static_cast<int16_t>(mv[part].y >> shift)};
        if (parts == 1) {
            motionCompensate(ref, x, y, v, n, n, pred);
            return;
        }
        motionCompensate(ref, x + px, y + py, v, b, b, quadrant);
        kernels::ops().copy2d(quadrant, b, pred + py * n + px, n, b, b);
    }
}

} // namespace vbench::codec
