#pragma once

/**
 * @file
 * The vectorized pixel-kernel library: one dispatch table of function
 * pointers covering the hot loops the uarch taxonomy in
 * src/uarch/kernels.h names — block SAD/SATD, half-pel interpolation,
 * the 4x4/8x8 integer transforms, quant/dequant, residual extraction,
 * add+clamp reconstruction, whole-block residual coding and
 * reconstruction, plane copy, in-loop deblocking, and the PSNR/SSIM
 * accumulations.
 *
 * The table is resolved exactly once per process, at first use, from
 * CPUID (via __builtin_cpu_supports) and the VBENCH_ISA environment
 * variable (`scalar`, `sse2`, `avx2`, or `native`). Every vector
 * variant is bit-exact against the scalar reference for all inputs the
 * codecs can produce; randomized equivalence tests in
 * tests/kernels/ enforce this, including non-multiple-of-lane tails.
 *
 * The scalar table is the reference semantics. Its translation unit is
 * compiled with auto-vectorization disabled so VBENCH_ISA=scalar
 * reproduces the paper's Fig. 8 "no SIMD" ISA point with real cycles,
 * not compiler-vectorized ones.
 */

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace vbench::kernels {

/** ISA levels the dispatcher can select, narrowest first. */
enum class Isa : uint8_t { Scalar = 0, Sse2 = 1, Avx2 = 2 };

inline constexpr int kNumIsaLevels = 3;

/** Lowercase name of an ISA level ("scalar", "sse2", "avx2"). */
const char *isaName(Isa isa);

/**
 * The dispatch table. All pointers are always non-null: vector
 * backends start from the scalar table and override only the entries
 * they accelerate.
 */
struct KernelOps {
    const char *name; ///< same as isaName(isa)
    Isa isa;

    // ----- Block distortion (motion estimation) --------------------

    /** Sum of absolute differences over a w x h block. */
    uint32_t (*sad)(const uint8_t *a, int a_stride, const uint8_t *b,
                    int b_stride, int w, int h);

    /**
     * Sum of absolute 4x4 Hadamard-transformed differences, halved per
     * sub-block (gain normalization). Requires w % 4 == 0, h % 4 == 0.
     */
    uint32_t (*satd)(const uint8_t *a, int a_stride, const uint8_t *b,
                     int b_stride, int w, int h);

    /**
     * SAD map of one w x h source block over a cols x rows window of
     * reference positions (exhaustive motion search):
     * out[v * cols + u] = sad(src, src_stride, ref + v * ref_stride + u,
     * ref_stride, w, h) for 0 <= u < cols, 0 <= v < rows.
     *
     * Read contract: `ref` must be readable at rows 0 .. rows + h - 2
     * and, in each, columns 0 .. cols + w - 1: one column past the last
     * one a SAD uses (cols + w - 2), because vector versions load
     * whole 16-byte groups. `src` is read over exactly w x h.
     */
    void (*sadMap)(const uint8_t *src, int src_stride, const uint8_t *ref,
                   int ref_stride, int w, int h, int cols, int rows,
                   uint32_t *out);

    // ----- Plane copy / half-pel interpolation ---------------------

    /** Copy a w x h rectangle between strided byte buffers. */
    void (*copy2d)(const uint8_t *src, int src_stride, uint8_t *dst,
                   int dst_stride, int w, int h);

    /** Horizontal half-pel: dst[c] = (s[c] + s[c+1] + 1) >> 1. */
    void (*interpH)(const uint8_t *src, int src_stride, uint8_t *dst,
                    int dst_stride, int w, int h);

    /** Vertical half-pel: dst[c] = (s[c] + s[c+stride] + 1) >> 1. */
    void (*interpV)(const uint8_t *src, int src_stride, uint8_t *dst,
                    int dst_stride, int w, int h);

    /** Diagonal half-pel: 4-sample average, (sum + 2) >> 2. */
    void (*interpHV)(const uint8_t *src, int src_stride, uint8_t *dst,
                     int dst_stride, int w, int h);

    // ----- Integer transforms --------------------------------------

    /** Forward 4x4 core transform; `in` is 16 contiguous samples. */
    void (*fwdTx4x4)(const int16_t in[16], int32_t out[16]);

    /** Inverse 4x4 core transform with (x + 32) >> 6 rounding. */
    void (*invTx4x4)(const int32_t in[16], int16_t out[16]);

    /**
     * Four forward 4x4 transforms over an 8x8 residual (row stride 8):
     * sub-block sb = (ry * 2 + rx) lands at coefs[sb * 16]. The NGC
     * 8x8 transform layers its DC Hadamard on top of this.
     */
    void (*fwdTx8x8)(const int16_t residual[64], int32_t coefs[64]);

    /** Inverse of fwdTx8x8's layout back into an 8x8 residual. */
    void (*invTx8x8)(const int32_t coefs[64], int16_t residual[64]);

    // ----- Quantization --------------------------------------------

    /**
     * Quantize one 4x4 coefficient block; returns the nonzero count.
     * Rounding offset is 1/3 of a step for intra, 1/6 for inter.
     */
    int (*quant4x4)(const int32_t coefs[16], int16_t levels[16], int qp,
                    bool intra);

    /** Rescale levels back to coefficients ((level * V) << (qp / 6)). */
    void (*dequant4x4)(const int16_t levels[16], int32_t coefs[16],
                       int qp);

    // ----- Residual / reconstruction -------------------------------

    /** out[r][c] = src[r][c] - pred[r][c] as int16. */
    void (*diffBlock)(const uint8_t *src, int src_stride,
                      const uint8_t *pred, int pred_stride, int16_t *out,
                      int out_stride, int w, int h);

    /** dst[r][c] = clamp255(pred[r][c] + residual[r][c]). */
    void (*addClampBlock)(const uint8_t *pred, int pred_stride,
                          const int16_t *residual, int res_stride,
                          uint8_t *dst, int dst_stride, int w, int h);

    /**
     * Residual coding of one n x n block, n in {4, 8, 16}: for each 4x4
     * block in raster order, exactly diffBlock -> fwdTx4x4 -> quant4x4,
     * its 16 levels landing at levels[16 * (by * n / 4 + bx)]. src and
     * pred are 8-bit samples, read over exactly n x n each; qp is
     * 0..51. Returns the nonzero level count.
     */
    int (*quantBlock)(const uint8_t *src, int src_stride,
                      const uint8_t *pred, int pred_stride, int n, int qp,
                      bool intra, int16_t *levels);

    /**
     * Reconstruction of one n x n block, n in {4, 8, 16}, from
     * quantBlock's level layout: for each 4x4 block, exactly
     * dequant4x4 -> invTx4x4 -> addClampBlock onto pred. Levels may
     * be any int16 (decoders parse up to +-32767); qp is 0..51. pred
     * is read and dst written over exactly n x n, and they must not
     * overlap. Returns the number of 4x4 blocks with a nonzero level
     * (an all-zero block reconstructs to its prediction).
     */
    int (*reconBlock)(const uint8_t *pred, int pred_stride,
                      const int16_t *levels, int n, int qp, uint8_t *dst,
                      int dst_stride);

    // ----- In-loop deblocking --------------------------------------

    /**
     * Filter a horizontal edge run of n samples: q0 points at the row
     * below the edge, with p1/p0 at -2/-1 strides and q1 at +1 stride.
     * alpha/beta are the H.264 thresholds, tc the clip limit.
     */
    void (*deblockEdgeH)(uint8_t *q0, int stride, int n, int alpha,
                         int beta, int tc);

    /**
     * Filter a vertical edge over n rows (n >= 0): q0 points at the
     * first sample right of the edge in the top row, with p1/p0 at
     * -2/-1 and q1 at +1, rows `stride` apart. Reads exactly those four
     * columns of each row and writes p0 and q0. Same decision and
     * arithmetic as deblockEdgeH; alpha/beta are 0..255, tc >= 0.
     */
    void (*deblockEdgeV)(uint8_t *q0, int stride, int n, int alpha,
                         int beta, int tc);

    // ----- Quality metrics -----------------------------------------

    /** Sum of squared differences over n contiguous samples. */
    uint64_t (*sse8)(const uint8_t *a, const uint8_t *b, size_t n);

    /**
     * SSIM window accumulations over a w x h window (w, h <= 8):
     * sums[0] = sum(a), sums[1] = sum(b), sums[2] = sum(a*a),
     * sums[3] = sum(b*b), sums[4] = sum(a*b). All sums fit uint32.
     */
    void (*ssimWindowSums)(const uint8_t *a, int a_stride,
                           const uint8_t *b, int b_stride, int w, int h,
                           uint32_t sums[5]);
};

namespace detail {

/** The active table; null until the first ops() call resolves it. */
extern std::atomic<const KernelOps *> g_active;

/** Resolve the active table once per process (slow path of ops()). */
const KernelOps *resolveActive();

} // namespace detail

/**
 * The active dispatch table (resolved once, at first call). Inline: a
 * single acquire load on every call after the first.
 */
inline const KernelOps &
ops()
{
    const KernelOps *table =
        detail::g_active.load(std::memory_order_acquire);
    if (__builtin_expect(table == nullptr, 0))
        table = detail::resolveActive();
    return *table;
}

/** ISA level of the active table. */
Isa activeIsa();

/** Widest ISA level this host supports (and this build compiled). */
Isa detectBestIsa();

/**
 * Table for a specific ISA level, or nullptr if the host CPU or the
 * build does not support it. opsFor(Isa::Scalar) never fails.
 */
const KernelOps *opsFor(Isa isa);

/**
 * Parse a VBENCH_ISA value ("scalar", "sse2", "avx2", "native",
 * case-insensitive). "native" maps to detectBestIsa(). Returns
 * std::nullopt for unrecognized names.
 */
std::optional<Isa> parseIsaName(std::string_view name);

/**
 * Test hook: force the active table to a given ISA level for the
 * lifetime of the object, restoring the previous table on destruction
 * (it sets the same pointer ops() loads).
 * The requested level must be available (see opsFor); construction
 * falls back to scalar otherwise. Not thread-safe: only use around
 * single-threaded test sections.
 */
class ScopedKernelIsa
{
  public:
    explicit ScopedKernelIsa(Isa isa);
    ~ScopedKernelIsa();

    ScopedKernelIsa(const ScopedKernelIsa &) = delete;
    ScopedKernelIsa &operator=(const ScopedKernelIsa &) = delete;

  private:
    const KernelOps *saved_;
};

// Backend tables (internal; exposed for the dispatcher and benches).
// sse2Ops()/avx2Ops() return nullptr when the build lacks the ISA.
const KernelOps *scalarOps();
const KernelOps *sse2Ops();
const KernelOps *avx2Ops();

} // namespace vbench::kernels
