#pragma once

/**
 * @file
 * Per-position quantization multipliers (MF) and rescale factors (V)
 * from the H.264 reference construction, shared by the scalar and
 * vector quant/dequant kernels, codec/transform.cc's DC helpers and
 * NGC's DC quantizer.
 * Positions fall in three classes by parity: (even,even) -> a,
 * (odd,odd) -> b, mixed -> c.
 */

#include <array>
#include <cstdint>

namespace vbench::kernels {

inline constexpr int kQuantMf[6][3] = {
    // a      b     c
    {13107, 5243, 8066},
    {11916, 4660, 7490},
    {10082, 4194, 6554},
    {9362, 3647, 5825},
    {8192, 3355, 5243},
    {7282, 2893, 4559},
};

inline constexpr int kDequantV[6][3] = {
    // a   b   c
    {10, 16, 13},
    {11, 18, 14},
    {13, 20, 16},
    {14, 23, 18},
    {16, 25, 20},
    {18, 29, 23},
};

/** Position class index (0=a, 1=b, 2=c) for raster position i. */
inline constexpr int
posClass(int i)
{
    const int r = i >> 2;
    const int c = i & 3;
    const bool r_even = (r & 1) == 0;
    const bool c_even = (c & 1) == 0;
    if (r_even && c_even)
        return 0;
    if (!r_even && !c_even)
        return 1;
    return 2;
}

/** A per-class table spread over the 16 raster positions of a 4x4 block. */
template <typename T>
constexpr std::array<std::array<T, 16>, 6>
byPosition(const int (&table)[6][3])
{
    std::array<std::array<T, 16>, 6> out{};
    for (int rem = 0; rem < 6; ++rem)
        for (int i = 0; i < 16; ++i)
            out[rem][i] = static_cast<T>(table[rem][posClass(i)]);
    return out;
}

/**
 * kQuantMf and kDequantV by raster position, one row per qp % 6, so a
 * vector kernel loads its multipliers instead of assembling them.
 * Every value fits int16 (the largest MF is 13107).
 */
inline constexpr auto kQuantMfPos = byPosition<int32_t>(kQuantMf);
inline constexpr auto kQuantMfPos16 = byPosition<int16_t>(kQuantMf);
inline constexpr auto kDequantVPos16 = byPosition<int16_t>(kDequantV);

/**
 * Quantizer rounding offset at qbits = 15 + qp / 6: a third of a step
 * for intra, a sixth for inter. Constant divisors, so no division
 * instruction; qbits <= 23 for qp <= 51 keeps it in int32.
 */
inline constexpr int32_t
quantRound(int qbits, bool intra)
{
    return intra ? (1 << qbits) / 3 : (1 << qbits) / 6;
}

} // namespace vbench::kernels
