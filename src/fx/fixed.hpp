// Fixed-point arithmetic for the quantized accelerator datapath.
//
// The paper's victim model uses an 8-bit fixed-point type with 3 integer
// bits and the remainder for the fraction. We implement a parameterized
// signed fixed-point `Fixed<IntBits, FracBits>` with saturating conversion
// and widening multiply, so the DSP datapath (25x18 multiplier + 48-bit
// accumulator in real DSP48 slices) can be modeled faithfully: products and
// partial sums are held in a wide accumulator and only the final writeback
// saturates to the 8-bit activation type.
#pragma once

#include <algorithm>
#include <cmath>
#include <compare>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>

namespace deepstrike::fx {

/// v / 2^Shift rounded to nearest, ties away from zero, with no branch on
/// the data. For v >= 0 that is floor((v + half) / 2^Shift); for v < 0 it
/// is -floor((-v + half) / 2^Shift), which equals floor((v + half - 1) /
/// 2^Shift). The sign mask v >> 63 (0 or -1) supplies the -1, and the
/// arithmetic shift floors. Requires v + 2^(Shift-1) to fit in int64. The
/// one rounding of the quantized datapath: the accumulator writeback
/// (Fixed::from_accumulator, and with it Fixed's multiply) and average
/// pooling.
template <int Shift>
constexpr std::int64_t round_shift(std::int64_t v) {
    static_assert(Shift >= 0 && Shift < 63, "shift in range");
    if constexpr (Shift == 0) {
        return v;
    } else {
        return (v + (std::int64_t{1} << (Shift - 1)) + (v >> 63)) >> Shift;
    }
}

/// Signed fixed point: 1 sign bit + IntBits integer bits + FracBits
/// fraction bits. Total width must fit in 16 bits (storage int16_t);
/// the accelerator's wide accumulator uses Acc (int64) directly.
template <int IntBits, int FracBits>
class Fixed {
    static_assert(IntBits >= 0 && FracBits >= 0, "negative field width");
    static_assert(1 + IntBits + FracBits <= 16, "Fixed must fit in 16 bits");

public:
    using raw_type = std::int16_t;
    static constexpr int int_bits = IntBits;
    static constexpr int frac_bits = FracBits;
    static constexpr int total_bits = 1 + IntBits + FracBits;
    static constexpr raw_type raw_max =
        static_cast<raw_type>((1 << (IntBits + FracBits)) - 1);
    static constexpr raw_type raw_min = static_cast<raw_type>(-raw_max - 1);
    static constexpr double scale = static_cast<double>(1 << FracBits);

    constexpr Fixed() = default;

    /// Constructs from the raw two's-complement representation (no scaling).
    static constexpr Fixed from_raw(raw_type raw) {
        Fixed f;
        f.raw_ = raw;
        return f;
    }

    /// Quantizes a real value: round-to-nearest-even, saturate to range.
    static Fixed from_real(double v) {
        const double scaled = v * scale;
        double r = std::nearbyint(scaled);
        r = std::clamp(r, static_cast<double>(raw_min), static_cast<double>(raw_max));
        return from_raw(static_cast<raw_type>(r));
    }

    constexpr raw_type raw() const { return raw_; }
    constexpr double to_real() const { return static_cast<double>(raw_) / scale; }

    static constexpr Fixed max() { return from_raw(raw_max); }
    static constexpr Fixed min() { return from_raw(raw_min); }
    static constexpr Fixed zero() { return from_raw(0); }

    /// Smallest positive increment.
    static constexpr double resolution() { return 1.0 / scale; }

    /// Saturating addition.
    friend constexpr Fixed operator+(Fixed a, Fixed b) {
        return from_saturated(static_cast<std::int32_t>(a.raw_) + b.raw_);
    }

    /// Saturating subtraction.
    friend constexpr Fixed operator-(Fixed a, Fixed b) {
        return from_saturated(static_cast<std::int32_t>(a.raw_) - b.raw_);
    }

    constexpr Fixed operator-() const { return from_saturated(-static_cast<std::int32_t>(raw_)); }

    /// Saturating multiply with round-to-nearest (ties away from zero),
    /// matching a DSP multiply followed by a right shift of FracBits.
    friend constexpr Fixed operator*(Fixed a, Fixed b) {
        return from_accumulator(wide_product(a, b));
    }

    constexpr auto operator<=>(const Fixed&) const = default;

    std::string to_string() const {
        return std::to_string(to_real());
    }

    /// Full-precision product in accumulator units (value * 2^(2*FracBits)).
    /// This is what a DSP multiplier emits before any truncation; the
    /// accelerator accumulates these and shifts once at writeback.
    static constexpr std::int64_t wide_product(Fixed a, Fixed b) {
        return static_cast<std::int64_t>(a.raw_) * b.raw_;
    }

    /// Converts an accumulator value in 2^(2*FracBits) units back to Fixed
    /// (the accelerator writeback stage): nearest with ties away from zero,
    /// saturated, with no branch on the data. It saturates first, with
    /// min/max in accumulator units. Rounding is monotone and maps
    /// raw_min * 2^FracBits and raw_max * 2^FracBits to raw_min and
    /// raw_max, so the result equals rounding first, and any int64 input
    /// rounds without overflow.
    static constexpr Fixed from_accumulator(std::int64_t acc) {
        constexpr std::int64_t lo = std::int64_t{raw_min} * (std::int64_t{1} << FracBits);
        constexpr std::int64_t hi = std::int64_t{raw_max} * (std::int64_t{1} << FracBits);
        acc = std::min<std::int64_t>(std::max<std::int64_t>(acc, lo), hi);
        return from_raw(static_cast<raw_type>(round_shift<FracBits>(acc)));
    }

private:
    /// Saturates to [raw_min, raw_max] with min/max (conditional moves,
    /// not branches).
    static constexpr Fixed from_saturated(std::int64_t wide) {
        wide = std::min<std::int64_t>(std::max<std::int64_t>(wide, raw_min), raw_max);
        return from_raw(static_cast<raw_type>(wide));
    }

    raw_type raw_ = 0;
};

/// The paper's datatype: 8 bits total, 3 integer bits, 4 fraction bits,
/// 1 sign bit. Range [-8.0, 7.9375], resolution 1/16.
using Q3_4 = Fixed<3, 4>;

/// Wide accumulator raw type used by the modeled DSP48 accumulate path.
using Acc = std::int64_t;

/// tanh lookup table on the Q3.4 grid, as synthesized accelerators do:
/// activation functions are implemented as BRAM LUTs indexed by the raw
/// fixed-point code, not evaluated in logic.
class TanhLut {
public:
    TanhLut();

    Q3_4 operator()(Q3_4 x) const {
        return table_[static_cast<std::size_t>(
            static_cast<std::int32_t>(x.raw()) - Q3_4::raw_min)];
    }

    static const TanhLut& instance();

private:
    // One entry per raw code in [raw_min, raw_max].
    Q3_4 table_[static_cast<std::size_t>(Q3_4::raw_max) - Q3_4::raw_min + 1];
};

} // namespace deepstrike::fx
