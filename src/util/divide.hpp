// Exact division by a divisor fixed for a whole loop.
//
// The accelerator engine maps each faulted op index back to its output
// element, weight and input with two or three divisions by layer
// constants (the apply of its fault walk). A 64-bit `div` per fault costs
// more than the rest of the patch; every op index of a layer fits in 32
// bits, so one precomputed reciprocal and a 64x64 -> 128-bit multiply give
// the same quotient.
#pragma once

#include <cstdint>

namespace deepstrike {

/// n / d for every n < 2^32, with d fixed at construction. For d > 1,
/// c = ceil(2^64 / d) and n / d == floor(n * c / 2^64) (Lemire, Kaser and
/// Kurz, "Faster remainder by direct computation", 2019, Theorem 1 with
/// 64 fraction bits and 32-bit n and d). d == 1, whose c does not fit 64
/// bits, keeps c = 0 and passes n through a mask instead.
class DivideU32 {
public:
    explicit DivideU32(std::uint32_t d)
        : d_(d),
          c_(d > 1 ? ~std::uint64_t{0} / d + 1 : 0),
          pass_(d == 1 ? ~std::uint32_t{0} : 0) {}

    std::uint32_t quotient(std::uint32_t n) const {
        const auto high = static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(c_) * n) >> 64);
        return static_cast<std::uint32_t>(high) | (n & pass_);
    }

    std::uint32_t remainder(std::uint32_t n) const { return n - quotient(n) * d_; }

private:
    std::uint32_t d_;
    std::uint64_t c_;
    std::uint32_t pass_;
};

} // namespace deepstrike
