// Dense bit vector.
//
// Used by the TDC carry-chain output (128-bit thermometer code) and the
// attack signal RAM (one action bit per clock cycle). std::vector<bool> is
// avoided deliberately: we need word-level access for the thermometer
// encoder and popcounts.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace deepstrike {

class BitVec {
public:
    BitVec() = default;

    /// `n` bits, all cleared.
    explicit BitVec(std::size_t n);

    /// Parses a string of '0'/'1' characters, index 0 = first character.
    /// Throws FormatError on any other character.
    static BitVec from_string(const std::string& bits);

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    // get/set/popcount are inline: the TDC emits and the detector taps one
    // sample per DDR half-cycle, so these run hundreds of thousands of
    // times per co-simulated inference.
    bool get(std::size_t i) const {
        expects(i < size_, "BitVec::get index in range");
        return (words_[i / 64] >> (i % 64)) & 1ULL;
    }

    void set(std::size_t i, bool value) {
        expects(i < size_, "BitVec::set index in range");
        const std::uint64_t mask = 1ULL << (i % 64);
        if (value) words_[i / 64] |= mask;
        else words_[i / 64] &= ~mask;
    }

    /// Appends one bit at the end.
    void push_back(bool value);

    /// Appends all bits of `other`.
    void append(const BitVec& other);

    /// Number of set bits.
    std::size_t popcount() const {
        std::size_t n = 0;
        for (std::uint64_t w : words_) n += static_cast<std::size_t>(std::popcount(w));
        return n;
    }

    /// Longest run of consecutive set bits.
    std::size_t longest_one_run() const;

    /// Index of the first set bit, or size() if none.
    std::size_t find_first_one() const;

    /// 64-bit words backing the vector (bit i lives in word i/64, bit i%64).
    const std::vector<std::uint64_t>& words() const { return words_; }

    std::string to_string() const;

    bool operator==(const BitVec& other) const;

    void clear();

    /// Resizes to n bits; new bits cleared.
    void resize(std::size_t n);

    /// Reinitializes to n bits with the first `ones` bits set and the rest
    /// cleared (a thermometer code), reusing existing storage. Word-level:
    /// the per-sample cost of the TDC hot loop, so no bit-by-bit writes.
    void assign_prefix(std::size_t n, std::size_t ones) {
        expects(ones <= n, "BitVec::assign_prefix: ones <= n");
        const std::size_t nw = (n + 63) / 64;
        if (words_.size() != nw) words_.assign(nw, 0);
        size_ = n;
        const std::size_t full = ones / 64;
        const std::size_t rem = ones % 64;
        std::size_t w = 0;
        for (; w < full; ++w) words_[w] = ~0ULL;
        for (; w < nw; ++w) words_[w] = 0;
        if (rem != 0) words_[full] = (1ULL << rem) - 1;
    }

private:
    void mask_tail();

    std::vector<std::uint64_t> words_;
    std::size_t size_ = 0;
};

} // namespace deepstrike
