// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320).
//
// Used by the checkpoint journal to make each appended record
// self-validating: a torn write or bit rot is detected on recovery
// instead of silently resurfacing as a corrupt campaign point, and by the
// victim weight file (nn/serialize.hpp), whose whole body it checks on
// every load. The slice-by-8 table form folds eight bytes per step, so
// the half-megabyte LeNet-5 weight file is not a set-up cost; its values
// equal the byte-at-a-time form's (tests/journal_test.cpp). The journals'
// fixed-width hex fields are encoded and decoded here too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace deepstrike {

/// CRC-32 of `size` bytes. `seed` chains partial computations:
/// crc32(b, crc32(a)) == crc32(ab). crc32("123456789") == 0xCBF43926.
std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed = 0);

inline std::uint32_t crc32(std::string_view bytes, std::uint32_t seed = 0) {
    return crc32(bytes.data(), bytes.size(), seed);
}

/// Fixed-width lowercase hex of `value` in `digits` digits, 8 or 16
/// ("0000000a"); the value must fit. The one encoder of the journals'
/// hex fields: record checksums, fingerprints and IEEE-754 bit patterns.
std::string to_hex(std::uint64_t value, std::size_t digits);

/// Strict inverse of to_hex: FormatError unless `hex` is exactly `digits`
/// (8 or 16) lowercase hex digits, with no sign, prefix or whitespace.
std::uint64_t from_hex(std::string_view hex, std::size_t digits);

/// Fixed-width lowercase hex form ("cbf43926") — the journal's record
/// prefix, chosen fixed-width so records stay trivially self-delimiting.
inline std::string crc32_hex(std::uint32_t crc) { return to_hex(crc, 8); }

} // namespace deepstrike
