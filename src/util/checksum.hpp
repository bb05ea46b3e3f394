// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320).
//
// Used by the checkpoint journal to make each appended record
// self-validating: a torn write or bit rot is detected on recovery
// instead of silently resurfacing as a corrupt campaign point, and by the
// victim weight file (nn/serialize.hpp), whose whole body it checks on
// every load. The slice-by-8 table form folds eight bytes per step, so
// the half-megabyte LeNet-5 weight file is not a set-up cost; its values
// equal the byte-at-a-time form's (tests/journal_test.cpp).
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

/// Fixed-width lowercase hex form ("cbf43926") — the journal's record
/// prefix, chosen fixed-width so records stay trivially self-delimiting.
std::string crc32_hex(std::uint32_t crc);

} // namespace deepstrike
