#include "util/checksum.hpp"

#include <array>

#include "util/error.hpp"

namespace deepstrike {

namespace {

constexpr std::uint32_t kPoly = 0xEDB88320u;

/// Slice-by-8 tables: table[0] is the byte-at-a-time table, and
/// table[k][b] is the CRC register after byte b is followed by k zero
/// bytes, so eight bytes fold into the register with eight lookups.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

Tables make_tables() {
    Tables table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int bit = 0; bit < 8; ++bit) {
            c = (c & 1u) ? (kPoly ^ (c >> 1)) : (c >> 1);
        }
        table[0][i] = c;
    }
    for (std::size_t k = 1; k < table.size(); ++k) {
        for (std::size_t i = 0; i < 256; ++i) {
            const std::uint32_t prev = table[k - 1][i];
            table[k][i] = table[0][prev & 0xFFu] ^ (prev >> 8);
        }
    }
    return table;
}

/// Little-endian word at `p`, whatever the host byte order.
std::uint32_t load_le32(const unsigned char* p) {
    return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

} // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
    static const Tables table = make_tables();
    const auto* bytes = static_cast<const unsigned char*>(data);
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    for (; size >= 8; size -= 8, bytes += 8) {
        const std::uint32_t lo = load_le32(bytes) ^ c;
        const std::uint32_t hi = load_le32(bytes + 4);
        c = table[7][lo & 0xFFu] ^ table[6][(lo >> 8) & 0xFFu] ^
            table[5][(lo >> 16) & 0xFFu] ^ table[4][lo >> 24] ^ table[3][hi & 0xFFu] ^
            table[2][(hi >> 8) & 0xFFu] ^ table[1][(hi >> 16) & 0xFFu] ^ table[0][hi >> 24];
    }
    for (; size > 0; --size, ++bytes) {
        c = table[0][(c ^ *bytes) & 0xFFu] ^ (c >> 8);
    }
    return c ^ 0xFFFFFFFFu;
}

std::string to_hex(std::uint64_t value, std::size_t digits) {
    expects((digits == 8 || digits == 16) && (digits == 16 || value >> 32 == 0),
            "to_hex: 8 or 16 digits that hold the value");
    static const char* hex_digits = "0123456789abcdef";
    std::string out(digits, '0');
    for (std::size_t i = digits; i-- > 0; value >>= 4) out[i] = hex_digits[value & 0xFu];
    return out;
}

std::uint64_t from_hex(std::string_view hex, std::size_t digits) {
    expects(digits == 8 || digits == 16, "from_hex: 8 or 16 digits");
    const auto bad = [&] {
        return FormatError("bad hex field '" + std::string(hex) + "' (want " +
                           std::to_string(digits) + " lowercase hex digits)");
    };
    if (hex.size() != digits) throw bad();
    std::uint64_t value = 0;
    for (const char c : hex) {
        value <<= 4;
        if (c >= '0' && c <= '9') value |= static_cast<std::uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f') value |= static_cast<std::uint64_t>(c - 'a' + 10);
        else throw bad();
    }
    return value;
}

} // namespace deepstrike
