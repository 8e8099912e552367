/**
 * @file
 * Checksum primitives for the campaign-resilience layer: CRC-32
 * (IEEE reflected polynomial) guarding result-cache and resume-store
 * payloads against torn writes and bit rot, and FNV-1a 64 hashing
 * configuration descriptions into stable content-address keys. Both
 * are pure functions of their input bytes — no host state, no
 * endianness dependence — so a checksum computed on one machine
 * validates on any other.
 */

#ifndef TARTAN_SIM_CHECKSUM_HH
#define TARTAN_SIM_CHECKSUM_HH

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace tartan::sim {

namespace detail {

/** The reflected CRC-32 (IEEE 802.3) table, computed at compile time. */
constexpr std::array<std::uint32_t, 256>
makeCrc32Table()
{
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        table[i] = c;
    }
    return table;
}

} // namespace detail

/**
 * CRC-32 (IEEE, reflected) of @p data, chained after the CRC @p prev of
 * the bytes before it: crc32(b, crc32(a)) == crc32(a + b).
 */
inline std::uint32_t
crc32(std::string_view data, std::uint32_t prev = 0)
{
    static constexpr auto table = detail::makeCrc32Table();
    std::uint32_t c = prev ^ 0xffffffffu;
    for (char ch : data)
        c = table[(c ^ static_cast<unsigned char>(ch)) & 0xffu] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

/** FNV-1a 64-bit hash of @p data (stable across platforms and runs). */
inline std::uint64_t
fnv1a64(std::string_view data)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (char ch : data) {
        h ^= static_cast<unsigned char>(ch);
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Fold one more 64-bit word into an FNV-1a 64 state (key mixing). */
inline std::uint64_t
fnv1a64Mix(std::uint64_t h, std::uint64_t word)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (word >> (8 * i)) & 0xffull;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Fixed-width lowercase hex of a 64-bit value (16 characters). */
inline std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Fixed-width lowercase hex of a 32-bit value (8 characters). */
inline std::string
hex32(std::uint32_t v)
{
    char buf[9];
    std::snprintf(buf, sizeof(buf), "%08x", v);
    return buf;
}

} // namespace tartan::sim

#endif // TARTAN_SIM_CHECKSUM_HH
