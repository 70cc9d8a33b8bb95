/**
 * @file
 * FNV-1a 64, the non-cryptographic hash behind every fingerprint
 * (configFingerprint, warmupFingerprint, structuralFingerprint) and
 * the result-store envelope checksum. Changing it changes every
 * fingerprint and invalidates every stored result. Snapshot sections
 * carry their own word-wise checksum (snapshotChecksum in
 * snapshot/snapshot.hh).
 */

#ifndef VSV_COMMON_HASH_HH
#define VSV_COMMON_HASH_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace vsv
{

/** FNV-1a 64 over a byte string. */
constexpr std::uint64_t
fnv1a64(std::string_view bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/** fnv1a64 as 16 lowercase hex digits: the fingerprint spelling. */
inline std::string
fnv1a64Hex(std::string_view bytes)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(fnv1a64(bytes)));
    return buf;
}

} // namespace vsv

#endif // VSV_COMMON_HASH_HH
