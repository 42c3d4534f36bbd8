// Non-cryptographic hashing used for transcript digests and the simulated
// signature scheme's tags. Collision resistance here is "good enough for a
// simulator": unforgeability of signatures is enforced by capability (see
// crypto/pki.hpp), not by hash strength.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>

#include "common/types.hpp"

namespace bsm {

/// FNV-1a over a byte buffer.
[[nodiscard]] std::uint64_t fnv1a64(const Bytes& data) noexcept;
[[nodiscard]] std::uint64_t fnv1a64(std::span<const std::uint8_t> data) noexcept;

/// A fast 64-bit key over a byte buffer, for in-process hash tables whose
/// every key match is confirmed by full-bytes equality (the engine's
/// per-round payload interning, TallyArena buckets). Never part of a
/// transcript: no view hash, digest or output depends on it, so it may
/// change freely and may differ across platforms (it reads native-endian
/// words). Consumes 8 bytes per step with one multiply and one rotate —
/// several times cheaper than fnv1a64's multiply per byte.
[[nodiscard]] inline std::uint64_t content_key(std::span<const std::uint8_t> data) noexcept {
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  const std::size_t n = data.size();
  std::uint64_t h = n * kMul;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, data.data() + i, 8);
    h = std::rotl((h ^ w) * kMul, 31);
  }
  if (i < n) {
    std::uint64_t w = 0;
    std::memcpy(&w, data.data() + i, n - i);
    h = std::rotl((h ^ w) * kMul, 31);
  }
  return h ^ (h >> 32);
}

/// splitmix64 finalizer; good bit mixing for combining hashes and seeding.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t x) noexcept;

/// Order-dependent combination of two 64-bit digests.
[[nodiscard]] std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) noexcept;

/// Lower-case hex rendering of a digest (for human-readable transcripts).
[[nodiscard]] std::string to_hex(std::uint64_t v);

}  // namespace bsm
