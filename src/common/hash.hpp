// Non-cryptographic hashing used for transcript digests and the simulated
// signature scheme's tags. Collision resistance here is "good enough for a
// simulator": unforgeability of signatures is enforced by capability (see
// crypto/pki.hpp), not by hash strength.
//
// Two kinds of function live here, and they must not be confused:
//  - fnv1a64, splitmix64 and hash_combine define transcript bytes: every
//    view hash, bench digest, scenario digest and simulated signature tag
//    is built from them. Their values are pinned by known vectors in
//    tests/common_test.cpp and may never change.
//  - content_key only places entries in in-process hash tables whose every
//    match is confirmed by full-bytes equality. It is in no transcript, so
//    it is free to change.
// All four are defined in this header: the engine's delivery fold, the
// payload intern table and the relay router call them per envelope, where
// an out-of-line call cost more than the arithmetic.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>

#include "common/types.hpp"

namespace bsm {

/// FNV-1a over a byte buffer. Transcript-defining.
[[nodiscard]] inline std::uint64_t fnv1a64(std::span<const std::uint8_t> data) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint8_t b : data) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}
[[nodiscard]] inline std::uint64_t fnv1a64(const Bytes& data) noexcept {
  return fnv1a64(std::span<const std::uint8_t>(data.data(), data.size()));
}

/// A fast 64-bit key over a byte buffer, for in-process hash tables whose
/// every key match is confirmed by full-bytes equality (the engine's
/// per-round payload interning, TallyArena buckets). Never part of a
/// transcript: no view hash, digest or output depends on it, so it may
/// change freely and may differ across platforms (it reads native-endian
/// words).
///
/// Each step is one multiply and one rotate over an 8-byte word. Payloads
/// of 32 bytes or more run four such chains side by side, one per word of
/// each 32-byte stripe, so the multiplies overlap instead of waiting on
/// each other; the lanes then fold into one state, which takes the
/// remaining whole words and the zero-padded tail. Every step is a
/// bijection in its word, so payloads of one length that differ in a
/// single word always get different keys.
[[nodiscard]] inline std::uint64_t content_key(std::span<const std::uint8_t> data) noexcept {
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  const auto word = [&data](std::size_t at) {
    std::uint64_t w;
    std::memcpy(&w, data.data() + at, 8);
    return w;
  };
  const auto mix = [](std::uint64_t h, std::uint64_t w) { return std::rotl((h ^ w) * kMul, 31); };
  const std::size_t n = data.size();
  std::uint64_t h = n * kMul;
  std::size_t i = 0;
  if (n >= 32) {
    std::uint64_t a = h;
    std::uint64_t b = h + kMul;
    std::uint64_t c = h + 2 * kMul;
    std::uint64_t d = h + 3 * kMul;
    for (; i + 32 <= n; i += 32) {
      a = mix(a, word(i));
      b = mix(b, word(i + 8));
      c = mix(c, word(i + 16));
      d = mix(d, word(i + 24));
    }
    h = mix(mix(mix(a, b), c), d);
  }
  for (; i + 8 <= n; i += 8) h = mix(h, word(i));
  if (i < n) {
    std::uint64_t w = 0;
    std::memcpy(&w, data.data() + i, n - i);
    h = mix(h, w);
  }
  return h ^ (h >> 32);
}

/// splitmix64 finalizer; good bit mixing for combining hashes and seeding.
/// Transcript-defining.
[[nodiscard]] inline std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Order-dependent combination of two 64-bit digests. Transcript-defining:
/// every view hash is a chain of these.
[[nodiscard]] inline std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) noexcept {
  return splitmix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

/// Lower-case hex rendering of a digest (for human-readable transcripts).
[[nodiscard]] std::string to_hex(std::uint64_t v);

}  // namespace bsm
