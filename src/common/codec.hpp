// Minimal length-prefixed binary codec.
//
// Every protocol message in this repository is serialized through Writer and
// parsed through Reader. Reader never throws on malformed input: byzantine
// parties may send arbitrary bytes, so every read reports failure through
// `ok()`, and higher layers drop messages that fail to parse.
//
// Reader's fixed-width reads and bytes_view() are defined in this header:
// the relay router and the instance hub decode every envelope of a run
// through them, and an out-of-line call per field cost more than the read
// itself. Writer stays out of line (codec.cpp); inlined into the frame
// encoders, its vector inserts trip false -Warray-bounds and
// -Wstringop-overflow warnings in GCC 12 at -O3.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace bsm {

/// Strict non-negative integer parse for CLI flags and text inputs:
/// rejects junk, signs, and overflow (std::stoul would accept "-1" as
/// 2^64-1 and throw on "abc").
[[nodiscard]] std::optional<std::uint64_t> parse_u64(std::string_view s) noexcept;

/// Append one integer in the codec's wire order (little-endian) to a raw
/// buffer — the single definition shared by Writer and the frame-patching
/// hot paths, so the byte order lives in exactly one place. One insert
/// (a single capacity check) instead of per-byte push_backs.
inline void append_u32_le(Bytes& b, std::uint32_t v) {
  const std::uint8_t raw[4] = {static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8),
                               static_cast<std::uint8_t>(v >> 16),
                               static_cast<std::uint8_t>(v >> 24)};
  b.insert(b.end(), raw, raw + 4);
}
inline void append_u64_le(Bytes& b, std::uint64_t v) {
  const std::uint8_t raw[8] = {
      static_cast<std::uint8_t>(v),       static_cast<std::uint8_t>(v >> 8),
      static_cast<std::uint8_t>(v >> 16), static_cast<std::uint8_t>(v >> 24),
      static_cast<std::uint8_t>(v >> 32), static_cast<std::uint8_t>(v >> 40),
      static_cast<std::uint8_t>(v >> 48), static_cast<std::uint8_t>(v >> 56)};
  b.insert(b.end(), raw, raw + 8);
}

/// Overwrite an already-encoded u32 in place (frame patching); the caller
/// guarantees `off + 4 <= b.size()`.
inline void store_u32_le(Bytes& b, std::size_t off, std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) {
    b[off + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

/// Append-only serializer. The first write into an empty buffer reserves
/// one kFirstBlock-byte block (more if that write alone needs it), so a
/// frame or an encoded list costs one allocation instead of a chain of
/// regrowths; take() hands the block over and the next write starts anew.
class Writer {
 public:
  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void bytes(ByteView b);  ///< u32 length prefix + raw bytes
  void raw(ByteView b);    ///< raw bytes, no prefix
  void u32_vec(const std::vector<std::uint32_t>& v);
  void str(const std::string& s);

  [[nodiscard]] const Bytes& data() const noexcept { return buf_; }
  [[nodiscard]] Bytes take() noexcept { return std::move(buf_); }

  /// Rewind to `n` bytes, keeping capacity — lets hot paths re-extend one
  /// scratch buffer from a fixed prefix instead of re-encoding it.
  void truncate(std::size_t n) noexcept {
    if (n < buf_.size()) buf_.resize(n);
  }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

 private:
  static constexpr std::size_t kFirstBlock = 64;

  /// The buffer, with room reserved for a first write of `n` bytes.
  Bytes& buffer_for(std::size_t n) {
    if (buf_.capacity() == 0) buf_.reserve(n > kFirstBlock ? n : kFirstBlock);
    return buf_;
  }

  Bytes buf_;
};

/// Non-throwing deserializer over a borrowed buffer.
class Reader {
 public:
  explicit Reader(ByteView b) noexcept : buf_(b) {}

  // A read that runs past the end returns 0 (or an empty container or
  // view) and clears ok(), and every later read fails the same way, so a
  // truncated frame never yields a partial value.
  [[nodiscard]] std::uint8_t u8() noexcept {
    if (!take(1)) return 0;
    return buf_[pos_++];
  }
  [[nodiscard]] std::uint32_t u32() noexcept {
    if (!take(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(buf_[pos_++]) << (8 * i);
    return v;
  }
  [[nodiscard]] std::uint64_t u64() noexcept {
    if (!take(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(buf_[pos_++]) << (8 * i);
    return v;
  }
  [[nodiscard]] Bytes bytes();
  /// Like bytes(), but a borrowed view into the buffer — no allocation.
  /// Valid only while the underlying buffer is alive and unmodified.
  [[nodiscard]] ByteView bytes_view() noexcept {
    const std::uint32_t n = u32();
    if (!take(n)) return {};
    const ByteView out = buf_.subspan(pos_, n);
    pos_ += n;
    return out;
  }
  [[nodiscard]] std::vector<std::uint32_t> u32_vec();
  [[nodiscard]] std::string str();

  /// True iff no read so far ran past the end of the buffer.
  [[nodiscard]] bool ok() const noexcept { return ok_; }
  /// True iff the whole buffer was consumed and all reads succeeded.
  [[nodiscard]] bool done() const noexcept { return ok_ && pos_ == buf_.size(); }

 private:
  /// True iff `n` more bytes can be read; otherwise clears ok_.
  [[nodiscard]] bool take(std::size_t n) noexcept {
    if (!ok_ || buf_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  ByteView buf_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace bsm
