#include "common/codec.hpp"

#include <charconv>

namespace bsm {

std::optional<std::uint64_t> parse_u64(std::string_view s) noexcept {
  if (s.empty()) return std::nullopt;
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return value;
}

void Writer::u8(std::uint8_t v) { buffer_for(1).push_back(v); }

void Writer::u32(std::uint32_t v) { append_u32_le(buffer_for(4), v); }

void Writer::u64(std::uint64_t v) { append_u64_le(buffer_for(8), v); }

void Writer::bytes(ByteView b) {
  buffer_for(4 + b.size());
  u32(static_cast<std::uint32_t>(b.size()));
  raw(b);
}

void Writer::raw(ByteView b) {
  Bytes& buf = buffer_for(b.size());
  buf.insert(buf.end(), b.begin(), b.end());
}

void Writer::u32_vec(const std::vector<std::uint32_t>& v) {
  buffer_for(4 + 4 * v.size());
  u32(static_cast<std::uint32_t>(v.size()));
  for (std::uint32_t x : v) u32(x);
}

void Writer::str(const std::string& s) {
  buffer_for(4 + s.size());
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

Bytes Reader::bytes() {
  const std::uint32_t n = u32();
  if (!take(n)) return {};
  Bytes out(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
            buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

std::vector<std::uint32_t> Reader::u32_vec() {
  const std::uint32_t n = u32();
  // Guard against absurd length prefixes in hostile input: each element
  // occupies 4 bytes, so n may not exceed the remaining buffer / 4.
  if (!ok_ || buf_.size() - pos_ < static_cast<std::size_t>(n) * 4) {
    ok_ = false;
    return {};
  }
  std::vector<std::uint32_t> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) out.push_back(u32());
  return out;
}

std::string Reader::str() {
  const std::uint32_t n = u32();
  if (!take(n)) return {};
  std::string out(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
                  buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

}  // namespace bsm
