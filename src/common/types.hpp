// Fundamental identifiers and conventions shared by every module.
//
// A bSM instance has n = 2k parties: ids [0, k) form side L and ids [k, 2k)
// form side R. All protocol code is written against these global ids; the
// side of an id is derived from k, which every component receives explicitly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace bsm {

/// Global party identifier in [0, 2k).
using PartyId = std::uint32_t;

/// Lock-step round counter (1 round == the paper's delay bound Delta).
using Round = std::uint32_t;

/// Raw message payload.
using Bytes = std::vector<std::uint8_t>;

/// Read-only view of bytes owned elsewhere; a `Bytes` converts implicitly.
using ByteView = std::span<const std::uint8_t>;

/// Sentinel for "no party" (a party matched with nobody).
inline constexpr PartyId kNobody = UINT32_MAX;

/// Which of the two sides of the matching market a party belongs to.
enum class Side : std::uint8_t { Left, Right };

[[nodiscard]] constexpr Side side_of(PartyId id, std::uint32_t k) noexcept {
  return id < k ? Side::Left : Side::Right;
}

[[nodiscard]] constexpr Side opposite(Side s) noexcept {
  return s == Side::Left ? Side::Right : Side::Left;
}

/// All ids on side `s` for market size k, in ascending order.
[[nodiscard]] inline std::vector<PartyId> side_members(Side s, std::uint32_t k) {
  std::vector<PartyId> out;
  out.reserve(k);
  const PartyId base = s == Side::Left ? 0 : k;
  for (std::uint32_t i = 0; i < k; ++i) out.push_back(base + i);
  return out;
}

/// Index of `id` within its own side, in [0, k).
[[nodiscard]] constexpr std::uint32_t side_index(PartyId id, std::uint32_t k) noexcept {
  return id < k ? id : id - k;
}

/// Throwing precondition check (used instead of assert so that release
/// builds keep the guarantees; violations are programming errors).
inline void require(bool cond, const char* msg) {
  if (!cond) throw std::logic_error(std::string{"bsm: requirement violated: "} + msg);
}

}  // namespace bsm
