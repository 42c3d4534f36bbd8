#include "common/hash.hpp"

#include <array>

namespace bsm {

std::string to_hex(std::uint64_t v) {
  static constexpr std::array<char, 16> digits = {'0', '1', '2', '3', '4', '5', '6', '7',
                                                  '8', '9', 'a', 'b', 'c', 'd', 'e', 'f'};
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[v & 0xF];
    v >>= 4;
  }
  return out;
}

}  // namespace bsm
