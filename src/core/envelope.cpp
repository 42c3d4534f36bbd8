#include "core/envelope.hpp"

#include <cstdio>
#include <sstream>
#include <thread>

#include "core/bench.hpp"

namespace bsm::core {

unsigned resolve_report_threads(unsigned requested) noexcept {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::string envelope_json_with_sha(const std::string& subcommand, const std::string& git_sha,
                                   unsigned threads, bool include_threads) {
  std::ostringstream out;
  out << "\"schema_version\": " << kJsonSchemaVersion << ", \"subcommand\": \"" << subcommand
      << "\", \"git_sha\": \"" << git_sha << "\"";
  if (include_threads) out << ", \"threads\": " << resolve_report_threads(threads);
  return out.str();
}

std::string envelope_json(const std::string& subcommand, unsigned threads, bool include_threads) {
  return envelope_json_with_sha(subcommand, build_git_sha(), threads, include_threads);
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
      continue;
    }
    out.push_back(c);
  }
  return out;
}

std::string close_report(std::ofstream& out, const std::string& path) {
  out.flush();
  out.close();  // sets failbit when the close fails
  return out.fail() ? "write error on " + path : std::string();
}

}  // namespace bsm::core
