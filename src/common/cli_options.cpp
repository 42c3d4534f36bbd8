#include "common/cli_options.hpp"

#include <iostream>
#include <sstream>

#include "common/codec.hpp"

namespace bsm::cli {

namespace {

constexpr std::size_t kHelpColumn = 24;  ///< help text starts here (2 + flag width, padded)

void append_flag_line(std::ostream& out, const std::string& lhs, const std::string& help) {
  out << "  " << lhs;
  if (lhs.size() + 2 < kHelpColumn) {
    out << std::string(kHelpColumn - lhs.size() - 2, ' ');
  } else {
    out << "  ";
  }
  out << help << "\n";
}

}  // namespace

FlagSpec flag(std::string name, std::string help, std::function<void()> set) {
  FlagSpec f;
  f.name = std::move(name);
  f.help = std::move(help);
  f.set = std::move(set);
  return f;
}

FlagSpec value_flag(std::string name, std::string value_name, std::string help,
                    std::function<std::optional<std::string>(const std::string&)> parse) {
  FlagSpec f;
  f.name = std::move(name);
  f.value_name = std::move(value_name);
  f.help = std::move(help);
  f.parse = std::move(parse);
  return f;
}

FlagSpec optional_value_flag(std::string name, std::string value_name, std::string help,
                             std::function<void()> set,
                             std::function<std::optional<std::string>(const std::string&)> parse) {
  FlagSpec f;
  f.name = std::move(name);
  f.value_name = std::move(value_name);
  f.help = std::move(help);
  f.set = std::move(set);
  f.parse = std::move(parse);
  return f;
}

std::string Subcommand::flag_lines() const {
  std::ostringstream out;
  for (const FlagSpec& f : flags) {
    std::string lhs = f.name;
    if (f.value_optional()) {
      lhs += "[=" + f.value_name + "]";
    } else if (f.takes_value()) {
      lhs += " " + f.value_name;
    }
    append_flag_line(out, lhs, f.help);
  }
  if (!positional_name.empty()) {
    append_flag_line(out, positional_name + "...", positional_help);
  }
  return out.str();
}

std::string Subcommand::help_text() const {
  std::ostringstream out;
  out << "usage: bsm_cli " << name << " [flags]";
  if (!positional_name.empty()) out << " " << positional_name << "...";
  out << "\n";
  if (!intro.empty()) out << "\n" << intro << "\n";
  out << "\n" << name << " flags:\n" << flag_lines();
  return out.str();
}

std::optional<int> parse_flags(const Subcommand& sub, int argc, char** argv, int first,
                               std::ostream& err) {
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help") {
      std::cout << sub.help_text();
      return 0;
    }
    // "--flag=value" splits into name + inline value; value flags accept
    // either spelling, optional-value flags require the inline one.
    std::string name = arg;
    std::optional<std::string> inline_value;
    if (arg.rfind("--", 0) == 0) {
      if (const auto eq = arg.find('='); eq != std::string::npos) {
        name = arg.substr(0, eq);
        inline_value = arg.substr(eq + 1);
      }
    }
    const FlagSpec* spec = nullptr;
    for (const FlagSpec& f : sub.flags) {
      if (f.name == name) {
        spec = &f;
        break;
      }
    }
    if (spec == nullptr) {
      if (!arg.empty() && arg[0] != '-' && sub.positional) {
        sub.positional(arg);
        continue;
      }
      err << "unknown " << sub.name << " argument: " << arg << " (try --help)\n";
      return 2;
    }
    if (inline_value) {
      if (!spec->parse) {
        err << "bad " << name << " value: " << *inline_value << " (flag takes no value)\n";
        return 2;
      }
      if (const auto reason = spec->parse(*inline_value)) {
        err << "bad " << name << " value: " << *inline_value << " (" << *reason << ")\n";
        return 2;
      }
      continue;
    }
    if (spec->set) {
      // Bare switch, or optional-value flag used bare (takes its default).
      spec->set();
      continue;
    }
    if (i + 1 >= argc) {
      err << "missing value for " << arg << "\n";
      return 2;
    }
    const std::string value = argv[++i];
    if (const auto reason = spec->parse(value)) {
      err << "bad " << arg << " value: " << value << " (" << *reason << ")\n";
      return 2;
    }
  }
  return std::nullopt;
}

std::optional<std::string> parse_bounded(const std::string& value, std::uint64_t lo,
                                         std::uint64_t hi, std::uint64_t& out) {
  const auto parsed = parse_u64(value);
  if (!parsed || *parsed < lo || *parsed > hi) {
    return "expected " + std::to_string(lo) + ".." + std::to_string(hi);
  }
  out = *parsed;
  return std::nullopt;
}

std::string render_help(const std::string& tool, const std::string& banner,
                        const std::vector<const Subcommand*>& subs) {
  std::ostringstream out;
  out << tool << " — " << banner << "\n\nusage:\n";
  for (const Subcommand* sub : subs) {
    std::string lhs = tool + " " + sub->name + " [flags]";
    if (!sub->positional_name.empty()) lhs += " " + sub->positional_name + "...";
    append_flag_line(out, lhs, sub->summary);
  }
  append_flag_line(out, tool + " --help", "this text (also: " + tool + " SUBCOMMAND --help)");
  for (const Subcommand* sub : subs) {
    out << "\n" << sub->name << " flags";
    if (!sub->intro.empty()) out << " (" << sub->intro << ")";
    out << ":\n" << sub->flag_lines();
  }
  return out.str();
}

}  // namespace bsm::cli
