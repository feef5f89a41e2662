#include "util/cli.h"

#include <charconv>
#include <cstdlib>
#include <string_view>

namespace imc {

namespace {

[[nodiscard]] UsageError bad_value(const std::string& name,
                                   const std::string& text,
                                   const char* expected) {
  return UsageError("--" + name + " expects " + expected + ", got '" + text +
                    "'");
}

/// Parses the whole of `text` as a T; anything left over is an error.
template <typename T>
[[nodiscard]] T parse_number(const std::string& name, const std::string& text,
                             const char* expected) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end) {
    throw bad_value(name, text, expected);
  }
  return value;
}

}  // namespace

ArgParser::ArgParser(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!arg.starts_with("--")) {
      positional_.emplace_back(arg);
      continue;
    }
    const std::string_view body = arg.substr(2);
    const std::size_t eq = body.find('=');
    if (eq != std::string_view::npos) {
      options_[std::string(body.substr(0, eq))] =
          std::string(body.substr(eq + 1));
      continue;
    }
    // `--name value` when the next token is not itself an option,
    // otherwise a bare boolean flag.
    if (i + 1 < argc && !std::string_view(argv[i + 1]).starts_with("--")) {
      options_[std::string(body)] = argv[++i];
    } else {
      options_[std::string(body)] = "";
    }
  }
}

bool ArgParser::has(const std::string& name) const {
  return options_.contains(name);
}

std::string ArgParser::get_string(const std::string& name,
                                  const std::string& fallback) const {
  const auto it = options_.find(name);
  return it == options_.end() ? fallback : it->second;
}

std::int64_t ArgParser::get_int(const std::string& name,
                                std::int64_t fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  return parse_number<std::int64_t>(name, it->second, "an integer");
}

double ArgParser::get_double(const std::string& name, double fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  return parse_number<double>(name, it->second, "a number");
}

bool ArgParser::get_bool(const std::string& name, bool fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  const std::string& text = it->second;
  if (text.empty() || text == "1" || text == "true" || text == "yes" ||
      text == "on") {
    return true;
  }
  if (text == "0" || text == "false" || text == "no" || text == "off") {
    return false;
  }
  throw bad_value(name, text, "a boolean");
}

std::vector<std::string> ArgParser::names() const {
  std::vector<std::string> out;
  out.reserve(options_.size());
  for (const auto& [name, value] : options_) out.push_back(name);
  return out;
}

std::optional<std::string> env_string(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return std::nullopt;
  return std::string(value);
}

std::int64_t env_int(const char* name, std::int64_t fallback) {
  const auto text = env_string(name);
  return text ? std::stoll(*text) : fallback;
}

double env_double(const char* name, double fallback) {
  const auto text = env_string(name);
  return text ? std::stod(*text) : fallback;
}

}  // namespace imc
