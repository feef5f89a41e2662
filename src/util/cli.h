// Tiny command-line/environment option parser for examples and benches.
//
// Accepts `--name=value`, `--name value` and boolean `--flag` forms, plus
// environment-variable fallbacks so the benchmark harness can be tuned
// without arguments (e.g. IMC_BENCH_SCALE).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace imc {

/// An argument mistake diagnosable up front: a malformed or out-of-range
/// value, an unknown flag, a flag that does not apply. Front ends report it
/// with their usage text and exit 2, apart from runtime failures (exit 1).
struct UsageError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

class ArgParser {
 public:
  ArgParser(int argc, const char* const* argv);

  /// True if `--name` or `--name=...` was passed.
  [[nodiscard]] bool has(const std::string& name) const;

  /// Typed getters return `fallback` when the option is absent. A value
  /// that does not parse in full throws UsageError naming the flag and
  /// the value.
  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// Names of every option passed (without the leading `--`), sorted.
  [[nodiscard]] std::vector<std::string> names() const;

  /// Non-option (positional) arguments, in order.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  [[nodiscard]] const std::string& program() const noexcept { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

/// Environment lookup helpers (empty/unset → fallback; parse errors throw).
[[nodiscard]] std::int64_t env_int(const char* name, std::int64_t fallback);
[[nodiscard]] double env_double(const char* name, double fallback);
[[nodiscard]] std::optional<std::string> env_string(const char* name);

}  // namespace imc
