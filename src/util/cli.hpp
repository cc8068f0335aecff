// Small declarative command-line parser shared by examples and benches.
// Supports `--name value`, `--name=value` and boolean `--flag`, generates
// --help text, and validates unknown options.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace dckpt::util {

/// Full-token numeric rules shared by the getters below and the scenario
/// keys: nullopt unless all of `text` is one finite double / one integer.
std::optional<double> parse_finite(const std::string& text);
std::optional<std::int64_t> parse_integer(const std::string& text);

class CliParser {
 public:
  CliParser(std::string program, std::string description);

  /// Declares an option with a default value (all values held as strings).
  void add_option(const std::string& name, const std::string& default_value,
                  const std::string& help);
  /// Declares a boolean flag (false unless present).
  void add_flag(const std::string& name, const std::string& help);

  /// Parses argv. Returns false after printing usage on --help. A usage
  /// error (unknown option, missing value, a flag given a value) prints
  /// to stderr and exits(2). A space-separated value may not itself start
  /// with `--` (catches `--mtbf --trials 5` typos); use `--opt=value` to
  /// force one through.
  bool parse(int argc, const char* const* argv);

  /// Whether `name` was declared (as an option or a flag).
  bool has_option(const std::string& name) const {
    return options_.count(name) != 0;
  }

  std::string get(const std::string& name) const;
  /// Numeric getters apply the rules above; a malformed, non-finite or
  /// out-of-range value prints `program: option --name: invalid value 'x'`
  /// and exits(2) instead of leaking a raw exception out of the tool.
  double get_double(const std::string& name) const;
  std::int64_t get_int(const std::string& name) const;
  /// A non-negative integer (a count, size, step or seed); a negative
  /// value is an invalid value like any other.
  std::uint64_t get_count(const std::string& name) const;
  /// An integer in [lo, hi]; anything else is an invalid value.
  int get_int_in(const std::string& name, int lo, int hi) const;
  /// Prints `program: option --name: invalid value 'x'` and exits(2): for
  /// callers that apply their own rule to get(name).
  [[noreturn]] void exit_invalid_value(const std::string& name) const;
  bool get_flag(const std::string& name) const;

  /// Positional arguments left after options.
  const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  std::string usage() const;

 private:
  struct Option {
    std::string default_value;
    std::string help;
    bool is_flag = false;
  };

  std::string program_;
  std::string description_;
  std::map<std::string, Option> options_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace dckpt::util
