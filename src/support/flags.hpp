// Minimal command-line flag parser for the CLI tools and examples:
// `--name value`, `--name=value`, and bare `--bool-flag` forms, typed
// accessors with defaults, and generated --help text.
#pragma once

#include <concepts>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "support/error.hpp"

namespace apgre {

class FlagParser {
 public:
  explicit FlagParser(std::string program_description);

  FlagParser& add_string(const std::string& name, std::string default_value,
                         const std::string& help);
  FlagParser& add_int(const std::string& name, std::int64_t default_value,
                      const std::string& help);
  FlagParser& add_double(const std::string& name, double default_value,
                         const std::string& help);
  FlagParser& add_bool(const std::string& name, bool default_value,
                       const std::string& help);

  /// Parse argv; returns positional (non-flag) arguments in order. Throws
  /// OptionError on unknown flags or malformed values. `--help` sets
  /// help_requested().
  std::vector<std::string> parse(int argc, const char* const* argv);

  std::string get_string(const std::string& name) const;
  std::int64_t get_int(const std::string& name) const;
  double get_double(const std::string& name) const;
  bool get_bool(const std::string& name) const;

  bool help_requested() const { return help_requested_; }
  std::string help() const;

 private:
  enum class Type { kString, kInt, kDouble, kBool };
  struct Flag {
    Type type;
    std::string value;  // canonical textual form
    std::string default_value;
    std::string help;
  };

  const Flag& flag(const std::string& name, Type expected) const;

  std::string description_;
  std::map<std::string, Flag> flags_;
  bool help_requested_ = false;
};

/// Int flag `name` narrowed to T and checked to lie in [lo, hi] (by default
/// all of T): a value outside is an OptionError naming the range, never a
/// silent wrap.
template <std::integral T>
T int_flag(const FlagParser& flags, const std::string& name,
           T lo = std::numeric_limits<T>::min(),
           T hi = std::numeric_limits<T>::max()) {
  const std::int64_t value = flags.get_int(name);
  if (!std::in_range<T>(value) || static_cast<T>(value) < lo ||
      static_cast<T>(value) > hi) {
    throw OptionError("--" + name + " must be an integer in [" +
                      std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return static_cast<T>(value);
}

}  // namespace apgre
