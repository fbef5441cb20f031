// Minimal command-line parsing for the tools and bench binaries.
//
// Supports `--name value`, `--name=value`, boolean flags (`--verbose`), and
// generates a usage text. Unknown arguments are errors (typos should not
// silently change an experiment).
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace omx {

class ArgParser {
 public:
  ArgParser(std::string program, std::string description);

  /// Boolean flag (false unless present).
  void add_flag(const std::string& name, const std::string& help);
  /// Valued option with a default.
  void add_option(const std::string& name, const std::string& default_value,
                  const std::string& help);

  /// Returns false on error (see error()); `--help` sets help_requested().
  bool parse(int argc, const char* const* argv);

  bool flag(const std::string& name) const;
  const std::string& get(const std::string& name) const;
  std::int64_t get_int(const std::string& name) const;
  /// Unsigned option that must fit T: a sign, trailing bytes or a value
  /// above T's maximum is a PreconditionError, like any bad value.
  template <class T>
  T get_uint(const std::string& name) const {
    return static_cast<T>(get_uint_upto(name, std::numeric_limits<T>::max()));
  }
  double get_double(const std::string& name) const;

  bool help_requested() const { return help_requested_; }
  const std::string& error() const { return error_; }
  std::string usage() const;

 private:
  std::uint64_t get_uint_upto(const std::string& name,
                              std::uint64_t max) const;

  struct Spec {
    std::string help;
    std::string default_value;
    bool is_flag = false;
  };

  std::string program_;
  std::string description_;
  std::vector<std::string> order_;
  std::map<std::string, Spec> specs_;
  std::map<std::string, std::string> values_;
  std::map<std::string, bool> flags_;
  std::string error_;
  bool help_requested_ = false;
};

}  // namespace omx
