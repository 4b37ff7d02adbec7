// Tiny command-line flag parser for the example binaries and bench tables.
// Supports --name=value and --name value, with typed accessors and defaults.
// Binaries that gate CI call check_flags() so a mistyped flag is an error
// rather than a silently ignored default.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rfd {

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  const std::string& program() const { return program_; }

  /// The first flag, in command-line order, not named in `known`; empty
  /// when every flag is known.
  std::string first_unknown(const std::vector<std::string>& known) const;

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> order_;  // flag names as given
  std::vector<std::string> positional_;
};

/// Strict flag gate for a binary: with --help, prints `usage` to stdout
/// and returns 0; with a flag not in `known`, names it on stderr and
/// returns 2; otherwise returns -1, meaning carry on.
int check_flags(const Cli& cli, const std::vector<std::string>& known,
                const char* usage);

}  // namespace rfd
