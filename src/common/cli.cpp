#include "common/cli.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/assert.hpp"

namespace rfd {

Cli::Cli(int argc, const char* const* argv) {
  RFD_REQUIRE(argc >= 1);
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string name = arg.substr(2);
    std::string value = "true";
    const auto eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name.resize(eq);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      value = argv[++i];
    }
    order_.push_back(name);
    flags_[name] = value;
  }
}

std::string Cli::first_unknown(const std::vector<std::string>& known) const {
  for (const std::string& name : order_) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      return name;
    }
  }
  return "";
}

int check_flags(const Cli& cli, const std::vector<std::string>& known,
                const char* usage) {
  if (cli.has("help")) {
    std::fputs(usage, stdout);
    return 0;
  }
  const std::string unknown = cli.first_unknown(known);
  if (unknown.empty()) return -1;
  std::fprintf(stderr, "%s: unknown flag --%s (see --help)\n",
               cli.program().c_str(), unknown.c_str());
  return 2;
}

bool Cli::has(const std::string& name) const { return flags_.count(name) > 0; }

std::string Cli::get(const std::string& name,
                     const std::string& fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

std::int64_t Cli::get_int(const std::string& name,
                          std::int64_t fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return std::strtoll(it->second.c_str(), nullptr, 10);
}

double Cli::get_double(const std::string& name, double fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return std::strtod(it->second.c_str(), nullptr);
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

}  // namespace rfd
