#include "support/cli.h"

#include <cstdlib>
#include <sstream>

#include "support/check.h"
#include "support/parse_number.h"

namespace omx {

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void ArgParser::add_flag(const std::string& name, const std::string& help) {
  OMX_REQUIRE(!specs_.count(name), "duplicate argument: " + name);
  specs_[name] = Spec{help, "", true};
  order_.push_back(name);
  flags_[name] = false;
}

void ArgParser::add_option(const std::string& name,
                           const std::string& default_value,
                           const std::string& help) {
  OMX_REQUIRE(!specs_.count(name), "duplicate argument: " + name);
  specs_[name] = Spec{help, default_value, false};
  order_.push_back(name);
  values_[name] = default_value;
}

bool ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      return true;
    }
    if (arg.rfind("--", 0) != 0) {
      error_ = "unexpected positional argument: " + arg;
      return false;
    }
    arg = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    const auto it = specs_.find(arg);
    if (it == specs_.end()) {
      error_ = "unknown argument: --" + arg;
      return false;
    }
    if (it->second.is_flag) {
      if (has_value) {
        error_ = "flag --" + arg + " does not take a value";
        return false;
      }
      flags_[arg] = true;
      continue;
    }
    if (!has_value) {
      if (i + 1 >= argc) {
        error_ = "missing value for --" + arg;
        return false;
      }
      value = argv[++i];
    }
    values_[arg] = value;
  }
  return true;
}

bool ArgParser::flag(const std::string& name) const {
  const auto it = flags_.find(name);
  OMX_REQUIRE(it != flags_.end(), "not a declared flag: " + name);
  return it->second;
}

const std::string& ArgParser::get(const std::string& name) const {
  const auto it = values_.find(name);
  OMX_REQUIRE(it != values_.end(), "not a declared option: " + name);
  return it->second;
}

std::int64_t ArgParser::get_int(const std::string& name) const {
  const std::string& v = get(name);
  char* end = nullptr;
  const long long parsed = std::strtoll(v.c_str(), &end, 10);
  OMX_REQUIRE(end != v.c_str() && *end == '\0',
              "--" + name + " expects an integer, got '" + v + "'");
  return parsed;
}

std::uint64_t ArgParser::get_uint_upto(const std::string& name,
                                       std::uint64_t max) const {
  const std::string& v = get(name);
  std::uint64_t parsed = 0;
  OMX_REQUIRE(parse_number(v, &parsed) && parsed <= max,
              "--" + name + " expects an integer from 0 to " +
                  std::to_string(max) + ", got '" + v + "'");
  return parsed;
}

double ArgParser::get_double(const std::string& name) const {
  const std::string& v = get(name);
  char* end = nullptr;
  const double parsed = std::strtod(v.c_str(), &end);
  OMX_REQUIRE(end != v.c_str() && *end == '\0',
              "--" + name + " expects a number, got '" + v + "'");
  return parsed;
}

std::string ArgParser::usage() const {
  std::ostringstream os;
  os << program_ << " — " << description_ << "\n\noptions:\n";
  for (const auto& name : order_) {
    const Spec& spec = specs_.at(name);
    os << "  --" << name;
    if (!spec.is_flag) os << " <value>";
    os << "\n      " << spec.help;
    if (!spec.is_flag && !spec.default_value.empty()) {
      os << " (default: " << spec.default_value << ")";
    }
    os << "\n";
  }
  os << "  --help\n      print this message\n";
  return os.str();
}

}  // namespace omx
