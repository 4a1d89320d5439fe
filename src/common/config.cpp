#include "common/config.hpp"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <iostream>

#include "common/error.hpp"
#include "common/exit_codes.hpp"

namespace sttgpu {

Config Config::from_args(int argc, const char* const* argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    const auto eq = token.find('=');
    STTGPU_REQUIRE(eq != std::string::npos && eq > 0,
                   "expected key=value argument, got: " + token);
    cfg.set(token.substr(0, eq), token.substr(eq + 1));
  }
  return cfg;
}

Config Config::from_args(int argc, const char* const* argv,
                         std::initializer_list<std::string_view> valid) {
  Config cfg = from_args(argc, argv);
  for (const auto& [key, value] : cfg.values_) {
    if (std::find(valid.begin(), valid.end(), key) != valid.end()) continue;
    std::string msg = "unknown knob '" + key + "'; valid knobs:";
    for (const std::string_view v : valid) (msg += ' ') += v;
    throw UsageError(valid.size() == 0 ? msg + " none" : msg);
  }
  return cfg;
}

std::string Config::get_string(const std::string& key, const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Config::get_int(const std::string& key, std::int64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const std::int64_t v = std::strtoll(it->second.c_str(), &end, 0);
  STTGPU_REQUIRE(end && *end == '\0', "config value for '" + key + "' is not an integer");
  return v;
}

double Config::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  STTGPU_REQUIRE(end && *end == '\0', "config value for '" + key + "' is not a number");
  return v;
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  throw SimError("config value for '" + key + "' is not a boolean: " + v);
}

int report_main_error() noexcept {
  try {
    throw;
  } catch (const UsageError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return kExitUsage;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
  } catch (...) {
    std::cerr << "error: unknown exception\n";
  }
  return kExitError;
}

}  // namespace sttgpu
