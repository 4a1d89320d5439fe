// A tiny string-keyed configuration store with typed getters.
//
// Benches and examples accept "key=value" command-line overrides; this class
// parses them and hands typed values to the experiment builders.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sttgpu {

class Config {
 public:
  Config() = default;

  /// Parses argv-style "key=value" tokens; a token of another shape throws
  /// SimError. Any key is accepted: `sttgpu` checks its keys against its
  /// knob registry.
  static Config from_args(int argc, const char* const* argv);

  /// As above, and throws UsageError naming the @p valid keys if a token's
  /// key is not one of them, so a misspelled knob fails instead of running
  /// at its default. Benches and examples pass the keys their main reads.
  static Config from_args(int argc, const char* const* argv,
                          std::initializer_list<std::string_view> valid);

  void set(const std::string& key, const std::string& value) { values_[key] = value; }

  bool has(const std::string& key) const { return values_.count(key) != 0; }

  std::string get_string(const std::string& key, const std::string& fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  const std::map<std::string, std::string>& all() const noexcept { return values_; }

 private:
  std::map<std::string, std::string> values_;
};

/// The handler of a bench or example main's function-try-block,
/// `int main(...) try { ... } catch (...) { return report_main_error(); }`:
/// prints one "error: <what>" line for the exception in flight, as `sttgpu`
/// does, and returns kExitUsage for a UsageError and kExitError otherwise.
int report_main_error() noexcept;

}  // namespace sttgpu
