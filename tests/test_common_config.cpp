#include "common/config.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/exit_codes.hpp"

namespace sttgpu {
namespace {

Config parse(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return Config::from_args(static_cast<int>(args.size()), args.data());
}

TEST(Config, ParsesKeyValueArgs) {
  const Config cfg = parse({"scale=0.5", "benchmark=bfs", "verbose=true", "n=42"});
  EXPECT_DOUBLE_EQ(cfg.get_double("scale", 1.0), 0.5);
  EXPECT_EQ(cfg.get_string("benchmark", ""), "bfs");
  EXPECT_TRUE(cfg.get_bool("verbose", false));
  EXPECT_EQ(cfg.get_int("n", 0), 42);
}

TEST(Config, FallbacksWhenMissing) {
  const Config cfg = parse({});
  EXPECT_DOUBLE_EQ(cfg.get_double("scale", 0.25), 0.25);
  EXPECT_EQ(cfg.get_string("name", "dflt"), "dflt");
  EXPECT_FALSE(cfg.get_bool("flag", false));
  EXPECT_EQ(cfg.get_int("n", -1), -1);
}

TEST(Config, RejectsMalformedTokens) {
  EXPECT_THROW(parse({"noequals"}), SimError);
  EXPECT_THROW(parse({"=value"}), SimError);
}

TEST(Config, RejectsKeysOutsideTheGivenList) {
  std::vector<const char*> args = {"prog", "scale=0.5", "jobs=2"};
  const auto parse_with = [&](std::initializer_list<std::string_view> valid) {
    return Config::from_args(static_cast<int>(args.size()), args.data(), valid);
  };
  EXPECT_EQ(parse_with({"scale", "jobs"}).get_int("jobs", 0), 2);
  args[1] = "scael=0.05";
  try {
    parse_with({"scale", "jobs"});
    FAIL() << "a misspelled key was accepted";
  } catch (const UsageError& e) {
    EXPECT_STREQ(e.what(), "unknown knob 'scael'; valid knobs: scale jobs");
  }
  args.resize(1);
  EXPECT_NO_THROW(parse_with({}));
  args.push_back("n=1");
  EXPECT_THROW(parse_with({}), UsageError);
}

TEST(Config, RejectsBadTypes) {
  const Config cfg = parse({"n=abc", "d=1.2.3", "b=maybe"});
  EXPECT_THROW(cfg.get_int("n", 0), SimError);
  EXPECT_THROW(cfg.get_double("d", 0.0), SimError);
  EXPECT_THROW(cfg.get_bool("b", false), SimError);
}

TEST(Config, MainErrorHandlerMapsUsageAndOtherErrors) {
  const auto exit_code = [](const auto& body) {
    try {
      body();
    } catch (...) {
      return report_main_error();
    }
    return -1;
  };
  EXPECT_EQ(exit_code([] { throw UsageError("unknown knob"); }), kExitUsage);
  EXPECT_EQ(exit_code([] { throw SimError("not a number"); }), kExitError);
  EXPECT_EQ(exit_code([] { throw 7; }), kExitError);
}

TEST(Config, BooleanSpellings) {
  const Config cfg = parse({"a=1", "b=0", "c=yes", "d=off", "e=true", "f=no"});
  EXPECT_TRUE(cfg.get_bool("a", false));
  EXPECT_FALSE(cfg.get_bool("b", true));
  EXPECT_TRUE(cfg.get_bool("c", false));
  EXPECT_FALSE(cfg.get_bool("d", true));
  EXPECT_TRUE(cfg.get_bool("e", false));
  EXPECT_FALSE(cfg.get_bool("f", true));
}

TEST(Config, HasAndSet) {
  Config cfg;
  EXPECT_FALSE(cfg.has("k"));
  cfg.set("k", "v");
  EXPECT_TRUE(cfg.has("k"));
  EXPECT_EQ(cfg.get_string("k", ""), "v");
}

TEST(Config, HexIntegers) {
  const Config cfg = parse({"addr=0x100"});
  EXPECT_EQ(cfg.get_int("addr", 0), 256);
}

}  // namespace
}  // namespace sttgpu
