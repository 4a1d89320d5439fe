// Declarative knob registry for the sttgpu CLI.
//
// Every key=value knob any subcommand accepts is declared exactly once in
// knob_registry(): name, type, default, one-line help, and the subcommands
// it applies to. The registry replaces the hand-written valid-knob lists
// that tools/sttgpu.cpp used to repeat per command — parsing, typo
// rejection, type validation, default resolution, and the usage text are
// all generated from the same table, so they can never drift apart.
//
// A knob whose default differs per subcommand (e.g. `arch`: C1 for
// run/replay, sram for record) appears as multiple rows with disjoint
// command masks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "sim/runner.hpp"
#include "sttl2/config.hpp"

namespace sttgpu {
class JsonValue;
class JsonWriter;
}  // namespace sttgpu

namespace sttgpu::sim {

/// Bitmask of CLI subcommands a knob applies to. The sweep-service verbs
/// (serve and its clients) are commands like any other: their wire-protocol
/// request fields validate against the same registry rows as the CLI knobs.
enum KnobCommand : unsigned {
  kKnobRun = 1u << 0,
  kKnobMatrix = 1u << 1,
  kKnobRecord = 1u << 2,
  kKnobReplay = 1u << 3,
  kKnobStore = 1u << 4,
  kKnobServe = 1u << 5,
  kKnobSubmit = 1u << 6,
  kKnobStatus = 1u << 7,
  kKnobWatch = 1u << 8,
  kKnobCancel = 1u << 9,
  kKnobResult = 1u << 10,
  kKnobHealth = 1u << 11,
};

struct KnobSpec {
  const char* name;
  enum class Type { kBool, kInt, kDouble, kString } type;
  const char* def;    ///< default, spelled as it would be typed (may be "")
  const char* help;   ///< one-line description for the generated usage text
  unsigned commands;  ///< bitmask of KnobCommand values
};

/// The full knob table, in usage-text order.
const std::vector<KnobSpec>& knob_registry();

/// Rejects unknown keys and unparseable values for @p command: every key in
/// @p cfg must name a registry knob whose mask includes @p command, and its
/// value must parse as the declared type. Throws SimError naming the bad
/// knob and listing the valid ones for @p command_name.
void validate_knobs(const Config& cfg, KnobCommand command, const std::string& command_name);

/// Typed getters that resolve the default from the registry row matching
/// (@p name, @p command). Asserts the knob exists with the declared type —
/// a mismatch is a programming error, not user input.
std::string knob_string(const Config& cfg, KnobCommand command, const std::string& name);
std::int64_t knob_int(const Config& cfg, KnobCommand command, const std::string& name);
double knob_double(const Config& cfg, KnobCommand command, const std::string& name);
bool knob_bool(const Config& cfg, KnobCommand command, const std::string& name);

/// Usage text generated from the registry: one block per subcommand listing
/// its knobs with type, default, and help.
std::string knob_usage();

/// Builds the fault-injection config from the faults/fault_seed/
/// fault_accel/ecc knobs (registry defaults: injection disabled).
sttl2::FaultInjectionConfig fault_knobs(const Config& cfg, KnobCommand command);

// --- RunOptions <-> JSON, built on the registry -----------------------------
//
// The wire protocol and the CLI share one definition of every simulation-
// shaping knob: a submit request's "options" object is converted to a
// Config (config_from_json), validated against the registry exactly like
// argv knobs (validate_knobs), and resolved into RunOptions with the same
// defaults the CLI applies (run_options_from_knobs). A config submitted
// over the socket therefore can never parse, default, or validate
// differently from the same config typed at the shell.

/// Converts a flat JSON object into a string-keyed Config: booleans become
/// "1"/"0", numbers keep their raw source text (no reformatting), strings
/// pass through. Nested arrays/objects and null are rejected with SimError.
Config config_from_json(const JsonValue& obj);

/// Resolves the simulation-shaping RunOptions fields — scale, fastforward
/// and the fault knobs — from @p cfg using the registry
/// defaults for @p command. Knobs outside @p command's mask keep their
/// RunOptions defaults. Orchestration knobs (cache/jobs/job_timeout/...) are
/// intentionally not resolved here; they belong to the caller.
RunOptions run_options_from_knobs(const Config& cfg, KnobCommand command);

/// Serializes those same fields as one JSON object keyed by knob names —
/// the inverse of run_options_from_knobs (round-trip exact: numbers are
/// written at max_digits10).
void run_options_to_json(JsonWriter& w, const RunOptions& opts);

}  // namespace sttgpu::sim
