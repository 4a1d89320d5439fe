#include "sim/knobs.hpp"

#include <iomanip>
#include <limits>
#include <sstream>

#include "common/error.hpp"
#include "common/json.hpp"

namespace sttgpu::sim {

namespace {

using Type = KnobSpec::Type;

constexpr unsigned kRunMatrix = kKnobRun | kKnobMatrix;
constexpr unsigned kRunRecord = kKnobRun | kKnobRecord;
constexpr unsigned kRunMatrixRecord = kKnobRun | kKnobMatrix | kKnobRecord;
// Simulation-shaping knobs a submit request shares with run/matrix.
constexpr unsigned kRunMatrixSubmit = kKnobRun | kKnobMatrix | kKnobSubmit;
constexpr unsigned kRunMatrixRecordSubmit = kRunMatrixRecord | kKnobSubmit;
// Every verb that talks to a running sweep service.
constexpr unsigned kClientVerbs =
    kKnobSubmit | kKnobStatus | kKnobWatch | kKnobCancel | kKnobResult | kKnobHealth;

const char* type_name(Type t) {
  switch (t) {
    case Type::kBool: return "bool";
    case Type::kInt: return "int";
    case Type::kDouble: return "float";
    case Type::kString: return "string";
  }
  return "?";
}

const char* command_name(KnobCommand c) {
  switch (c) {
    case kKnobRun: return "run";
    case kKnobMatrix: return "matrix";
    case kKnobRecord: return "record";
    case kKnobReplay: return "replay";
    case kKnobStore: return "store";
    case kKnobServe: return "serve";
    case kKnobSubmit: return "submit";
    case kKnobStatus: return "status";
    case kKnobWatch: return "watch";
    case kKnobCancel: return "cancel";
    case kKnobResult: return "result";
    case kKnobHealth: return "health";
  }
  return "?";
}

}  // namespace

const std::vector<KnobSpec>& knob_registry() {
  static const std::vector<KnobSpec> kKnobs = {
      {"arch", Type::kString, "C1", "architecture (sram|stt-base|C1|C2|C3)",
       kKnobRun | kKnobReplay | kKnobResult},
      {"arch", Type::kString, "sram", "architecture to record under", kKnobRecord},
      {"benchmark", Type::kString, "bfs", "benchmark model (see `sttgpu list`)",
       kRunRecord | kKnobResult},
      {"scale", Type::kDouble, "0.5", "workload scale in (0, 1]",
       kRunMatrixRecord | kKnobSubmit | kKnobResult},
      {"json", Type::kString, "", "write the result as JSON to this path",
       kRunMatrix | kKnobSubmit},
      {"cache", Type::kString, "fig8_cache.csv", "matrix result cache (empty disables)",
       kKnobMatrix},
      {"cache", Type::kString, "fig8_cache.csv",
       "result cache the service dedupes against and re-exports", kKnobServe},
      {"jobs", Type::kInt, "0", "worker threads (0 = all hardware threads)",
       kKnobMatrix | kKnobServe},
      {"watchdog", Type::kDouble, "0",
       "kill a task whose sandbox worker's heartbeat stops for this many seconds (0 = off)",
       kKnobServe},
      {"job_timeout", Type::kDouble, "0",
       "per-job wall-clock budget in seconds (0 = unlimited)", kKnobMatrix | kKnobServe},
      {"retry", Type::kInt, "0", "extra attempts for a job that fails transiently",
       kKnobMatrix | kKnobServe},
      {"keep_going", Type::kBool, "0",
       "quarantine failing jobs and report a manifest instead of failing fast",
       kKnobMatrix},
      {"mem_limit", Type::kInt, "0",
       "address-space limit per sandbox worker process, in MiB (0 = unlimited)",
       kKnobServe},
      {"store", Type::kString, "fig8_cache.store",
       "result store path (WAL log; sidecars <store>.lock / <store>.quarantine)",
       kKnobStore},
      {"socket", Type::kString, "sttgpu.sock",
       "unix socket the sweep service listens on / clients connect to",
       kKnobServe | kClientVerbs},
      {"archs", Type::kString, "",
       "comma-separated architecture subset to submit (empty = all)", kKnobSubmit},
      {"benchmarks", Type::kString, "",
       "comma-separated benchmark subset to submit (empty = all)", kKnobSubmit},
      {"wait", Type::kBool, "1",
       "block until the submission completes and print the result rows", kKnobSubmit},
      {"id", Type::kInt, "0",
       "submission id (status: 0 = whole-server stats; result: 0 = look up by "
       "arch/benchmark/scale)",
       kKnobStatus | kKnobWatch | kKnobCancel | kKnobResult},
      {"trace", Type::kString, "l2.trace", "L2 demand-stream trace path",
       kKnobRecord | kKnobReplay},
      {"fastforward", Type::kBool, "1",
       "event-driven stepping with idle-cycle skip (0 = plain per-cycle reference "
       "loop); results are identical either way",
       kRunMatrixRecordSubmit},
      {"faults", Type::kBool, "0", "seeded STT-RAM retention/write-failure injector",
       kRunMatrixSubmit},
      {"fault_seed", Type::kInt, "42", "fault injector RNG seed", kRunMatrixSubmit},
      {"fault_accel", Type::kDouble, "1", "error-rate acceleration factor",
       kRunMatrixSubmit},
      {"ecc", Type::kBool, "1", "SECDED recovery on collapsed lines", kRunMatrixSubmit},
      {"telemetry", Type::kBool, "0", "per-interval telemetry sampling (observational)",
       kRunRecord | kKnobSubmit},
      {"interval", Type::kInt, "50000", "telemetry sampling window in cycles",
       kRunRecord | kKnobSubmit},
      {"trace_out", Type::kString, "", "write a Chrome trace-event JSON (Perfetto-loadable)",
       kRunRecord},
      {"telemetry_csv", Type::kString, "", "write the interval series as CSV", kRunRecord},
  };
  return kKnobs;
}

namespace {

const KnobSpec* find_knob(KnobCommand command, const std::string& name) {
  for (const KnobSpec& k : knob_registry()) {
    if ((k.commands & command) != 0 && name == k.name) return &k;
  }
  return nullptr;
}

const KnobSpec& require_knob(KnobCommand command, const std::string& name, Type type) {
  const KnobSpec* k = find_knob(command, name);
  STTGPU_ASSERT(k != nullptr);
  STTGPU_ASSERT(k->type == type);
  return *k;
}

}  // namespace

void validate_knobs(const Config& cfg, KnobCommand command, const std::string& cmd_name) {
  for (const auto& [key, value] : cfg.all()) {
    const KnobSpec* k = find_knob(command, key);
    if (k == nullptr) {
      std::string msg =
          "unknown knob '" + key + "' for 'sttgpu " + cmd_name + "'; valid knobs:";
      for (const KnobSpec& spec : knob_registry()) {
        if ((spec.commands & command) != 0) {
          msg += ' ';
          msg += spec.name;
        }
      }
      throw UsageError(msg);
    }
    // Force a parse so a bad value fails here, before any simulation runs.
    switch (k->type) {
      case Type::kBool: cfg.get_bool(key, false); break;
      case Type::kInt: cfg.get_int(key, 0); break;
      case Type::kDouble: cfg.get_double(key, 0.0); break;
      case Type::kString: break;
    }
  }
}

std::string knob_string(const Config& cfg, KnobCommand command, const std::string& name) {
  return cfg.get_string(name, require_knob(command, name, Type::kString).def);
}

std::int64_t knob_int(const Config& cfg, KnobCommand command, const std::string& name) {
  const KnobSpec& k = require_knob(command, name, Type::kInt);
  return cfg.get_int(name, std::strtoll(k.def, nullptr, 0));
}

double knob_double(const Config& cfg, KnobCommand command, const std::string& name) {
  const KnobSpec& k = require_knob(command, name, Type::kDouble);
  return cfg.get_double(name, std::strtod(k.def, nullptr));
}

bool knob_bool(const Config& cfg, KnobCommand command, const std::string& name) {
  const KnobSpec& k = require_knob(command, name, Type::kBool);
  return cfg.get_bool(name, k.def[0] == '1');
}

std::string knob_usage() {
  std::ostringstream os;
  os << "usage: sttgpu <list|run|matrix|record|replay|store|serve|submit|status|"
        "watch|cancel|result|health|help> [key=value ...]\n"
        "       sttgpu store <fsck|compact|stats> [store=<path>]\n"
        "       sttgpu serve socket=<path> [cache=<csv>] [jobs=N]\n";
  for (const KnobCommand cmd :
       {kKnobRun, kKnobMatrix, kKnobRecord, kKnobReplay, kKnobStore, kKnobServe,
        kKnobSubmit, kKnobStatus, kKnobWatch, kKnobCancel, kKnobResult, kKnobHealth}) {
    os << "  " << command_name(cmd) << ":\n";
    for (const KnobSpec& k : knob_registry()) {
      if ((k.commands & cmd) == 0) continue;
      os << "    " << k.name << "=<" << type_name(k.type) << ">";
      if (k.def[0] != '\0') os << " (default " << k.def << ")";
      os << "  " << k.help << "\n";
    }
  }
  os << "  unknown or unparseable key=value knobs are rejected with the valid list\n"
        "  for the command. See EXPERIMENTS.md for fault-injection and telemetry\n"
        "  recipes.\n";
  return os.str();
}

sttl2::FaultInjectionConfig fault_knobs(const Config& cfg, KnobCommand command) {
  sttl2::FaultInjectionConfig f;
  f.enabled = knob_bool(cfg, command, "faults");
  f.seed = static_cast<std::uint64_t>(knob_int(cfg, command, "fault_seed"));
  f.accel = knob_double(cfg, command, "fault_accel");
  f.ecc = knob_bool(cfg, command, "ecc");
  return f;
}

Config config_from_json(const JsonValue& obj) {
  STTGPU_REQUIRE(obj.is_object(), "options must be a JSON object of knob values");
  Config cfg;
  for (const auto& [key, value] : obj.members()) {
    switch (value.kind()) {
      case JsonValue::Kind::kBool: cfg.set(key, value.as_bool() ? "1" : "0"); break;
      // Raw source text, not a re-formatted double: "0.05" submitted over
      // the wire is the same token the CLI would have parsed from argv.
      case JsonValue::Kind::kNumber: cfg.set(key, value.raw_number()); break;
      case JsonValue::Kind::kString: cfg.set(key, value.as_string()); break;
      default:
        throw SimError("knob '" + key + "' must be a scalar, got " +
                       JsonValue::kind_name(value.kind()));
    }
  }
  return cfg;
}

RunOptions run_options_from_knobs(const Config& cfg, KnobCommand command) {
  RunOptions opts;
  // Only resolve knobs the command's mask declares; the rest keep their
  // RunOptions defaults (e.g. record has no fault knobs).
  if (find_knob(command, "scale") != nullptr) {
    opts.scale = knob_double(cfg, command, "scale");
    STTGPU_REQUIRE(opts.scale > 0.0 && opts.scale <= 1.0, "scale= must be in (0, 1]");
  }
  if (find_knob(command, "fastforward") != nullptr) {
    opts.fast_forward = knob_bool(cfg, command, "fastforward");
  }
  if (find_knob(command, "faults") != nullptr) {
    opts.faults = fault_knobs(cfg, command);
  }
  return opts;
}

void run_options_to_json(JsonWriter& w, const RunOptions& opts) {
  // max_digits10 so scale/accel round-trip exactly through the wire.
  std::ostringstream scale, accel;
  scale << std::setprecision(std::numeric_limits<double>::max_digits10) << opts.scale;
  accel << std::setprecision(std::numeric_limits<double>::max_digits10)
        << opts.faults.accel;
  w.begin_object();
  // Raw number tokens: route through Config-style strings so the receiving
  // side's strtod sees the identical text.
  w.key("scale").value(scale.str());
  w.key("fastforward").value(opts.fast_forward);
  w.key("faults").value(opts.faults.enabled);
  w.key("fault_seed").value(static_cast<std::uint64_t>(opts.faults.seed));
  w.key("fault_accel").value(accel.str());
  w.key("ecc").value(opts.faults.ecc);
  w.end_object();
}

}  // namespace sttgpu::sim
