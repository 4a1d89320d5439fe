// serve-closed: an in-process SweepServer (default options, jobs=2) and one
// closed-loop client that keeps at most one connection open. The client
// submits each of the 80 Fig. 8 configs at scale 0.05 and watches it until
// "complete" (cold: every config simulates), then resubmits all 80 (warm:
// every config is a store hit). The seed shuffles the submission order.
//
// Simulation is small at this scale, so a cold submission is dominated by
// service overhead: admission, the journal, the sandbox fork and heartbeat,
// store put and fsync, CSV export.
#include <algorithm>
#include <cmath>
#include <memory>
#include <random>
#include <sstream>

#include "common/json.hpp"
#include "layers.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "store/record.hpp"
#include "workload/benchmarks.hpp"

namespace e2e {

namespace serve = sttgpu::serve;
namespace sim = sttgpu::sim;
namespace store = sttgpu::store;
namespace workload = sttgpu::workload;
using sttgpu::JsonValue;
using sttgpu::JsonWriter;

namespace {

constexpr double kScale = 0.05;
constexpr char kScaleText[] = "0.05";

struct Cell {
  sim::Architecture arch;
  std::string arch_name;
  std::string bench;
};

std::vector<Cell> cells(std::uint64_t seed, bool quick) {
  std::vector<sim::Architecture> archs = sim::all_architectures();
  std::vector<std::string> benches = workload::benchmark_names();
  if (quick) {
    archs = {sim::Architecture::kSramBaseline, sim::Architecture::kC1};
    benches = {"bfs", "nw"};
  }
  std::vector<Cell> out;
  for (const sim::Architecture a : archs) {
    for (const std::string& b : benches) out.push_back({a, sim::make_arch(a).name, b});
  }
  std::mt19937_64 rng(seed);
  std::shuffle(out.begin(), out.end(), rng);
  return out;
}

std::string submit_request(const Cell& c) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.key("protocol_version").value(serve::kProtocolVersion);
  w.key("verb").value("submit");
  w.key("options").begin_object();
  w.key("archs").value(c.arch_name);
  w.key("benchmarks").value(c.bench);
  w.key("scale").value(kScaleText);
  w.end_object();
  w.end_object();
  return os.str();
}

std::string watch_request(std::int64_t id) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.key("protocol_version").value(serve::kProtocolVersion);
  w.key("verb").value("watch");
  w.key("id").value(id);
  w.end_object();
  return os.str();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// One submission as the client saw it: event arrival times relative to the
/// submit call (NaN for events that never came) and the decoded outcome.
struct Submission {
  double ack_ms = 0.0, start_ms = NAN, done_ms = NAN, complete_ms = 0.0;
  std::int64_t hits = 0, scheduled = 0;
  bool complete = false;
  std::string row;  ///< the store put-record line of a "done" event
};

Submission submit_and_watch(const std::string& socket, const Cell& c) {
  Submission s;
  const auto t0 = Clock::now();
  const JsonValue ack = serve::Client::connect(socket).request(submit_request(c));
  s.ack_ms = ms_between(t0, Clock::now());
  s.hits = ack.at("hits").as_int();
  s.scheduled = ack.at("scheduled").as_int();
  const JsonValue fin = serve::Client::connect(socket).stream(
      watch_request(ack.at("id").as_int()), [&](const std::string&, const JsonValue& ev) {
        const std::string& kind = ev.at("event").as_string();
        if (kind == "start") {
          s.start_ms = ms_between(t0, Clock::now());
        } else if (kind == "done") {
          s.done_ms = ms_between(t0, Clock::now());
          s.row = ev.at("row").as_string();
        }
      });
  s.complete_ms = ms_between(t0, Clock::now());
  s.complete = fin.at("state").as_string() == "complete";
  return s;
}

/// A fresh store and a started server; the server is declared last so it
/// stops (draining its workers and sandbox children) before the directory
/// goes away.
struct Service {
  std::unique_ptr<ScratchDir> dir;
  std::unique_ptr<serve::SweepServer> server;
};

struct Pass {
  std::vector<Submission> cold, warm;
  double wall_s = 0.0;
};

Pass closed_loop(const std::string& socket, const std::vector<Cell>& order) {
  Pass p;
  const auto t0 = Clock::now();
  for (const Cell& c : order) p.cold.push_back(submit_and_watch(socket, c));
  for (const Cell& c : order) p.warm.push_back(submit_and_watch(socket, c));
  p.wall_s = seconds_since(t0);
  return p;
}

/// The direct in-process run of each cell, as the put-record line the
/// service must return for it.
struct Direct {
  std::vector<std::string> rows;
  std::vector<double> ms;
  std::vector<sim::Metrics> metrics;
};

Direct direct_runs(const std::vector<Cell>& order, Layers* layers) {
  Direct d;
  const std::uint64_t fp = sim::config_fingerprint();
  for (const Cell& c : order) {
    const sim::ArchSpec spec = sim::make_arch(c.arch);
    const workload::Workload w = workload::make_benchmark(c.bench, kScale);
    sttgpu::gpu::RunResult run;
    sim::Metrics m;
    d.ms.push_back(time_s([&] { m = sim::run_one_detailed(spec, w, run); }) * 1e3);
    d.rows.push_back(store::encode_put(fp, kScale, sim::to_store_row(m)));
    d.metrics.push_back(m);
    if (layers != nullptr) layers->add_model(run);
  }
  return d;
}

void check(Report& report, const Pass& p, const Direct& direct) {
  report.ops(p.cold.size() + p.warm.size());
  for (std::size_t i = 0; i < p.cold.size(); ++i) {
    const Submission& s = p.cold[i];
    report.gate("cold submission simulated once; its row equals a direct run_one",
                s.complete && s.scheduled == 1 && s.row == direct.rows[i]);
  }
  for (const Submission& s : p.warm) {
    report.gate("warm resubmission is 1 store hit, 0 scheduled",
                s.complete && s.hits == 1 && s.scheduled == 0);
  }
}

}  // namespace

Report run_serve_closed(const Args& args) {
  Report report;
  const std::vector<Cell> order = cells(args.seed, args.quick);
  Passes p;
  const auto setup = [&] {
    const auto t0 = Clock::now();
    Service svc;
    svc.dir = std::make_unique<ScratchDir>("serve");
    serve::ServerOptions so;
    so.socket_path = svc.dir->file("s.sock");
    so.cache_path = svc.dir->file("fig8.csv");
    so.jobs = 2;
    svc.server = std::make_unique<serve::SweepServer>(std::move(so));
    svc.server->start();
    p.setup_s.push_back(seconds_since(t0));
    return svc;
  };

  if (args.trace) {
    while (p.setup_s.size() < kSetupReps) setup();
    Layers layers;
    const Direct direct = direct_runs(order, &layers);
    const Service svc = setup();
    const Pass pass = closed_loop(svc.server->socket_path(), order);
    check(report, pass, direct);

    std::vector<double> admit, queue, task, finish, overhead, hit_admit, hit;
    for (std::size_t i = 0; i < pass.cold.size(); ++i) {
      const Submission& s = pass.cold[i];
      admit.push_back(s.ack_ms);
      queue.push_back(s.start_ms - s.ack_ms);
      task.push_back(s.done_ms - s.start_ms);
      finish.push_back(s.complete_ms - s.done_ms);
      overhead.push_back(s.done_ms - s.start_ms - direct.ms[i]);
    }
    for (const Submission& s : pass.warm) {
      hit_admit.push_back(s.ack_ms);
      hit.push_back(s.complete_ms);
    }
    layers.serve_start_ms = median(p.setup_s) * 1e3;
    layers.admit_ms = median(admit);
    layers.queue_ms = median(queue);
    layers.task_ms = median(task);
    layers.sim_ms = median(direct.ms);
    layers.task_overhead_ms = median(overhead);
    layers.finish_ms = median(finish);
    layers.hit_admit_ms = median(hit_admit);
    layers.hit_p50_ms = median(hit);
    layers.hit_tail_ms = tail(hit);
    double sim_s = 0.0;
    for (const double ms : direct.ms) sim_s += ms * 1e-3;
    layers.sim_mcycles_per_s = static_cast<double>(layers.cycles) * 1e-6 / sim_s;
    layers.paper_err = paper_error(direct.metrics);
    // The client-side timestamps are the whole trace, and the untraced run
    // takes them too: tracing adds nothing to time.
    layers.trace_overhead = 0.0;
    layers.emit(report);
    return report;
  }

  const Direct direct = direct_runs(order, nullptr);
  const auto start = Clock::now();
  do {
    const Service svc = setup();
    const Pass pass = closed_loop(svc.server->socket_path(), order);
    std::vector<double> cold_ms;
    for (const Submission& s : pass.cold) cold_ms.push_back(s.complete_ms);
    p.add(pass.wall_s, cold_ms);
    check(report, pass, direct);
  } while (p.another(start, args.seconds));
  while (p.setup_s.size() < kSetupReps) setup();
  p.emit(report);
  return report;
}

}  // namespace e2e
