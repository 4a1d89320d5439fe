// fig8-cold and fig8-warm: the Fig. 8 matrix (5 architectures x 16
// benchmarks at scale 0.5, jobs=1) through sim::run_matrix, once against an
// empty store and once against a store migrated from the checked-in CSV.
//
// Both gate on the checked-in fig8_cache.csv, read at run time: the cold
// export must equal it byte for byte, and the warm matrix must simulate no
// row and leave the export byte-identical.
#include <algorithm>
#include <filesystem>
#include <functional>
#include <memory>

#include "layers.hpp"
#include "sim/arch.hpp"
#include "sim/runner.hpp"
#include "store/csv_format.hpp"
#include "store/result_store.hpp"
#include "workload/benchmarks.hpp"

namespace e2e {

namespace sim = sttgpu::sim;
namespace store = sttgpu::store;
namespace workload = sttgpu::workload;

namespace {

/// Matrix calls per fig8-warm pass (and per traced pass).
constexpr std::size_t kWarmCalls = 1000;
constexpr std::size_t kQuickWarmCalls = 20;

struct Slice {
  std::vector<sim::Architecture> archs;
  std::vector<std::string> benchmarks;
  double scale = 0.5;

  std::vector<sim::Metrics> matrix(const std::string& csv) const {
    return sim::run_matrix(archs, benchmarks, {.scale = scale, .cache_path = csv, .jobs = 1});
  }
};

/// The checked-in matrix; quick runs shrink the cold matrix to a corner of
/// it at a tenth of the scale.
Slice slice(bool quick) {
  if (quick) {
    return {{sim::Architecture::kSramBaseline, sim::Architecture::kC1}, {"bfs", "nw"}, 0.05};
  }
  return {sim::all_architectures(), workload::benchmark_names(), 0.5};
}

/// What run_matrix does for a cold slice, as public calls: per row
/// make_benchmark, a Gpu over the bank factory, run, ResultStore::put; then
/// refresh, rows_for and save_cache. With @p layers every step is timed.
struct Replica {
  std::vector<sim::Metrics> rows;
  std::vector<sttgpu::gpu::RunResult> runs;
  double wall_s = 0.0;
  double sim_s = 0.0;
  std::string csv;
};

Replica replicate_cold(const Slice& s, const ScratchDir& dir, Layers* layers) {
  Replica out;
  const std::string csv = dir.file("fig8.csv");
  const auto t_pass = Clock::now();
  std::uint64_t fp = 0;
  const double fp_s = time_s([&] { fp = sim::config_fingerprint(); });
  std::unique_ptr<store::ResultStore> db;
  const double open_s = time_s([&] {
    db = std::make_unique<store::ResultStore>(store::ResultStore::derive_path(csv));
  });
  for (const sim::Architecture a : s.archs) {
    const sim::ArchSpec spec = sim::make_arch(a);
    for (const std::string& name : s.benchmarks) {
      workload::Workload w;
      const double build_s = time_s([&] { w = workload::make_benchmark(name, s.scale); });
      const auto t_sim = Clock::now();
      out.runs.push_back(simulate(spec, w, layers));
      out.sim_s += seconds_since(t_sim);
      out.rows.push_back(metrics_of(spec, w, out.runs.back()));
      const double put_s =
          time_s([&] { db->put(fp, s.scale, sim::to_store_row(out.rows.back())); });
      if (layers != nullptr) {
        layers->build_s += build_s;
        layers->put_ms.push_back(put_s * 1e3);
      }
    }
  }
  std::vector<store::ResultRow> stored;
  const double refresh_s = time_s([&] { db->refresh(); });
  const double rows_for_s = time_s([&] { stored = db->rows_for(fp, s.scale); });
  const double export_s = time_s([&] {
    std::vector<sim::Metrics> all;
    for (const store::ResultRow& r : stored) all.push_back(sim::from_store_row(r));
    sim::save_cache(csv, s.scale, all);
  });
  db.reset();
  out.wall_s = seconds_since(t_pass);
  if (layers != nullptr) {
    layers->fingerprint_ms = fp_s * 1e3;
    layers->open_ms = open_s * 1e3;
    layers->refresh_ms = refresh_s * 1e3;
    layers->rows_for_ms = rows_for_s * 1e3;
    layers->csv_export_ms = export_s * 1e3;
  }
  out.csv = read_file(csv);
  return out;
}

/// The export a cold slice must produce: the checked-in CSV for the real
/// matrix, an untraced replica's export for the quick corner.
std::string cold_reference(const Slice& s, bool quick) {
  if (!quick) return read_file(kReferenceCsv);
  const ScratchDir dir("fig8-ref");
  return replicate_cold(s, dir, nullptr).csv;
}

}  // namespace

Report run_fig8_cold(const Args& args) {
  Report report;
  const Slice s = slice(args.quick);
  const std::string reference = cold_reference(s, args.quick);
  Passes p;
  // A fresh, empty store directory and the inputs run_matrix builds for
  // every row (architectures and benchmarks), built ahead of the pass.
  const auto setup = [&] {
    const auto t0 = Clock::now();
    auto dir = std::make_unique<ScratchDir>("fig8-cold");
    for (const sim::Architecture a : s.archs) (void)sim::make_arch(a);
    for (const std::string& b : s.benchmarks) (void)workload::make_benchmark(b, s.scale);
    p.setup_s.push_back(seconds_since(t0));
    return dir;
  };

  if (args.trace) {
    while (p.setup_s.size() < kSetupReps) setup();
    Layers layers;
    layers.span_cost_ns = calibrate_span_cost_ns();
    const Replica plain = replicate_cold(s, *setup(), nullptr);
    const Replica traced = replicate_cold(s, *setup(), &layers);
    report.gate("untraced replica export equals the reference CSV", plain.csv == reference);
    report.gate("traced replica export equals the reference CSV", traced.csv == reference);
    bool same = plain.runs.size() == traced.runs.size();
    for (std::size_t i = 0; same && i < plain.runs.size(); ++i) {
      same = same_result(plain.runs[i], traced.runs[i]);
    }
    report.gate("every traced RunResult equals the untraced one", same);
    report.ops(plain.rows.size() + traced.rows.size());
    std::uint64_t cycles = 0;
    for (const auto& r : plain.runs) cycles += r.cycles;
    layers.sim_mcycles_per_s = static_cast<double>(cycles) * 1e-6 / plain.sim_s;
    layers.paper_err = paper_error(traced.rows);
    layers.trace_overhead = traced.wall_s / plain.wall_s - 1.0;
    layers.emit(report);
    return report;
  }

  const auto start = Clock::now();
  do {
    const auto dir = setup();
    const std::string csv = dir->file("fig8.csv");
    std::size_t rows = 0;
    const double wall = time_s([&] { rows = s.matrix(csv).size(); });
    p.add(wall, {wall * 1e3});
    report.ops(rows);
    report.gate("cold export equals the reference CSV byte for byte",
                read_file(csv) == reference);
  } while (p.another(start, args.seconds));
  while (p.setup_s.size() < kSetupReps) setup();
  p.emit(report);
  return report;
}

namespace {

/// One warm matrix call as the public calls run_matrix makes; returns how
/// many rows the store served. With @p layers each call is timed into its
/// layer's metric (summed over calls).
std::size_t replicate_warm(const Slice& s, const std::string& csv, Layers* layers) {
  const auto span = [layers](double Layers::*ms, const std::function<void()>& fn) {
    if (layers == nullptr) {
      fn();
    } else {
      layers->*ms += time_s(fn) * 1e3;
    }
  };
  std::uint64_t fp = 0;
  span(&Layers::fingerprint_ms, [&] { fp = sim::config_fingerprint(); });
  std::unique_ptr<store::ResultStore> db;
  span(&Layers::open_ms, [&] {
    db = std::make_unique<store::ResultStore>(store::ResultStore::derive_path(csv));
  });
  std::vector<store::ResultRow> csv_rows;
  span(&Layers::csv_read_ms,
       [&] { csv_rows = store::read_csv_v2(csv, s.scale, fp, nullptr); });
  std::size_t migrated = 0;
  span(&Layers::get_ms, [&] {
    for (const store::ResultRow& r : csv_rows) {
      migrated += db->get(fp, s.scale, r.arch, r.benchmark) ? 1 : 0;
    }
  });
  bool fresh = false;
  span(&Layers::rows_for_ms, [&] {
    // run_matrix compares the CSV and the store through the record codec.
    std::vector<std::string> csv_enc, store_enc;
    for (const store::ResultRow& r : csv_rows) {
      csv_enc.push_back(store::encode_put(fp, s.scale, r));
    }
    for (const store::ResultRow& r : db->rows_for(fp, s.scale)) {
      store_enc.push_back(store::encode_put(fp, s.scale, r));
    }
    std::sort(csv_enc.begin(), csv_enc.end());
    std::sort(store_enc.begin(), store_enc.end());
    fresh = csv_enc == store_enc;
  });
  std::size_t hits = 0;
  span(&Layers::get_ms, [&] {
    for (const sim::Architecture a : s.archs) {
      const std::string arch = sim::make_arch(a).name;
      for (const std::string& b : s.benchmarks) hits += db->get(fp, s.scale, arch, b) ? 1 : 0;
    }
  });
  span(&Layers::open_ms, [&] { db.reset(); });
  return fresh && migrated == csv_rows.size() ? hits : 0;
}

}  // namespace

Report run_fig8_warm(const Args& args) {
  Report report;
  const Slice s = slice(false);
  const std::size_t calls = args.quick ? kQuickWarmCalls : kWarmCalls;
  const std::size_t n_rows = s.archs.size() * s.benchmarks.size();
  Passes p;
  // A scratch copy of the checked-in CSV with its store migrated by one
  // matrix call, exactly what a user's first fig8a run after checkout does.
  std::unique_ptr<ScratchDir> dir;
  while (p.setup_s.size() < kSetupReps) {
    const auto t0 = Clock::now();
    dir = std::make_unique<ScratchDir>("fig8-warm");
    std::filesystem::copy_file(kReferenceCsv, dir->file("fig8.csv"));
    (void)s.matrix(dir->file("fig8.csv"));
    p.setup_s.push_back(seconds_since(t0));
  }
  const std::string csv = dir->file("fig8.csv");

  const auto matrix_pass = [&](std::vector<double>& ms) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < calls; ++i) {
      std::size_t rows = 0;
      ms.push_back(time_s([&] { rows = s.matrix(csv).size(); }) * 1e3);
      report.ops(1, rows == n_rows ? 0 : 1);
    }
    return seconds_since(t0);
  };

  if (args.trace) {
    const auto replica_pass = [&](Layers* layers) {
      const auto t0 = Clock::now();
      std::size_t short_calls = 0;
      for (std::size_t i = 0; i < calls; ++i) {
        short_calls += replicate_warm(s, csv, layers) == n_rows ? 0 : 1;
      }
      report.ops(calls, short_calls);
      return seconds_since(t0);
    };
    Layers layers;
    std::vector<double> ms;
    const double real_s = matrix_pass(ms);
    const double plain_s = replica_pass(nullptr);
    const double traced_s = replica_pass(&layers);
    const double n = static_cast<double>(calls);
    for (double* v : {&layers.fingerprint_ms, &layers.open_ms, &layers.csv_read_ms,
                      &layers.get_ms, &layers.rows_for_ms}) {
      *v /= n;  // per-call means
    }
    layers.matrix_self_ms = (real_s - plain_s) * 1e3 / n;
    std::vector<sim::Metrics> rows;
    for (const auto& [key, m] : sim::load_cache(csv, s.scale)) rows.push_back(m);
    layers.paper_err = paper_error(rows);
    layers.trace_overhead = traced_s / plain_s - 1.0;
    layers.emit(report);
  } else {
    const auto start = Clock::now();
    do {
      std::vector<double> ms;
      const double wall = matrix_pass(ms);
      p.add(wall, ms);
    } while (p.another(start, args.seconds));
    p.emit(report);
  }
  report.gate("warm export unchanged", read_file(csv) == read_file(kReferenceCsv));
  const store::ResultStore db(store::ResultStore::derive_path(csv));
  report.gate("warm matrix simulated no row (store holds only the migrated rows)",
              db.stats().applied_records == n_rows);
  return report;
}

}  // namespace e2e
