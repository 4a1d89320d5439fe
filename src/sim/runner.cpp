#include "sim/runner.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdio>
#include <iomanip>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <tuple>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "sim/executor.hpp"
#include "store/csv_format.hpp"
#include "store/result_store.hpp"
#include "sttl2/factories.hpp"

namespace sttgpu::sim {

std::unique_ptr<gpu::L2BankFactory> make_factory(const ArchSpec& spec) {
  const Clock clock = spec.gpu.clock();
  if (spec.two_part) {
    return std::make_unique<sttl2::TwoPartBankFactory>(spec.two_part_cfg, clock);
  }
  return std::make_unique<sttl2::UniformBankFactory>(spec.uniform, clock);
}

ArchSpec configured(const ArchSpec& spec, const RunOptions& opts) {
  ArchSpec s = spec;
  s.gpu.fast_forward = opts.fast_forward;
  s.gpu.telemetry = opts.telemetry;
  s.gpu.cancel = opts.cancel;
  s.gpu.heartbeat = opts.heartbeat;
  if (s.two_part) {
    s.two_part_cfg.faults = opts.faults;
  } else {
    s.uniform.faults = opts.faults;
  }
  return s;
}

Metrics metrics_of(const std::string& arch, const std::string& benchmark,
                   const gpu::RunResult& run) {
  Metrics m;
  m.arch = arch;
  m.benchmark = benchmark;
  m.ipc = run.ipc;
  m.cycles = run.cycles;
  m.leakage_w = run.l2_leakage_w;
  m.dynamic_w =
      run.runtime_s > 0.0 ? run.l2_energy.total_pj() * 1e-12 / run.runtime_s : 0.0;
  m.total_w = m.dynamic_w + m.leakage_w;
  m.l2_write_share = run.l2.write_share();
  m.l2_miss_rate = run.l2.miss_rate();
  return m;
}

Metrics run_one(const ArchSpec& spec, const workload::Workload& workload,
                const RunOptions& opts) {
  gpu::RunResult run;
  return run_one_detailed(spec, workload, run, opts);
}

Metrics run_one_detailed(const ArchSpec& spec, const workload::Workload& workload,
                         gpu::RunResult& out_run, const RunOptions& opts) {
  const ArchSpec s = configured(spec, opts);
  auto factory = make_factory(s);
  gpu::Gpu g(s.gpu, *factory);
  out_run = g.run(workload);
  const Metrics m = metrics_of(s.name, workload.name, out_run);
  if (opts.inspect) opts.inspect(g);
  return m;
}

Metrics run_one(Architecture arch, const std::string& benchmark,
                const RunOptions& opts) {
  const ArchSpec spec = make_arch(arch);
  const workload::Workload w = workload::make_benchmark(benchmark, opts.scale);
  return run_one(spec, w, opts);
}

// ---------------------------------------------------------------------------
// Result persistence.
//
// The durable source of truth is the crash-safe WAL-backed result store
// (store/result_store.hpp); the v2 CSV (store/csv_format.hpp) is kept as
// the human-diffable *export* format and as the one-time migration source
// for stores that do not exist yet. load_cache/save_cache keep their CSV
// semantics for callers (and tests) that speak CSV directly.
// ---------------------------------------------------------------------------

namespace {

// The former on-disk cache magic, retained verbatim as the leading token of
// the config serialization: the fingerprint of an unchanged configuration
// must stay bit-identical across the CSV -> store port.
constexpr char kCacheMagic[] = "# sttgpu-cache v2";

// FNV-1a, 64-bit: stable across platforms, no dependencies.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// Same (arch, benchmark) and the same bits in every value column (each is
// 8 bytes, or bit_cast would not compile; so they fit in the array).
bool same_row(const store::ResultRow& a, const store::ResultRow& b) {
  const auto bits = [](const store::ResultRow& r) {
    std::array<std::uint64_t, sizeof(r) / 8> out{};
    std::size_t i = 0;
    store::for_each_value(r, [&](const char*, const char*, const auto& v) {
      out[i++] = std::bit_cast<std::uint64_t>(v);
    });
    return out;
  };
  return a.arch == b.arch && a.benchmark == b.benchmark && bits(a) == bits(b);
}

/// The row for (arch, benchmark) in @p rows, which are sorted by
/// (arch, benchmark) as ResultStore::rows_for returns them; null if absent.
const store::ResultRow* find_row(const std::vector<store::ResultRow>& rows,
                                 const std::string& arch, const std::string& benchmark) {
  const auto it = std::lower_bound(
      rows.begin(), rows.end(), std::tie(arch, benchmark),
      [](const store::ResultRow& r, const auto& key) {
        return std::tie(r.arch, r.benchmark) < key;
      });
  if (it == rows.end() || it->arch != arch || it->benchmark != benchmark) return nullptr;
  return &*it;
}

// Serializes everything a cached Metrics row depends on: the resolved
// architecture registry (cache geometry, cell/energy parameters, GPU
// model) and the benchmark suite. Any change to these invalidates caches.
std::string compute_config_serialization() {
  std::ostringstream os;
  os << std::setprecision(17);
  os << kCacheMagic;
  // Simulation-core revision: bumped when the cycle loop's semantics change
  // (core:2 = per-cycle kernel-completion check instead of the old 64-cycle
  // polling batch), so caches simulated by an older core are discarded.
  os << "|core:2";
  for (const Architecture arch : all_architectures()) {
    const ArchSpec s = make_arch(arch);
    const gpu::GpuConfig& g = s.gpu;
    os << "|arch:" << s.name << ':' << s.two_part << ':' << s.l2_total_bytes() << ':'
       << s.extra_regs_per_sm << ":gpu:" << g.num_sms << ':' << g.warp_size << ':'
       << g.max_warps_per_sm << ':' << g.max_threads_per_sm << ':' << g.registers_per_sm
       << ':' << g.shared_mem_per_sm << ':' << g.core_clock_hz << ':'
       << static_cast<int>(g.scheduler) << ':' << g.l1d_size << ':' << g.l1d_assoc << ':'
       << g.l1_hit_latency << ':' << g.l1_mshr_entries << ':' << g.icnt_latency << ':'
       << g.num_l2_banks << ':' << g.l2_line_bytes << ':' << g.l2_input_queue << ':'
       << g.dram_latency << ':' << g.dram_service_gap << ':' << g.dram_open_page << ':'
       << g.dram_row_bytes << ':' << g.dram_row_hit_latency;
    // The literal 0s stand where the retired adaptive-threshold,
    // early-write-termination and wear-leveling switches were printed (they
    // were always off), so every store keyed by the fingerprint stays valid.
    if (s.two_part) {
      const sttl2::TwoPartBankConfig& c = s.two_part_cfg;
      os << ":tp:" << c.hr_bytes << ':' << c.hr_assoc << ':' << c.hr_retention_s << ':'
         << c.hr_counter_bits << ':' << c.lr_bytes << ':' << c.lr_assoc << ':'
         << c.lr_retention_s << ':' << c.lr_counter_bits << ':' << c.line_bytes << ':'
         << c.write_threshold << ":0:0:0:" << c.buffer_lines << ':'
         << static_cast<int>(c.search) << ':' << c.pipeline_cycles << ':' << c.hr_subbanks
         << ':' << c.lr_subbanks;
    } else {
      const sttl2::UniformBankConfig& c = s.uniform;
      os << ":un:" << c.capacity_bytes << ':' << c.associativity << ':' << c.line_bytes
         << ':' << c.cell.name << ':' << c.cell.read_energy_pj_per_bit << ':'
         << c.cell.write_energy_pj_per_bit << ':' << c.cell.read_latency_ns << ':'
         << c.cell.write_latency_ns << ':' << c.cell.leakage_nw_per_bit << ":0:"
         << c.pipeline_cycles << ':' << c.subbanks;
    }
  }
  for (const std::string& name : workload::benchmark_names()) {
    const workload::Workload w = workload::make_benchmark(name);
    os << "|bench:" << w.name << ':' << w.region << ':' << w.seed << ':'
       << w.kernels.size() << ':' << w.total_instructions();
  }
  return os.str();
}

const std::string& config_serialization() {
  // The registry and suite are compile-time fixed, so serialize them once;
  // write-through persistence fingerprints after every completed run.
  static const std::string s = compute_config_serialization();
  return s;
}

}  // namespace

std::uint64_t config_fingerprint() {
  static const std::uint64_t fp = fnv1a(config_serialization());
  return fp;
}

std::uint64_t config_fingerprint(const sttl2::FaultInjectionConfig& faults) {
  // Disabled faults contribute no tokens: the hash — and therefore every
  // existing baseline cache — is exactly what it was before the fault
  // subsystem existed.
  if (!faults.enabled) return config_fingerprint();
  std::ostringstream os;
  os << std::setprecision(17);
  os << "|faults:1:" << faults.seed << ':' << faults.accel << ':' << faults.ecc << ':'
     << faults.spec_margin << ':' << faults.write_fail_prob << ':'
     << faults.write_retry_limit;
  return fnv1a(config_serialization() + os.str());
}

std::map<std::pair<std::string, std::string>, Metrics> load_cache(
    const std::string& path, double scale, const sttl2::FaultInjectionConfig& faults) {
  std::map<std::pair<std::string, std::string>, Metrics> cache;
  const std::vector<store::ResultRow> rows = store::read_csv_v2(
      path, scale, config_fingerprint(faults),
      [](const std::string& line) { log_line(line); });
  for (const store::ResultRow& r : rows) cache[{r.arch, r.benchmark}] = r;
  return cache;
}

void save_cache(const std::string& path, double scale, const std::vector<Metrics>& rows,
                const sttl2::FaultInjectionConfig& faults) {
  store::write_csv_v2(path, scale, config_fingerprint(faults), rows);
}

void export_cache(store::ResultStore& db, const std::string& path, double scale,
                  const sttl2::FaultInjectionConfig& faults) {
  db.refresh();
  save_cache(path, scale, db.rows_for(config_fingerprint(faults), scale), faults);
}

std::vector<Metrics> run_matrix(const std::vector<Architecture>& archs,
                                const RunOptions& opts) {
  return run_matrix(archs, workload::benchmark_names(), opts);
}

std::vector<Metrics> run_matrix(const std::vector<Architecture>& archs,
                                const std::vector<std::string>& benchmarks,
                                const RunOptions& opts) {
  STTGPU_REQUIRE(opts.telemetry == nullptr,
                 "run_matrix: telemetry is per-run — parallel matrix runs would "
                 "interleave samples into one sink; use run_one with a fresh "
                 "Telemetry instead");
  STTGPU_REQUIRE(!opts.inspect,
                 "run_matrix: the inspect hook is per-run; use run_one");
  STTGPU_REQUIRE(opts.heartbeat == nullptr,
                 "run_matrix: the heartbeat is per-run; use run_one");
  const double scale = opts.scale;
  const std::string& cache_path = opts.cache_path;
  const sttl2::FaultInjectionConfig& faults = opts.faults;
  const std::uint64_t fp = config_fingerprint(faults);
  const unsigned n_threads = opts.jobs == 0 ? default_jobs() : opts.jobs;

  // Open (creating and recovering if needed) the WAL-backed store that
  // shadows the CSV path, then fold in any rows the CSV has that the store
  // lacks — the one-time migration for pre-store caches. On key conflicts
  // the store wins: it is the durable source of truth, the CSV an export.
  std::unique_ptr<store::ResultStore> db;
  // The store's rows for this (fingerprint, scale), sorted: one snapshot
  // serves the migration check, the freshness check and the slot lookups.
  std::vector<store::ResultRow> stored;
  bool csv_fresh = true;  ///< CSV export already mirrors the store's rows
  if (!cache_path.empty()) {
    store::StoreOptions so;
    so.log = [](const std::string& line) { log_line(line); };
    so.cancel = opts.cancel;
    db = std::make_unique<store::ResultStore>(store::ResultStore::derive_path(cache_path),
                                              so);
    std::vector<store::ResultRow> csv_rows =
        store::read_csv_v2(cache_path, scale, fp, so.log);
    stored = db->rows_for(fp, scale);
    std::vector<store::ResultRow> migrate;
    for (const store::ResultRow& r : csv_rows) {
      if (find_row(stored, r.arch, r.benchmark) == nullptr) migrate.push_back(r);
    }
    if (!migrate.empty()) {
      db->put_many(fp, scale, migrate);
      log_line("[store] " + db->path() + ": migrated " + std::to_string(migrate.size()) +
               " row" + (migrate.size() == 1 ? "" : "s") + " from " + cache_path);
      stored = db->rows_for(fp, scale);
    }
    // Is the CSV already a faithful export? Compare its rows with the store's
    // in (arch, benchmark) order, bit for bit (as equal 17-digit texts would;
    // differing NaN payloads read as stale). If not (truncated by hand, store
    // ahead of CSV, value conflict), re-export even if nothing simulates.
    std::sort(csv_rows.begin(), csv_rows.end(), [](const auto& a, const auto& b) {
      return a.arch != b.arch ? a.arch < b.arch : a.benchmark < b.benchmark;
    });
    csv_fresh =
        std::equal(csv_rows.begin(), csv_rows.end(), stored.begin(), stored.end(), same_row);
  }

  // Lay out the result slots up front: results are collected by slot index,
  // so the returned order is (arch, benchmark) regardless of completion
  // order or thread count.
  struct Pending {
    std::size_t slot;
    ArchSpec spec;
    std::string benchmark;
  };
  std::vector<Metrics> rows(archs.size() * benchmarks.size());
  std::vector<Pending> pending;
  std::size_t slot = 0;
  for (const Architecture arch : archs) {
    const ArchSpec spec = make_arch(arch);
    for (const std::string& name : benchmarks) {
      // Prefill the identity columns so a quarantined (keep_going) or
      // interrupted slot still says which (arch, benchmark) it was.
      rows[slot].arch = spec.name;
      rows[slot].benchmark = name;
      if (const store::ResultRow* hit = find_row(stored, spec.name, name)) {
        rows[slot] = *hit;
      } else {
        pending.push_back(Pending{slot, spec, name});
      }
      ++slot;
    }
  }

  if (!pending.empty() && db) {
    // Fail loudly on an unwritable cache path *before* burning simulation
    // time; this also upgrades a discarded stale/v1 file to a v2 header.
    export_cache(*db, cache_path, scale, faults);
  }

  std::atomic<std::size_t> completed{0};
  std::vector<Job> work;
  work.reserve(pending.size());
  for (const Pending& p : pending) {
    Job job;
    job.label = p.spec.name + "/" + p.benchmark;
    job.fn = [&, p](const JobControl& ctl) {
      const workload::Workload w = workload::make_benchmark(p.benchmark, scale);
      // opts.telemetry/inspect are guaranteed null above; run_one applies
      // the shared fast_forward/faults knobs to this run's spec copy. The
      // supervisor's per-job token is threaded into the Gpu so the cycle
      // loop observes cancellation (user interrupt, job timeout).
      RunOptions job_opts = opts;
      job_opts.cancel = ctl.cancel;
      Metrics m = run_one(p.spec, w, job_opts);
      // Durable write-through: by the time the progress line prints, the
      // row is fsync'd in the WAL — a crash in run 79 of 80 keeps the first
      // 78.
      if (db) db->put(fp, scale, m);
      const std::size_t k = completed.fetch_add(1) + 1;
      std::ostringstream os;
      os << "[run " << k << '/' << pending.size() << "] " << p.spec.name << '/'
         << p.benchmark << " ipc=" << m.ipc << " cycles=" << m.cycles;
      log_line(os.str());
      rows[p.slot] = std::move(m);
    };
    work.push_back(std::move(job));
  }

  SupervisorOptions sup;
  sup.external = opts.cancel;
  sup.job_timeout_s = opts.job_timeout_s;
  sup.retries = opts.retries;
  sup.keep_going = opts.keep_going;
  const SupervisedResult result = run_supervised(std::move(work), n_threads, sup);
  if (opts.report != nullptr) *opts.report = result;

  if (db && (!pending.empty() || !csv_fresh)) {
    try {
      export_cache(*db, cache_path, scale, faults);
    } catch (const Cancelled&) {
      // Interrupted while re-acquiring the store lock. Harmless: the upfront
      // export already left a valid CSV, and every completed row is fsync'd
      // in the WAL — a warm rerun resumes from the store, losing nothing.
    }
  }

  if (result.interrupted) {
    // Completed rows are already persisted write-through; tell the caller
    // (and the user, via the CLI) that the sweep is resumable.
    const std::size_t done = rows.size() - pending.size() + completed.load();
    std::ostringstream os;
    os << "matrix interrupted — " << done << " of " << rows.size()
       << " rows completed";
    if (db) {
      os << " and cached; rerun with the same cache= to resume";
    }
    throw Cancelled(CancelReason::kUser, os.str());
  }
  if (!opts.keep_going) {
    // A timeout kill outranks ordinary failures: surface it as a Cancelled
    // so the CLI maps it to its own exit code.
    for (const JobOutcome& o : result.outcomes) {
      if (o.status == JobStatus::kTimeout) {
        throw Cancelled(CancelReason::kTimeout, "job '" + o.label + "': " + o.error);
      }
    }
    throw_on_failures(result);
  } else if (!result.all_ok()) {
    // Quarantine mode: report the manifest, return the partial matrix
    // (failed slots keep their prefilled identity and zero metrics).
    log_line(result.manifest());
  }
  return rows;
}

std::map<std::string, Metrics> by_benchmark(const std::vector<Metrics>& rows,
                                            const std::string& arch) {
  std::map<std::string, Metrics> out;
  for (const Metrics& m : rows) {
    if (m.arch == arch) out[m.benchmark] = m;
  }
  return out;
}

}  // namespace sttgpu::sim
