#include "layers.hpp"

#include <cmath>

#include "common/stats.hpp"
#include "sttl2/factories.hpp"

namespace e2e {

namespace gpu = sttgpu::gpu;
namespace sim = sttgpu::sim;

void Layers::add_model(const gpu::RunResult& r) {
  cycles += r.cycles;
  warp_insts += r.instructions;
  l2_accesses += r.l2.accesses();
  l2_misses += r.l2.read_misses + r.l2.write_misses;
  dram_reads += r.dram_reads;
}

void Layers::emit(Report& report) const {
  const double c = span_cost_ns;
  const auto calls = [&](BankSpans::Op op) {
    return static_cast<double>(twopart.calls[op] + uniform.calls[op]);
  };
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const auto per_call = [&](const BankSpans& s, BankSpans::Op op) {
    return ratio(s.op_ns(op, c), static_cast<double>(s.calls[op]));
  };
  const double self_s = twopart.self_s(c) + uniform.self_s(c);
  const double queries = static_cast<double>(twopart.queries + uniform.queries);
  const double n_cycles = static_cast<double>(cycles);

  static constexpr const char* kOpName[BankSpans::kOps] = {"tick", "enqueue", "drain", "fill"};
  for (int i = 0; i < BankSpans::kOps; ++i) {
    const auto op = static_cast<BankSpans::Op>(i);
    const std::string name = std::string("sttl2.") + kOpName[i];
    report.metric(name + ".calls", calls(op), "count");
    report.metric(name + ".ns", ratio(twopart.op_ns(op, c) + uniform.op_ns(op, c), calls(op)),
                  "ns/call");
  }
  report.metric("sttl2.query.calls", queries, "count");
  report.metric("sttl2.self_s", self_s, "s");
  report.metric("sttl2.share", ratio(self_s, gpu_run_s), "ratio");
  report.metric("sttl2.twopart.tick.ns", per_call(twopart, BankSpans::kTick), "ns/call");
  report.metric("sttl2.twopart.self_s", twopart.self_s(c), "s");
  report.metric("sttl2.uniform.tick.ns", per_call(uniform, BankSpans::kTick), "ns/call");
  report.metric("sttl2.uniform.self_s", uniform.self_s(c), "s");
  report.metric("sttl2.drain.useful",
                ratio(static_cast<double>(twopart.useful_drains + uniform.useful_drains),
                      calls(BankSpans::kDrain)),
                "ratio");
  report.metric("sttl2.span_cost_ns", c, "ns");

  report.metric("gpu.run_s", gpu_run_s, "s");
  report.metric("gpu.core_self_s", gpu_run_s - self_s, "s");
  report.metric("gpu.host_ns_per_cycle", ratio(gpu_run_s * 1e9, n_cycles), "ns");
  report.metric("sttl2.tick.per_cycle", ratio(calls(BankSpans::kTick), n_cycles), "ratio");
  report.metric("sttl2.query.per_cycle", ratio(queries, n_cycles), "ratio");
  report.metric("gpu.construct_ms", gpu_construct_s * 1e3, "ms");
  report.metric("sim.mcycles_per_s", sim_mcycles_per_s, "Mcycles/s");

  report.metric("workload.build_ms", build_s * 1e3, "ms");

  report.metric("store.put_ms.p50", median(put_ms), "ms");
  report.metric("store.put_ms.tail", tail(put_ms), "ms");
  report.metric("store.open_ms", open_ms, "ms");
  report.metric("store.get_ms", get_ms, "ms");
  report.metric("store.refresh_ms", refresh_ms, "ms");
  report.metric("store.rows_for_ms", rows_for_ms, "ms");
  report.metric("csv.read_ms", csv_read_ms, "ms");
  report.metric("csv.export_ms", csv_export_ms, "ms");
  report.metric("sim.fingerprint_ms", fingerprint_ms, "ms");
  report.metric("sim.matrix_self_ms", matrix_self_ms, "ms");

  report.metric("serve.start_ms", serve_start_ms, "ms");
  report.metric("serve.admit_ms", admit_ms, "ms");
  report.metric("serve.queue_ms", queue_ms, "ms");
  report.metric("serve.task_ms", task_ms, "ms");
  report.metric("serve.sim_ms", sim_ms, "ms");
  report.metric("serve.task_overhead_ms", task_overhead_ms, "ms");
  report.metric("serve.finish_ms", finish_ms, "ms");
  report.metric("serve.hit_admit_ms", hit_admit_ms, "ms");
  report.metric("serve.hit_p50_ms", hit_p50_ms, "ms");
  report.metric("serve.hit_tail_ms", hit_tail_ms, "ms");

  report.metric("model.cycles", n_cycles, "count");
  report.metric("model.warp_insts", static_cast<double>(warp_insts), "count");
  report.metric("model.l2_accesses", static_cast<double>(l2_accesses), "count");
  report.metric("model.l2_miss_rate",
                ratio(static_cast<double>(l2_misses), static_cast<double>(l2_accesses)),
                "ratio");
  report.metric("model.dram_reads", static_cast<double>(dram_reads), "count");
  report.metric("model.paper_err", paper_err, "ratio");

  report.metric("trace.overhead", trace_overhead, "ratio");
}

std::unique_ptr<gpu::L2BankFactory> bank_factory(const sim::ArchSpec& spec) {
  const sttgpu::Clock clock = spec.gpu.clock();
  if (spec.two_part) {
    return std::make_unique<sttgpu::sttl2::TwoPartBankFactory>(spec.two_part_cfg, clock);
  }
  return std::make_unique<sttgpu::sttl2::UniformBankFactory>(spec.uniform, clock);
}

gpu::RunResult simulate(const sim::ArchSpec& spec, const sttgpu::workload::Workload& w,
                        Layers* layers) {
  const auto real = bank_factory(spec);
  if (layers == nullptr) {
    gpu::Gpu g(spec.gpu, *real);
    return g.run(w);
  }
  TimedFactory timed(*real, spec.two_part ? layers->twopart : layers->uniform);
  const auto t0 = Clock::now();
  gpu::Gpu g(spec.gpu, timed);
  const auto t1 = Clock::now();
  gpu::RunResult r = g.run(w);
  layers->gpu_run_s += seconds_since(t1);
  layers->gpu_construct_s += std::chrono::duration<double>(t1 - t0).count();
  layers->add_model(r);
  return r;
}

sim::Metrics metrics_of(const sim::ArchSpec& spec, const sttgpu::workload::Workload& w,
                        const gpu::RunResult& r) {
  sim::Metrics m;
  m.arch = spec.name;
  m.benchmark = w.name;
  m.ipc = r.ipc;
  m.cycles = r.cycles;
  m.leakage_w = r.l2_leakage_w;
  m.dynamic_w = r.runtime_s > 0.0 ? r.l2_energy.total_pj() * 1e-12 / r.runtime_s : 0.0;
  m.total_w = m.dynamic_w + m.leakage_w;
  m.l2_write_share = r.l2.write_share();
  m.l2_miss_rate = r.l2.miss_rate();
  return m;
}

bool same_result(const gpu::RunResult& a, const gpu::RunResult& b) {
  const gpu::L2BankStats& x = a.l2;
  const gpu::L2BankStats& y = b.l2;
  return a.cycles == b.cycles && a.instructions == b.instructions &&
         x.read_hits == y.read_hits && x.read_misses == y.read_misses &&
         x.write_hits == y.write_hits && x.write_misses == y.write_misses &&
         x.dram_reads == y.dram_reads && x.dram_writebacks == y.dram_writebacks &&
         a.l2_energy.total_pj() == b.l2_energy.total_pj();
}

double paper_error(const std::vector<sim::Metrics>& rows) {
  struct Target {
    const char* arch;
    double sim::Metrics::*field;
    double paper;
  };
  // Fig. 8 averages as the paper states them (EXPERIMENTS.md): (a) speedup,
  // (b) L2 dynamic power, (c) total L2 power, each normalized to sram.
  static const Target kTargets[] = {
      {"stt-base", &sim::Metrics::ipc, 1.05},      {"C1", &sim::Metrics::ipc, 1.16},
      {"C1", &sim::Metrics::dynamic_w, 1.69},      {"C2", &sim::Metrics::dynamic_w, 1.67},
      {"C3", &sim::Metrics::dynamic_w, 1.94},      {"stt-base", &sim::Metrics::total_w, 1.19},
      {"C1", &sim::Metrics::total_w, 0.80},        {"C2", &sim::Metrics::total_w, 0.365},
      {"C3", &sim::Metrics::total_w, 0.58},
  };
  const auto base = sim::by_benchmark(rows, "sram");
  double err = 0.0;
  int n = 0;
  for (const Target& t : kTargets) {
    std::vector<double> norm;
    for (const auto& [bench, m] : sim::by_benchmark(rows, t.arch)) {
      const auto b = base.find(bench);
      if (b != base.end()) norm.push_back(m.*t.field / b->second.*t.field);
    }
    if (norm.empty()) continue;
    err += std::abs(sttgpu::geometric_mean(norm) / t.paper - 1.0);
    ++n;
  }
  return n > 0 ? err / n : 0.0;
}

}  // namespace e2e
