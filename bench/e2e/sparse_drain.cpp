// sparse-drain: micro_sim_throughput's drain-heavy kernel (4 blocks x 64
// threads, half of all instructions random memory ops over 256 MB) on C1
// with a 2000-cycle DRAM, stretched to 600k instructions per warp. Almost
// every cycle is a quiescent wait, so host time goes to the step loop,
// fast-forward and event wheel rather than bank work: the opposite of
// fig8-cold. The run's seed is the workload seed.
#include <memory>

#include "layers.hpp"
#include "sim/arch.hpp"

namespace e2e {

namespace gpu = sttgpu::gpu;
namespace sim = sttgpu::sim;
namespace workload = sttgpu::workload;

namespace {

workload::Workload drain_kernel(std::uint64_t seed, bool quick) {
  workload::KernelSpec k;
  k.name = "drain";
  k.grid_blocks = 4;
  k.threads_per_block = 64;
  k.instructions_per_warp = quick ? 6000 : 600000;
  k.mem_fraction = 0.5;
  k.store_fraction = 0.1;
  k.const_fraction = 0.0;
  k.pattern.kind = workload::PatternKind::kRandom;
  k.pattern.footprint_bytes = 256ull << 20;
  k.pattern.reuse_fraction = 0.0;
  k.pattern.wws_lines = 0;

  workload::Workload w;
  w.name = "sparse-drain";
  w.region = "synthetic";
  w.kernels.push_back(k);
  w.seed = seed;
  return w;
}

sim::ArchSpec drain_arch() {
  sim::ArchSpec spec = sim::make_arch(sim::Architecture::kC1);
  spec.gpu.dram_latency = 2000;
  return spec;
}

/// Everything a pass needs, built by the timed set-up: the kernel, the
/// architecture, and a constructed Gpu over the real bank factory.
struct Machine {
  workload::Workload w;
  sim::ArchSpec spec;
  std::unique_ptr<gpu::L2BankFactory> factory;
  std::unique_ptr<gpu::Gpu> gpu;
};

}  // namespace

Report run_sparse_drain(const Args& args) {
  Report report;
  Passes p;
  const auto setup = [&] {
    const auto t0 = Clock::now();
    auto m = std::make_unique<Machine>();
    m->w = drain_kernel(args.seed, args.quick);
    m->spec = drain_arch();
    m->factory = bank_factory(m->spec);
    m->gpu = std::make_unique<gpu::Gpu>(m->spec.gpu, *m->factory);
    p.setup_s.push_back(seconds_since(t0));
    return m;
  };
  const auto check = [&](const Machine& m, const gpu::RunResult& r) {
    report.ops(1);
    report.gate("retired exactly total_instructions()",
                r.instructions == m.w.total_instructions());
  };

  if (args.trace) {
    while (p.setup_s.size() < kSetupReps) setup();
    const auto m = setup();
    const auto t0 = Clock::now();
    const gpu::RunResult plain = m->gpu->run(m->w);
    const double plain_s = seconds_since(t0);
    check(*m, plain);

    Layers layers;
    layers.span_cost_ns = calibrate_span_cost_ns();
    workload::Workload w;
    layers.build_s = time_s([&] { w = drain_kernel(args.seed, args.quick); });
    const gpu::RunResult traced = simulate(m->spec, w, &layers);
    check(*m, traced);
    report.gate("traced RunResult equals the untraced one", same_result(plain, traced));
    layers.sim_mcycles_per_s = static_cast<double>(plain.cycles) * 1e-6 / plain_s;
    layers.trace_overhead = layers.gpu_run_s / plain_s - 1.0;
    layers.emit(report);
    return report;
  }

  const auto start = Clock::now();
  std::uint64_t cycles = 0;
  do {
    const auto m = setup();
    gpu::RunResult r;
    const double wall = time_s([&] { r = m->gpu->run(m->w); });
    p.add(wall, {wall * 1e3});
    check(*m, r);
    if (cycles != 0) report.gate("same cycle count as the first pass", r.cycles == cycles);
    cycles = r.cycles;
  } while (p.another(start, args.seconds));
  while (p.setup_s.size() < kSetupReps) setup();
  p.emit(report);
  return report;
}

}  // namespace e2e
