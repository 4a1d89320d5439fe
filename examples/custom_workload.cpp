// Build a custom GPGPU workload model from scratch (without the benchmark
// registry) and run it on a custom two-part L2 — the intended extension
// path for users studying their own kernels.
//
//   ./custom_workload [blocks=150] [store_fraction=0.3] [wws_lines=256]
#include <iostream>

#include "common/config.hpp"
#include "gpu/gpu.hpp"
#include "sttl2/factories.hpp"

int main(int argc, char** argv) try {
  using namespace sttgpu;

  const Config cfg = Config::from_args(argc, argv, {"blocks", "store_fraction", "wws_lines"});

  // --- 1. describe the kernel ---
  workload::KernelSpec kernel;
  kernel.name = "my_scatter_update";
  kernel.grid_blocks = static_cast<unsigned>(cfg.get_int("blocks", 150));
  kernel.threads_per_block = 256;
  kernel.regs_per_thread = 32;
  kernel.instructions_per_warp = 800;
  kernel.mem_fraction = 0.35;
  kernel.store_fraction = cfg.get_double("store_fraction", 0.3);
  kernel.pattern.kind = workload::PatternKind::kRandom;
  kernel.pattern.footprint_bytes = 900 << 10;
  kernel.pattern.reuse_fraction = 0.35;
  kernel.pattern.hot_store_fraction = 0.8;
  kernel.pattern.wws_lines = static_cast<std::uint64_t>(cfg.get_int("wws_lines", 256));
  kernel.pattern.zipf_s = 0.9;

  workload::Workload app{.name = "custom", .region = "user", .kernels = {kernel, kernel},
                         .seed = 7};

  // --- 2. describe the L2 bank (a C1-like two-part split) ---
  sttl2::TwoPartBankConfig bank;
  bank.hr_bytes = 224 << 10;
  bank.lr_bytes = 32 << 10;

  // --- 3. run ---
  gpu::GpuConfig gpu_cfg;
  sttl2::TwoPartBankFactory factory(bank, gpu_cfg.clock());
  gpu::Gpu gpu(gpu_cfg, factory);
  const gpu::RunResult r = gpu.run(app);

  std::cout << "custom workload: " << app.total_instructions() << " warp instructions\n"
            << "  cycles            " << r.cycles << "\n"
            << "  IPC               " << r.ipc << "\n"
            << "  L2 accesses       " << r.l2.accesses() << " (" << r.l2.write_share() * 100
            << "% writes, " << r.l2.miss_rate() * 100 << "% misses)\n"
            << "  demand stores     " << r.l2_counters.get("w_demand") << "\n"
            << "  served in LR      " << r.l2_counters.get("w_lr") << " ("
            << r.l2_counters.get("migrations") << " migrations)\n"
            << "  served in HR      " << r.l2_counters.get("w_hr") << "\n"
            << "  LR refreshes      " << r.l2_counters.get("refreshes") << "\n"
            << "  forced writebacks " << r.l2_counters.get("lr_forced_wb") +
                                             r.l2_counters.get("refresh_forced_wb")
            << "\n"
            << "  L2 dynamic energy " << r.l2_energy.total_pj() * 1e-6 << " uJ\n";

  std::cout << "\nEnergy by category (pJ):\n";
  for (const auto& [category, pj] : r.l2_energy.categories()) {
    std::cout << "  " << category << ": " << pj << "\n";
  }
  return 0;
} catch (...) { return sttgpu::report_main_error(); }
