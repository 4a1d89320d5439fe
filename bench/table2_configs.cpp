// Regenerates the paper's Table 2: the evaluated GPGPU-Sim configurations —
// baseline GPU model, SRAM baseline L2, STT-RAM baseline, and C1/C2/C3 —
// including the equal-area accounting that converts saved L2 area into
// register-file capacity for C2/C3.
#include <iostream>

#include "common/config.hpp"
#include "common/table.hpp"
#include "sim/arch.hpp"

int main(int argc, char** argv) try {
  using namespace sttgpu;
  (void)Config::from_args(argc, argv, {});  // no knobs: any argument is an error

  const gpu::GpuConfig base;
  std::cout << "Table 2: simulated configurations (GTX480-class baseline GPU)\n\n"
            << "baseline GPU model: " << base.num_sms << " clusters, 1 SM/cluster, "
            << "L1D " << base.l1d_size / 1024 << "KB " << base.l1d_assoc << "-way "
            << base.l1d_line << "B lines, const " << base.l1c_size / 1024
            << "KB, tex " << base.l1t_size / 1024 << "KB " << base.l1t_line
            << "B lines, shared " << base.shared_mem_per_sm / 1024 << "KB, "
            << base.num_l2_banks << " memory controllers, 40nm, "
            << base.registers_per_sm << " 32-bit registers/SM\n\n";

  TextTable table({"config", "L2 organization", "regs/SM", "L2 data area (mm^2)",
                   "RF delta (mm^2)"});
  for (const auto arch : sim::all_architectures()) {
    const sim::ArchSpec spec = sim::make_arch(arch);
    std::string org;
    if (spec.two_part) {
      const auto& c = spec.two_part_cfg;
      org = std::to_string(c.hr_bytes * spec.gpu.num_l2_banks / 1024) + "KB " +
            std::to_string(c.hr_assoc) + "-way HR + " +
            std::to_string(c.lr_bytes * spec.gpu.num_l2_banks / 1024) + "KB " +
            std::to_string(c.lr_assoc) + "-way LR (STT-RAM)";
    } else {
      org = std::to_string(spec.uniform.capacity_bytes * spec.gpu.num_l2_banks / 1024) +
            "KB " + std::to_string(spec.uniform.associativity) + "-way (" +
            spec.uniform.cell.name + ")";
    }
    table.add_row({spec.name, org, std::to_string(spec.gpu.registers_per_sm),
                   TextTable::fmt(spec.l2_data_area_mm2, 3),
                   TextTable::fmt(spec.regfile_extra_mm2, 3)});
  }
  table.print(std::cout);

  std::cout << "\nEqual-area check: every non-SRAM config's L2 data area plus its\n"
               "register-file delta equals the SRAM baseline's L2 data area (the\n"
               "paper's fairness rule; STT-RAM cell = 1/4 SRAM cell area).\n";
  return 0;
} catch (...) { return sttgpu::report_main_error(); }
