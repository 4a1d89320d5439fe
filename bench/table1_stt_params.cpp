// Regenerates the paper's Table 1: STT-RAM parameters for different data
// retention times — thermal stability factor Δ, retention time, write
// latency (W.L), write energy per 256B line (W.E), and whether refreshing
// is required.
//
// The values derive from the MtjModel (Néel–Arrhenius retention plus the
// calibration anchors from the paper's refs [12]/[14]); see DESIGN.md for
// why the absolute digits of the source table had to be reconstructed.
#include <iostream>

#include "common/config.hpp"
#include "common/table.hpp"
#include "nvm/cell.hpp"
#include "nvm/mtj.hpp"

int main(int argc, char** argv) try {
  using namespace sttgpu;
  (void)Config::from_args(argc, argv, {});  // no knobs: any argument is an error

  std::cout << "Table 1: STT-RAM parameters for different data retention times\n\n";

  nvm::MtjModel mtj;
  TextTable table({"delta", "retention", "W.L (ns)", "W.E (nJ/line)", "refresh"});

  const struct Row {
    nvm::RetentionClass rc;
    const char* retention_label;
    const char* refresh;
  } rows[] = {
      {nvm::RetentionClass::kYears10, "10 years", "none"},
      {nvm::RetentionClass::kMs40, "40 ms", "expiry (block)"},
      {nvm::RetentionClass::kUs26, "26.5 us", "refresh (block)"},
  };

  for (const Row& row : rows) {
    const double ret_s = nvm::retention_seconds(row.rc);
    const double delta = mtj.delta_for_retention(ret_s);
    table.add_row({TextTable::fmt(delta, 2), row.retention_label,
                   TextTable::fmt(mtj.write_pulse_ns(delta), 2),
                   TextTable::fmt(mtj.write_energy_nj_per_line(delta), 3), row.refresh});
  }
  table.print(std::cout);

  std::cout << "\nread pulse: " << mtj.read_pulse_ns() << " ns, read energy: "
            << mtj.read_energy_nj_per_line() << " nJ/line (retention independent)\n";
  std::cout << "\nShape check (paper): lower retention => strictly lower write"
               " latency and energy; 10-year cells are the slowest/most costly.\n";
  return 0;
} catch (...) { return sttgpu::report_main_error(); }
