#include "sim/report.hpp"

#include "common/json.hpp"
#include "common/telemetry.hpp"
#include "sttl2/reliability.hpp"
#include "sttl2/two_part_bank.hpp"
#include "sttl2/uniform_bank.hpp"

namespace sttgpu::sim {

namespace {

void add_fault_stream(FaultSummary& s, const sttl2::FaultModel& fm) {
  if (!fm.enabled()) return;
  s.enabled = true;
  s.trials += fm.trials();
  s.collapses += fm.collapses();
  s.expected += fm.expected_collapses();
  // Re-score the injector's own lifetime histogram with the analytic model:
  // refresh_period 0 because realized lifetimes are already refresh-truncated.
  s.predicted += sttl2::analyze_reliability(fm.lifetimes_ns(), fm.retention_s(),
                                            /*refresh_period_s=*/0.0,
                                            fm.overflow_lifetime_ns(),
                                            fm.effective_spec_margin())
                     .expected_failures;
}

void add_fault_counters(FaultSummary& s, const CounterSet& c) {
  s.ecc_corrected += c.get("fault_ecc_corrected");
  s.ecc_detected += c.get("fault_ecc_detected");
  s.clean_refetch += c.get("fault_clean_refetch");
  s.data_loss += c.get("fault_data_loss");
  s.wv_retries += c.get("fault_wv_retries");
  s.wv_escalations += c.get("fault_wv_escalations");
}

}  // namespace

FaultSummary collect_fault_summary(gpu::Gpu& g) {
  FaultSummary s;
  for (unsigned i = 0; i < g.num_banks(); ++i) {
    gpu::L2Bank& bank = g.bank(i);
    if (const auto* tp = dynamic_cast<const sttl2::TwoPartBank*>(&bank)) {
      add_fault_stream(s, tp->lr_faults());
      add_fault_stream(s, tp->hr_faults());
      if (tp->lr_faults().enabled() || tp->hr_faults().enabled()) {
        add_fault_counters(s, tp->counters());
      }
    } else if (const auto* un = dynamic_cast<const sttl2::UniformBank*>(&bank)) {
      add_fault_stream(s, un->faults());
      if (un->faults().enabled()) add_fault_counters(s, un->counters());
    }
  }
  return s;
}

namespace {

void metrics_fields(JsonWriter& w, const Metrics& m) {
  w.key("arch").value(m.arch);
  w.key("benchmark").value(m.benchmark);
  store::for_each_value(m, [&w](const char*, const char* key, const auto& v) {
    w.key(key).value(v);
  });
}

}  // namespace

void print_metrics_block(std::ostream& os, const Metrics& metrics, double scale) {
  os << metrics.arch << " / " << metrics.benchmark << " (scale " << scale << ")\n"
     << "  IPC        " << metrics.ipc << "\n"
     << "  cycles     " << metrics.cycles << "\n"
     << "  L2 power   " << metrics.total_w << " W (dyn " << metrics.dynamic_w
     << " + leak " << metrics.leakage_w << ")\n"
     << "  writes     " << metrics.l2_write_share * 100 << "% of L2 accesses\n"
     << "  miss rate  " << metrics.l2_miss_rate * 100 << "%\n";
}

void write_matrix_json(std::ostream& os, const std::vector<Metrics>& rows) {
  JsonWriter w(os);
  w.begin_object();
  w.key("runs").begin_array();
  for (const Metrics& m : rows) {
    w.begin_object();
    metrics_fields(w, m);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void write_run_json(std::ostream& os, const Metrics& metrics, const gpu::RunResult& run,
                    const FaultSummary* faults, const Telemetry* telemetry) {
  JsonWriter w(os);
  w.begin_object();
  w.key("metrics").begin_object();
  metrics_fields(w, metrics);
  w.end_object();

  w.key("counters").begin_object();
  for (const auto& [name, value] : run.l2_counters.all()) {
    w.key(name).value(value);
  }
  w.end_object();

  w.key("energy_pj").begin_object();
  for (const auto& [category, pj] : run.l2_energy.categories()) {
    w.key(category).value(pj);
  }
  w.end_object();

  w.key("l2").begin_object();
  w.key("read_hits").value(run.l2.read_hits);
  w.key("read_misses").value(run.l2.read_misses);
  w.key("write_hits").value(run.l2.write_hits);
  w.key("write_misses").value(run.l2.write_misses);
  w.key("dram_reads").value(run.l2.dram_reads);
  w.key("dram_writebacks").value(run.l2.dram_writebacks);
  w.end_object();

  w.key("sm").begin_object();
  w.key("instructions").value(run.sm.issued_instructions);
  w.key("loads").value(run.sm.issued_loads);
  w.key("stores").value(run.sm.issued_stores);
  w.key("idle_cycles").value(run.sm.idle_cycles);
  w.key("stall_cycles").value(run.sm.stall_cycles);
  w.end_object();

  // Transport observability: express vs queued splits are contention facts
  // of the simulated machine, identical in both stepping loops.
  w.key("scheduler").begin_object();
  w.key("icnt_request_express").value(run.sched.icnt_request_express);
  w.key("icnt_request_queued").value(run.sched.icnt_request_queued);
  w.key("icnt_response_express").value(run.sched.icnt_response_express);
  w.key("icnt_response_queued").value(run.sched.icnt_response_queued);
  w.key("dram_express_reads").value(run.sched.dram_express_reads);
  w.key("dram_queued_reads").value(run.sched.dram_queued_reads);
  w.end_object();

  if (faults != nullptr && faults->enabled) {
    w.key("faults").begin_object();
    w.key("trials").value(faults->trials);
    w.key("injected_collapses").value(faults->collapses);
    w.key("expected_collapses").value(faults->expected);
    w.key("predicted_collapses").value(faults->predicted);
    w.key("ecc_corrected").value(faults->ecc_corrected);
    w.key("ecc_detected").value(faults->ecc_detected);
    w.key("clean_refetch").value(faults->clean_refetch);
    w.key("data_loss").value(faults->data_loss);
    w.key("write_verify_retries").value(faults->wv_retries);
    w.key("write_verify_escalations").value(faults->wv_escalations);
    w.end_object();
  }

  if (telemetry != nullptr) {
    w.key("telemetry");
    telemetry->write_json(w);
  }
  w.end_object();
}

}  // namespace sttgpu::sim
