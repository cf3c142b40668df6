// Per-layer cost probes for the traced run.
//
// Each probe times one public call of one layer at the production length
// the oracle trials use (10,240 input samples for a modulator-SNR trial,
// 134,208 for a receiver-SNR trial, 18,432 for an SFDR trial), on a fixed
// nominal chip and a one-worker pool, and reports the median of a few
// repetitions. The probes do not depend on the workload or its seed, so
// every traced run reports the same layer cost table, and the workload's
// own work counts turn it into a reconciliation of the job time.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

/// Probe results keyed by per-layer metric name (see BENCHMARK.json).
using LayerCosts = std::map<std::string, double>;

/// Runs the sim / rf / rf-batch / dsp / lock / par probes.
[[nodiscard]] LayerCosts run_layer_probes();

/// Modelled cost (ms) of one scalar oracle trial of each kind, built from
/// the layer costs: receiver build + stimulus + analog stepping (+ digital
/// backend) + periodogram + metric.
struct TrialModel {
  double modulator_ms = 0.0;
  double receiver_ms = 0.0;
  double sfdr_ms = 0.0;
  /// VGLNA + sigma-delta cost of one input sample (ns).
  double step_ns = 0.0;
};
[[nodiscard]] TrialModel trial_model(const LayerCosts& c);

}  // namespace perfbench
