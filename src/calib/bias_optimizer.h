// Calibration steps 11-14: loop-delay trim and the iterative bias search.
//
// Step 13 initializes the configuration words of Gmin, the feedback DAC,
// the pre-amplifier and the comparator to their nominal design values;
// step 14 improves them iteratively through the measured SNR of the BP RF
// sigma-delta modulator (coordinate descent: coarse sweep then local
// refinement per block, repeated for a few passes).
#pragma once

#include <cstdint>
#include <vector>

#include "lock/evaluator.h"
#include "rf/receiver.h"
#include "rf/standards.h"
#include "sim/process.h"
#include "sim/rng.h"

namespace analock::calib {

class BiasOptimizer {
 public:
  struct Options {
    std::size_t passes = 2;       ///< coordinate-descent passes
    std::size_t fft_size = 4096;  ///< capture length per trial measurement
    double input_dbm = -25.0;     ///< reference power during optimization
    double snr_spec_db = 40.0;    ///< SNR specification (margin objective)
    double sfdr_spec_db = 40.0;   ///< SFDR specification (margin objective)
    /// SFDR is only measured once the SNR is within this many dB of its
    /// spec (lazy evaluation: the coarse sweeps are SNR-gated).
    double sfdr_gate_db = 15.0;
  };

  BiasOptimizer(const rf::Standard& standard,
                const sim::ProcessVariation& process, const sim::Rng& rng)
      : BiasOptimizer(standard, process, rng, Options{}) {}
  BiasOptimizer(const rf::Standard& standard,
                const sim::ProcessVariation& process, const sim::Rng& rng,
                Options options);

  /// Modulator-output SNR of a full configuration (one ATE measurement).
  double measure_snr(const rf::ReceiverConfig& config);

  /// Same measurement at an explicit input power (VGLNA segment tuning).
  double measure_snr_at(const rf::ReceiverConfig& config, double input_dbm);

  /// Two-tone SFDR of a configuration (ATE quick screen).
  double measure_sfdr(const rf::ReceiverConfig& config);

  /// Step-14 objective: worst specification margin,
  /// min(SNR - snr_spec, SFDR - sfdr_spec), with the SFDR measurement
  /// gated on the SNR being close to spec.
  double score(const rf::ReceiverConfig& config);

  /// Optimizes loop delay + the four bias words in place; returns the
  /// improved configuration. `config` must already have the tank codes
  /// set and the mode bits in mission state.
  rf::ReceiverConfig optimize(const rf::ReceiverConfig& config) {
    return optimize(config, options_.passes);
  }
  /// Same search with an explicit number of coordinate-descent passes.
  rf::ReceiverConfig optimize(const rf::ReceiverConfig& config,
                              std::size_t passes);

  [[nodiscard]] std::size_t measurements() const {
    return evaluator_.trials();
  }

  /// Forwards a fault campaign to the optimizer's oracle (not owned;
  /// nullptr detaches): every SNR/SFDR trial then sees the campaign's
  /// measurement faults.
  void set_fault_injector(fault::FaultInjector* injector) {
    evaluator_.set_fault_injector(injector);
  }

 private:
  /// Sweeps one field (coarse grid then +/-refine) maximizing score().
  void sweep_field(rf::ReceiverConfig& config, std::uint32_t* field,
                   std::uint32_t max_value, double& best_score);

  lock::LockEvaluator evaluator_;
  Options options_;
};

}  // namespace analock::calib
