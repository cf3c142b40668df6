#include "rf/receiver.h"

#include <algorithm>

#include "dsp/tonegen.h"
#include "par/thread_pool.h"
#include "rf/receiver_batch.h"

namespace analock::rf {

Receiver::Receiver(const Standard& standard,
                   const sim::ProcessVariation& process, const sim::Rng& rng)
    : standard_(&standard),
      vglna_(process, rng.fork("receiver-vglna"), standard.fs_hz()),
      modulator_(standard, process, rng.fork("receiver-modulator")) {
  configure(ReceiverConfig{});
}

void Receiver::configure(const ReceiverConfig& config) {
  config_ = config;
  vglna_.set_gain_code(config.vglna_gain);
  modulator_.configure(config.modulator);
}

ModulatorCapture Receiver::capture_modulator(std::span<const double> rf,
                                             std::size_t settle) {
  par::ThreadPool caller_thread(1);
  return {ReceiverBatch(*this).capture_modulator(rf, settle, caller_thread),
          fs_hz()};
}

ReceiverCapture Receiver::capture_receiver(std::span<const double> rf,
                                           std::size_t settle,
                                           std::size_t settle_baseband) {
  // Every baseband sample the whole of `rf` yields after the settle; an
  // input too short to fill the baseband settle yields none.
  const std::size_t blocks =
      rf.size() > settle
          ? (rf.size() - settle) / DigitalBackend::kTotalDecimation
          : 0;
  const std::size_t dropped = std::min(blocks, settle_baseband);
  par::ThreadPool caller_thread(1);
  ReceiverBatch one(*this);
  return {{one.capture_receiver(rf, settle, blocks - dropped, dropped,
                                caller_thread),
           one.baseband_fs_hz()}};
}

std::size_t receiver_input_length(std::size_t baseband_points,
                                  std::size_t settle,
                                  std::size_t settle_baseband) {
  return settle +
         (baseband_points + settle_baseband + 1) * DigitalBackend::kTotalDecimation;
}

double default_tone_offset_hz(const Standard& standard) {
  // 16 bins of an 8192-point FFT at fs: the tone sits well inside the
  // OSR-64 band (half-width 32 bins) while every aliased odd harmonic
  // k*(fs/4 + 16 bins) of a hard-limited waveform folds to |fs/4 -
  // 48 bins| or beyond — outside the band, so the SNR metrology measures
  // noise, not counting the limiter harmonics as in-band spurs.
  return 16.0 * standard.fs_hz() / 8192.0;
}

dsp::ToneGenerator test_tone(const Standard& standard, double dbm,
                             double offset_hz) {
  const double offset =
      offset_hz < 0.0 ? default_tone_offset_hz(standard) : offset_hz;
  return dsp::single_tone_dbm(standard.f0_hz + offset, dbm, standard.fs_hz());
}

std::vector<double> make_test_tone(const Standard& standard, double dbm,
                                   std::size_t n, double offset_hz) {
  return test_tone(standard, dbm, offset_hz).generate(n);
}

dsp::ToneGenerator two_tone(const Standard& standard, double dbm_per_tone,
                            double spacing_hz) {
  const double center = standard.f0_hz + default_tone_offset_hz(standard);
  return dsp::two_tone_dbm(center, spacing_hz, dbm_per_tone,
                           standard.fs_hz());
}

std::vector<double> make_two_tone(const Standard& standard,
                                  double dbm_per_tone, std::size_t n,
                                  double spacing_hz) {
  return two_tone(standard, dbm_per_tone, spacing_hz).generate(n);
}

}  // namespace analock::rf
