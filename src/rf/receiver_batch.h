// Structure-of-arrays batch stepper: advances N receiver configurations
// (key candidates) in lockstep through one transient.
//
// Bit-exactness contract: for every lane, the produced capture equals —
// to the last bit — what a freshly constructed scalar `rf::Receiver`
// seeded from the same `rng` and configured with the same
// `ReceiverConfig` would produce. Three properties make that possible:
//
//   1. `sim::Rng::fork` is const and depends only on the parent's seed
//      material, so every scalar receiver built from the same evaluator
//      RNG replays identical noise streams regardless of the key. The
//      batch therefore draws each named stream (VGLNA, Gmin, tanks,
//      preamp, comparator, DAC, buffer) as raw unit deviates shared by
//      every lane of a worker's range, and scales per lane by that
//      lane's configured RMS with the same `0.0 + rms * g` expression
//      `sim::GaussianNoise` uses. Because the deviates depend on no key,
//      a `NoiseTape` can hold each stream's first L of them and the
//      stream's state after them: a window inside the tape is read in
//      place, and a window past it continues from the saved state, so a
//      tape changes no bit of any capture. Working memory is fixed by the
//      window size and the tape length, not by the transient length; a
//      stimulus given as a `dsp::ToneGenerator` is synthesized one window
//      at a time as well.
//   2. Every per-lane constant (gains, DAC levels, pole parameters,
//      noise RMS values) is harvested from a probe scalar `Receiver`
//      configured per lane — the config->parameter maps are never
//      re-derived here.
//   3. The per-sample arithmetic is the same inline kernels the scalar
//      blocks call (`Vglna::Stage::process`, `cubic_soft`,
//      `Resonator::advance`, `soft_rail`), applied in the same order.
//
// Lanes are sharded across a fixed thread pool in contiguous ranges, and
// each worker steps its range chunk-outer, lane-inner: it takes one
// window of the noise streams, then advances each of its lanes through
// it, carrying each lane's dynamic state from window to window in its
// own struct. Results are independent of the thread count by
// construction.
#pragma once

#include <array>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "dsp/tonegen.h"
#include "par/thread_pool.h"
#include "rf/receiver.h"
#include "sim/rng.h"

namespace analock::rf {

/// The key-independent prefix of a receiver's eight named noise streams:
/// for each stream, its first `length()` unit deviates and the stream's
/// state after them. A stream is drawn the first time a batch needs it
/// (Gmin and the output buffer only once some lane enables them), then
/// replayed by every later batch built on the tape. Drawing mutates the
/// tape, so one tape serves one caller thread; batch workers only read it.
class NoiseTape {
 public:
  enum Stream : std::size_t {
    kVg, kGm, kPre, kCmp, kDac, kBuf, kT1, kT2, kStreams
  };

  /// `rng` must be the stream a scalar `Receiver(standard, process, rng)`
  /// would get, as for ReceiverBatch.
  NoiseTape(const sim::Rng& rng, std::size_t length);

  [[nodiscard]] std::size_t length() const { return length_; }

  /// Draws stream `s`'s prefix unless it is already drawn.
  void draw(Stream s);

  /// The `length()` deviates of a drawn stream.
  [[nodiscard]] const double* prefix(Stream s) const {
    return prefix_[s].data();
  }
  /// A drawn stream's state after its prefix.
  [[nodiscard]] const sim::Rng& after(Stream s) const { return streams_[s]; }

 private:
  std::size_t length_;
  std::array<sim::Rng, kStreams> streams_;
  std::array<std::vector<double>, kStreams> prefix_;
  std::array<bool, kStreams> drawn_{};
};

class ReceiverBatch {
 public:
  /// Builds lane state for `configs`, probing one scalar Receiver per
  /// lane. All configs must share `digital_mode`. `rng` must be the
  /// same stream a scalar `Receiver(standard, process, rng)` would get.
  /// A `tape` (not owned; built from the same `rng`) supplies the noise
  /// prefix and is filled with whatever streams these lanes need; without
  /// one every capture draws its noise from the start of each stream.
  ReceiverBatch(const Standard& standard,
                const sim::ProcessVariation& process, const sim::Rng& rng,
                std::span<const ReceiverConfig> configs,
                NoiseTape* tape = nullptr);

  [[nodiscard]] std::size_t lanes() const { return lanes_; }
  [[nodiscard]] double fs_hz() const { return fs_hz_; }
  /// Decimated baseband rate of capture_receiver outputs.
  [[nodiscard]] double baseband_fs_hz() const {
    return fs_hz_ / static_cast<double>(DigitalBackend::kTotalDecimation);
  }

  /// Batched Receiver::capture_modulator: drives every lane with `rf`
  /// and returns the post-settle modulator outputs, lane-major — lane l
  /// occupies [l*(rf.size()-settle), (l+1)*(rf.size()-settle)).
  [[nodiscard]] std::vector<double> capture_modulator(
      std::span<const double> rf, std::size_t settle, par::ThreadPool& pool);

  /// Batched Receiver::capture_receiver limited to the baseband product:
  /// exactly `baseband_points` complex samples per lane, lane-major,
  /// after dropping `settle_baseband` leading baseband outputs.
  /// `rf.size()` must cover receiver_input_length(baseband_points,
  /// settle, settle_baseband).
  [[nodiscard]] std::vector<std::complex<double>> capture_receiver(
      std::span<const double> rf, std::size_t settle,
      std::size_t baseband_points, std::size_t settle_baseband,
      par::ThreadPool& pool);

  /// Stimulus-streaming forms of the captures above: the stimulus is the
  /// first `n` samples of `tone` from its current phase, synthesized one
  /// window at a time by each worker (`tone` itself is not advanced).
  [[nodiscard]] std::vector<double> capture_modulator(
      const dsp::ToneGenerator& tone, std::size_t n, std::size_t settle,
      par::ThreadPool& pool);
  [[nodiscard]] std::vector<std::complex<double>> capture_receiver(
      const dsp::ToneGenerator& tone, std::size_t n, std::size_t settle,
      std::size_t baseband_points, std::size_t settle_baseband,
      par::ThreadPool& pool);

 private:
  struct NoiseWindows;
  struct LaneState;
  struct Transient;
  using NeededStreams = std::array<bool, NoiseTape::kStreams>;

  /// The capture bodies shared by the span and streaming forms: size the
  /// output, complete `t` and run it.
  std::vector<double> run_modulator(Transient& t, std::size_t settle,
                                    par::ThreadPool& pool);
  std::vector<std::complex<double>> run_receiver(
      Transient& t, std::size_t settle, std::size_t baseband_points,
      std::size_t settle_baseband, par::ThreadPool& pool);

  /// Noise deviates one worker drew from a stream or read from the tape.
  struct NoiseWork {
    std::uint64_t drawn = 0;
    std::uint64_t replayed = 0;
  };

  /// Fills the tape with the streams the lanes need, then shards the
  /// lanes across `pool` and steps each shard through `t`. Adds the
  /// workers' noise work to the `rf.noise.drawn` / `rf.noise.replayed`
  /// counters once per call (the tape fill counts as drawn).
  void run(Transient& t, par::ThreadPool& pool);

  /// Steps lanes [begin, end) through `t` one chunk window at a time,
  /// stopping once every lane has produced its baseband output.
  NoiseWork run_lanes(std::size_t begin, std::size_t end,
                      const Transient& t) const;

  const Standard* standard_;
  NoiseTape* tape_;     ///< the caller's tape, or nullptr
  NoiseTape own_tape_;  ///< zero-length stand-in when there is none
  double fs_hz_;
  std::size_t lanes_ = 0;
  std::uint32_t digital_mode_ = 0;

  // Per-lane constants harvested from the probe receivers (SoA).
  std::vector<Vglna::Stage> vg_stage_;  // all 5 scalar stages identical
  std::vector<double> vg_rms_;
  std::vector<std::uint8_t> gmin_en_;
  std::vector<double> gm_eff_, gm_iip3_, gm_rms_;
  std::vector<std::uint8_t> fb_en_;
  std::vector<double> cos1_, rad1_, cos2_, rad2_;
  std::vector<double> pre_gain_, pre_rms_;
  std::vector<double> cmp_off_, cmp_rms_;
  std::vector<std::uint8_t> cmp_clk_;
  std::vector<double> dac_lp_, dac_lm_, dac_rms_;
  std::vector<std::size_t> dly_whole_;
  std::vector<double> dly_frac_;
  std::vector<std::uint8_t> mux_, buf_in_;
  std::vector<double> buf_gain_, buf_rms_;
  /// Streams some lane reads: Gmin and the output buffer only when a lane
  /// enables them.
  NeededStreams needed_ = {true,  false, true, true,
                           true,  false, true, true};

  // Shared digital-chain taps (mode is uniform across lanes).
  std::vector<double> hb_taps_;
  std::vector<double> channel_taps_;
};

}  // namespace analock::rf
