// Structure-of-arrays batch stepper: advances N receiver configurations
// (key candidates) in lockstep through one transient. It is the one
// stepping path of the simulator: every oracle trial runs on it, and so
// does every rf::Receiver capture, as a one-lane run on the chip itself.
//
// Bit-exactness contract: for every lane, the produced capture equals —
// to the last bit — what stepping the scalar blocks of an `rf::Receiver`
// seeded from the same `rng` and configured with the same
// `ReceiverConfig` would produce, sample by sample through
// `Vglna::process`, `BpSigmaDelta::step` and `DigitalBackend::process`
// from reset dynamic state (that chain survives as the independent
// reference in the tests). Three properties make that possible:
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
//      The one-lane live form (`ReceiverBatch(Receiver&)`) has no tape: it
//      borrows the chip's own streams and draws from them in place, one
//      deviate per stimulus sample for each stream the chip's blocks
//      would draw (Gmin only when enabled, the output buffer only when in
//      path), so a capture leaves every stream exactly where the scalar
//      chain would and the next capture continues from there.
//   2. Every per-lane constant (gains, DAC levels, pole parameters,
//      noise RMS values) is harvested from a probe scalar `Receiver`
//      configured per lane (the chip itself in the live form) — the
//      config->parameter maps are never re-derived here.
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
#include <optional>
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

  /// The live one-lane form: one lane with `chip`'s current
  /// configuration, whose captures draw the chip's own noise streams and
  /// advance them in place (see contract 1). Every capture runs to the end of its
  /// stimulus on the calling thread, whatever pool it is given. The batch
  /// must not outlive `chip` or see it reconfigured.
  explicit ReceiverBatch(Receiver& chip);

  // Holds a pointer to its own zero-length tape.
  ReceiverBatch(const ReceiverBatch&) = delete;
  ReceiverBatch& operator=(const ReceiverBatch&) = delete;

  [[nodiscard]] std::size_t lanes() const { return consts_.size(); }
  /// Decimated baseband rate of capture_receiver outputs.
  [[nodiscard]] double baseband_fs_hz() const {
    return fs_hz_ / static_cast<double>(DigitalBackend::kTotalDecimation);
  }

  /// Drives every lane with `rf` and returns the post-settle modulator
  /// outputs, lane-major — lane l occupies
  /// [l*(rf.size()-settle), (l+1)*(rf.size()-settle)).
  [[nodiscard]] std::vector<double> capture_modulator(
      std::span<const double> rf, std::size_t settle, par::ThreadPool& pool);

  /// Runs the full receive chain and returns exactly `baseband_points`
  /// complex samples per lane, lane-major, after dropping
  /// `settle_baseband` leading baseband outputs. `rf.size()` must cover
  /// settle + (settle_baseband + baseband_points) *
  /// DigitalBackend::kTotalDecimation samples.
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
  using LiveStreams = std::array<sim::Rng*, NoiseTape::kStreams>;

  /// Harvests `chip`'s configured constants as lane `lane`'s and marks
  /// the streams it reads.
  void add_lane(std::size_t lane, const Receiver& chip);

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
  /// stopping once every lane has produced its baseband output (a live
  /// capture runs to the end of the stimulus instead).
  NoiseWork run_lanes(std::size_t begin, std::size_t end,
                      const Transient& t) const;

  /// The caller's tape or `own_tape_`; nullptr in the live form.
  NoiseTape* tape_ = nullptr;
  std::optional<NoiseTape> own_tape_;  ///< zero-length stand-in
  /// The live form's borrowed streams (the chip's own); null otherwise.
  LiveStreams live_{};
  double fs_hz_;
  std::uint32_t digital_mode_ = 0;

  /// One lane's constants, harvested from a configured receiver.
  struct LaneConstants {
    Vglna::Stage vg_stage;  ///< all five scalar stages are identical
    double vg_rms;
    bool gmin_en;
    double gm_eff, gm_iip3, gm_rms;
    bool fb_en;
    double cos1, rad1, cos2, rad2;
    double pre_gain, pre_rms;
    double cmp_off, cmp_rms;
    bool cmp_clk;
    double dac_lp, dac_lm, dac_rms;
    std::size_t dly_whole;
    double dly_frac;
    std::uint8_t mux;
    bool buf_in;
    double buf_gain, buf_rms;
  };
  std::vector<LaneConstants> consts_;
  /// Streams some lane reads: Gmin and the output buffer only when a lane
  /// enables them.
  NeededStreams needed_ = {true,  false, true, true,
                           true,  false, true, true};

  // Shared digital-chain taps (mode is uniform across lanes).
  std::vector<double> hb_taps_;
  std::vector<double> channel_taps_;
};

}  // namespace analock::rf
