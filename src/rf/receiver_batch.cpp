#include "rf/receiver_batch.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <optional>

#include "dsp/fir.h"
#include "obs/trace.h"

namespace analock::rf {

namespace {

constexpr std::size_t kDelayDepth = FractionalDelayLine::kDepth;
constexpr std::size_t kHbTaps = 23;
constexpr std::size_t kChannelTaps = 31;
constexpr std::size_t kCicStages = DigitalBackend::kCicStages;
// Chunk window: keeps the pass-1 scratch (32 KiB) and the noise windows
// (256 KiB) cache-resident while amortizing the per-window lane-state
// copies.
constexpr std::size_t kChunk = 4096;

/// The eight named noise streams, forked along the chains the scalar
/// Receiver/BpSigmaDelta constructors walk.
std::array<sim::Rng, NoiseTape::kStreams> fork_noise_streams(
    const sim::Rng& rng) {
  const sim::Rng mod = rng.fork("receiver-modulator");
  std::array<sim::Rng, NoiseTape::kStreams> streams;
  streams[NoiseTape::kVg] = rng.fork("receiver-vglna").fork("vglna-noise");
  streams[NoiseTape::kGm] = mod.fork("sd-gmin").fork("gmin-noise");
  streams[NoiseTape::kPre] = mod.fork("sd-preamp").fork("preamp-noise");
  streams[NoiseTape::kCmp] =
      mod.fork("sd-comparator").fork("comparator-noise");
  streams[NoiseTape::kDac] = mod.fork("sd-dac").fork("dac-noise");
  streams[NoiseTape::kBuf] = mod.fork("sd-buffer").fork("buffer-noise");
  streams[NoiseTape::kT1] = mod.fork("sd-tank1");
  streams[NoiseTape::kT2] = mod.fork("sd-tank2");
  return streams;
}

/// A chip's own noise streams, in NoiseTape::Stream order.
std::array<sim::Rng*, NoiseTape::kStreams> live_noise_streams(
    Receiver& chip) {
  const auto mod = chip.modulator().noise_streams();
  return {&chip.vglna().noise_stream(), mod[0], mod[1], mod[2], mod[3],
          mod[4], mod[5], mod[6]};
}

}  // namespace

NoiseTape::NoiseTape(const sim::Rng& rng, std::size_t length)
    : length_(length), streams_(fork_noise_streams(rng)) {}

void NoiseTape::draw(Stream s) {
  if (drawn_[s]) return;
  std::vector<double>& prefix = prefix_[s];
  prefix.resize(length_);
  for (double& g : prefix) g = streams_[s].gaussian();
  drawn_[s] = true;
  obs::count("rf.noise.drawn", length_);
}

/// One worker's view of the needed noise streams, one chunk window at a
/// time. A window inside the tape points straight into it. Past the tape,
/// deviates are drawn into the worker's own window buffer: from its own
/// copy of the stream's saved post-tape state, or, in the live form
/// (no tape), from the chip's stream itself, which they advance. A window
/// that crosses the tape's end copies the tape's tail first. Lane values
/// are formed as `0.0 + rms[lane] * g[k]`, the exact expression
/// GaussianNoise applies per draw.
struct ReceiverBatch::NoiseWindows {
  NoiseWindows(const NoiseTape* source, const LiveStreams& live,
               const NeededStreams& mask)
      : tape(source), needed(mask) {
    for (std::size_t i = 0; i < NoiseTape::kStreams; ++i) {
      const auto s = static_cast<NoiseTape::Stream>(i);
      if (!needed[s]) continue;
      if (tape == nullptr) {
        stream[s] = live[s];
      } else {
        copies[s] = tape->after(s);
        stream[s] = &copies[s];
      }
    }
  }

  const NoiseTape* tape;
  const NeededStreams& needed;
  std::array<sim::Rng, NoiseTape::kStreams> copies;
  std::array<sim::Rng*, NoiseTape::kStreams> stream{};
  std::array<const double*, NoiseTape::kStreams> window{};
  std::vector<double> g;  ///< allocated once a window passes the tape
  std::uint64_t drawn = 0;
  std::uint64_t replayed = 0;

  /// Points every needed stream's window at its deviates [base, base + m).
  void next(std::size_t base, std::size_t m) {
    const std::size_t length = tape != nullptr ? tape->length() : 0;
    const std::size_t on_tape =
        base < length ? std::min(m, length - base) : 0;
    for (std::size_t i = 0; i < NoiseTape::kStreams; ++i) {
      const auto s = static_cast<NoiseTape::Stream>(i);
      if (!needed[s]) continue;
      replayed += on_tape;
      if (on_tape == m) {
        window[s] = tape->prefix(s) + base;
        continue;
      }
      if (g.empty()) g.resize(NoiseTape::kStreams * kChunk);
      double* dst = &g[s * kChunk];
      if (on_tape > 0) std::copy_n(tape->prefix(s) + base, on_tape, dst);
      sim::Rng& source = *stream[s];
      for (std::size_t k = on_tape; k < m; ++k) dst[k] = source.gaussian();
      drawn += m - on_tape;
      window[s] = dst;
    }
  }
};

/// One lane's dynamic state, carried from chunk window to chunk window
/// (a freshly built receiver is all zeros).
struct ReceiverBatch::LaneState {
  // Sigma-delta loop.
  double r1s1 = 0.0, r1s2 = 0.0, r2s1 = 0.0, r2s2 = 0.0;
  double u1 = 0.0, s11 = 0.0;
  double u_hist = 0.0, s1_hist = 0.0;
  double dbuf[kDelayDepth] = {};
  std::size_t dpos = 0;
  // Digital backend.
  double slicer = -1.0;
  unsigned mix_phase = 0;
  std::size_t cic_phase = 0;
  double ci_re[kCicStages] = {}, ci_im[kCicStages] = {};
  double cb_re[kCicStages] = {}, cb_im[kCicStages] = {};
  double h1_re[kHbTaps] = {}, h1_im[kHbTaps] = {};
  double h2_re[kHbTaps] = {}, h2_im[kHbTaps] = {};
  std::size_t h1_next = 0, h1_count = 0, h1_phase = 0;
  std::size_t h2_next = 0, h2_count = 0, h2_phase = 0;
  double ch_re[kChannelTaps] = {}, ch_im[kChannelTaps] = {};
  std::size_t ch_pos = 0;
  std::size_t produced = 0;
  bool done = false;  ///< every requested baseband sample is written
};

/// One capture request: the stimulus, the noise tape and where each
/// lane's output goes.
struct ReceiverBatch::Transient {
  /// `n` stimulus samples: `rf` when given, else synthesized from `tone`.
  std::size_t n = 0;
  std::span<const double> rf;
  const dsp::ToneGenerator* tone = nullptr;
  const NoiseTape* tape = nullptr;
  std::size_t settle = 0;
  /// False: write post-settle modulator outputs into `mod_out`
  /// (lane-major, n - settle per lane). True: run the digital
  /// backend and write `baseband_points` samples per lane into `bb_out`.
  bool run_backend = false;
  std::size_t baseband_points = 0;
  std::size_t settle_baseband = 0;
  std::span<double> mod_out;
  std::span<std::complex<double>> bb_out;
};

ReceiverBatch::ReceiverBatch(const Standard& standard,
                             const sim::ProcessVariation& process,
                             const sim::Rng& rng,
                             std::span<const ReceiverConfig> configs,
                             NoiseTape* tape)
    : tape_(tape), fs_hz_(standard.fs_hz()), consts_(configs.size()) {
  assert(!configs.empty() && "batch needs at least one lane");
  if (tape_ == nullptr) tape_ = &own_tape_.emplace(rng, 0);
  digital_mode_ = configs[0].digital_mode;
  for (std::size_t l = 0; l < configs.size(); ++l) {
    // Probe receiver: the scalar blocks own every config->parameter map;
    // harvest the configured constants instead of re-deriving them.
    Receiver probe(standard, process, rng);
    probe.configure(configs[l]);
    add_lane(l, probe);
  }
  hb_taps_ = dsp::design_halfband(kHbTaps);
  channel_taps_ = DigitalBackend::channel_taps_for_mode(digital_mode_);
}

ReceiverBatch::ReceiverBatch(Receiver& chip)
    : live_(live_noise_streams(chip)),
      fs_hz_(chip.fs_hz()),
      digital_mode_(chip.config().digital_mode),
      consts_(1) {
  add_lane(0, chip);
  hb_taps_ = dsp::design_halfband(kHbTaps);
  channel_taps_ = DigitalBackend::channel_taps_for_mode(digital_mode_);
}

void ReceiverBatch::add_lane(std::size_t lane, const Receiver& chip) {
  const ModulatorConfig& mc = chip.config().modulator;
  assert(chip.config().digital_mode == digital_mode_ &&
         "batch lanes must share the digital mode");
  const Vglna& vg = chip.vglna();
  const BpSigmaDelta& mod = chip.modulator();
  // Same clamp/split the scalar FractionalDelayLine::read applies.
  const double d = std::clamp(mod.delay_line().total_delay_samples(), 0.0,
                              static_cast<double>(kDelayDepth - 2));
  const auto dly_whole = static_cast<std::size_t>(d);
  const LaneConstants c{
      .vg_stage = vg.stages()[0],
      .vg_rms = vg.noise_rms(),
      .gmin_en = mc.gmin_enable,
      .gm_eff = mod.gmin().effective_gm(),
      .gm_iip3 = mod.gmin().iip3_amplitude(),
      .gm_rms = mod.gmin().noise_rms(),
      .fb_en = mc.feedback_enable,
      .cos1 = mod.resonator1().cos_theta(),
      .rad1 = mod.resonator1().radius(),
      .cos2 = mod.resonator2().cos_theta(),
      .rad2 = mod.resonator2().radius(),
      .pre_gain = mod.preamp().effective_gain(),
      .pre_rms = mod.preamp().noise_rms(),
      .cmp_off = mod.comparator().effective_offset(),
      .cmp_rms = mod.comparator().noise_rms(),
      .cmp_clk = mod.comparator().clock_enabled(),
      .dac_lp = mod.dac().level_plus(),
      .dac_lm = mod.dac().level_minus(),
      .dac_rms = mod.dac().noise_rms(),
      .dly_whole = dly_whole,
      .dly_frac = d - static_cast<double>(dly_whole),
      .mux = static_cast<std::uint8_t>(mc.test_mux & 3u),
      .buf_in = mc.buffer_in_path,
      .buf_gain = mod.out_buffer().gain(),
      .buf_rms = mod.out_buffer().noise_rms(),
  };
  // GaussianNoise skips its draw at RMS 0, but the kernel draws every
  // stream a lane reads. No reachable code has RMS 0: bias_multiplier()
  // floors at 0.01, so the 1/sqrt(m) terms stay finite; the comparator's
  // process scale 1 + rel exceeds 0.14 (a Box-Muller deviate stays below
  // 8.6 sigma); the DAC adds a fixed floor; the VGLNA's NF is >= 1 dB.
  assert(c.vg_rms > 0.0 && c.gm_rms > 0.0 && c.pre_rms > 0.0 &&
         c.cmp_rms > 0.0 && c.dac_rms > 0.0 && c.buf_rms > 0.0 &&
         "every stream the kernel draws has a positive RMS");
  consts_[lane] = c;
  needed_[NoiseTape::kGm] = needed_[NoiseTape::kGm] || c.gmin_en;
  needed_[NoiseTape::kBuf] = needed_[NoiseTape::kBuf] || c.buf_in;
}

void ReceiverBatch::run(Transient& t, par::ThreadPool& pool) {
  if (tape_ != nullptr) {
    for (std::size_t i = 0; i < NoiseTape::kStreams; ++i) {
      const auto s = static_cast<NoiseTape::Stream>(i);
      if (needed_[s]) tape_->draw(s);
    }
  }
  t.tape = tape_;
  std::atomic<std::uint64_t> drawn{0};
  std::atomic<std::uint64_t> replayed{0};
  pool.parallel_for(lanes(), [&](std::size_t begin, std::size_t end) {
    const NoiseWork work = run_lanes(begin, end, t);
    drawn += work.drawn;
    replayed += work.replayed;
  });
  obs::count("rf.noise.drawn", drawn);
  obs::count("rf.noise.replayed", replayed);
}

// analock: thread_safe parallel_region
ReceiverBatch::NoiseWork ReceiverBatch::run_lanes(std::size_t begin,
                                                  std::size_t end,
                                                  const Transient& t) const {
  // Chunk-outer, lane-inner: each window of the shared noise streams is
  // taken once, then every lane of [begin, end) steps through it. Per
  // lane, every constant is hoisted into a register, every
  // flag-dependent branch is loop-invariant, and the dynamic state is
  // copied into a local for the window and written back after it. The
  // shared cost (noise, stimulus, FFT plans) is paid once per worker;
  // per lane only the arithmetic the scalar chain would do remains,
  // minus its ~8 RNG draws per sample.
  //
  // Each window runs in two passes. The VGLNA cascade and transconductor
  // have no state, so pass 1 evaluates them for the whole window of
  // independent samples — the out-of-order core overlaps their long
  // multiply chains across iterations instead of serializing them into
  // the resonator recurrence. Pass 2 consumes the buffered loop signal
  // and advances the stateful chain. Per-sample expression order is
  // unchanged, so the split is bit-exact.
  const std::size_t n = t.n;
  const std::size_t settle = t.settle;
  const std::size_t n_mod = n > settle ? n - settle : 0;
  NoiseWindows noise(t.tape, live_, needed_);
  // A streamed stimulus continues this worker's own copy of the
  // generator, window by window, in the order make_test_tone runs it.
  std::optional<dsp::ToneGenerator> tone;
  if (t.tone != nullptr) tone.emplace(*t.tone);
  std::vector<LaneState> states(end - begin);
  double u_buf[kChunk];
  double rf_buf[kChunk];

  const std::size_t bb_needed = t.settle_baseband + t.baseband_points;
  // CIC normalization: replicate the scalar gain accumulation exactly.
  double cic_gain = 1.0;
  for (std::size_t c = 0; c < kCicStages; ++c) {
    cic_gain *= static_cast<double>(DigitalBackend::kCicFactor);
  }
  const double cic_inv_gain = 1.0 / cic_gain;
  const double* hb = hb_taps_.data();
  const double* ch_taps = channel_taps_.data();
  const std::size_t n_ch_taps = channel_taps_.size();

  bool all_done = false;
  for (std::size_t base = 0; base < n && !all_done; base += kChunk) {
    const std::size_t m = std::min(kChunk, n - base);
    const double* rf_p = rf_buf;
    if (tone) {
      for (std::size_t k = 0; k < m; ++k) rf_buf[k] = tone->next();
    } else {
      rf_p = t.rf.data() + base;
    }
    noise.next(base, m);
    const double* nvg_p = noise.window[NoiseTape::kVg];
    const double* ngm_p = noise.window[NoiseTape::kGm];
    const double* nt1_p = noise.window[NoiseTape::kT1];
    const double* nt2_p = noise.window[NoiseTape::kT2];
    const double* npre_p = noise.window[NoiseTape::kPre];
    const double* ncmp_p = noise.window[NoiseTape::kCmp];
    const double* ndac_p = noise.window[NoiseTape::kDac];
    const double* nbuf_p = noise.window[NoiseTape::kBuf];
    // Modulator captures run to the end of the stimulus; receiver
    // captures stop once every lane has written its baseband output,
    // except a live one (no tape): its borrowed streams must advance by
    // one draw per stimulus sample, as the scalar chain's would.
    all_done = t.run_backend && t.tape != nullptr;
    for (std::size_t l = begin; l < end; ++l) {
      LaneState s = states[l - begin];
      if (s.done) continue;

      // ---- per-lane constants -> registers ----------------------------
      const LaneConstants lc = consts_[l];
      // The comparator's analog (unclocked) value only reaches the output
      // when the test mux selects it; otherwise downstream code consumes
      // nothing but sign(yq), and tanh is odd and monotone with
      // tanh(0) == 0, so the sign of its argument stands in bit-exactly.
      const bool cmp_value_used = lc.mux == 0;

      double* mod_lane = t.run_backend ? nullptr : &t.mod_out[l * n_mod];
      std::complex<double>* bb_lane =
          t.run_backend ? t.bb_out.data() + l * t.baseband_points : nullptr;

      // ---- pass 1: stateless front end (VGLNA + transconductor) -------
      // A disabled transconductor pins the loop signal to zero, which
      // makes the whole VGLNA cascade dead code for this lane.
      if (lc.gmin_en) {
        for (std::size_t k = 0; k < m; ++k) {
          double y = rf_p[k] + (0.0 + lc.vg_rms * nvg_p[k]);
          y = lc.vg_stage.process(y);
          y = lc.vg_stage.process(y);
          y = lc.vg_stage.process(y);
          y = lc.vg_stage.process(y);
          y = lc.vg_stage.process(y);
          u_buf[k] = lc.gm_eff * cubic_soft(y, lc.gm_iip3) +
                     (0.0 + lc.gm_rms * ngm_p[k]);
        }
      } else {
        std::fill(u_buf, u_buf + m, 0.0);
      }

      // ---- pass 2: stateful loop + digital backend --------------------
      for (std::size_t k = 0; k < m; ++k) {
        const std::size_t i = base + k;
        const double u = u_buf[k];

        // Feedback sample from the fractional delay line.
        double fb = 0.0;
        if (lc.fb_en) {
          const std::size_t i0 =
              (s.dpos + kDelayDepth - lc.dly_whole) % kDelayDepth;
          const std::size_t i1 =
              (s.dpos + kDelayDepth - lc.dly_whole - 1) % kDelayDepth;
          fb = (1.0 - lc.dly_frac) * s.dbuf[i0] + lc.dly_frac * s.dbuf[i1];
        }

        const double s1 = Resonator::advance(
            s.r1s1, s.r1s2, lc.cos1, lc.rad1,
            -(s.u_hist - fb) +
                (0.0 + BpSigmaDelta::kTankNoiseRms * nt1_p[k]));
        const double s2 = Resonator::advance(
            s.r2s1, s.r2s2, lc.cos2, lc.rad2,
            -(s.s1_hist - 2.0 * fb) +
                (0.0 + BpSigmaDelta::kTankNoiseRms * nt2_p[k]));
        s.u_hist = s.u1;
        s.u1 = u;
        s.s1_hist = s.s11;
        s.s11 = s1;

        // Quantizer path.
        const double pre =
            std::clamp(lc.pre_gain * s2 + (0.0 + lc.pre_rms * npre_p[k]),
                       -PreAmplifier::kRail, PreAmplifier::kRail);
        const double v = pre + lc.cmp_off + (0.0 + lc.cmp_rms * ncmp_p[k]);
        double yq;
        if (lc.cmp_clk) {
          yq = v >= 0.0 ? 1.0 : -1.0;
        } else if (cmp_value_used) {
          yq = Comparator::kBufferRail * std::tanh(v);
        } else {
          yq = v >= 0.0 ? 1.0 : -1.0;
        }

        // DAC drives the delay line whether or not the loop is closed.
        const double fbv = (yq >= 0.0 ? lc.dac_lp : lc.dac_lm) +
                           (0.0 + lc.dac_rms * ndac_p[k]);
        s.dpos = (s.dpos + 1) % kDelayDepth;
        s.dbuf[s.dpos] = fbv;

        double out = yq;
        switch (lc.mux) {
          case 1:
            out = Comparator::kBufferRail * (s1 / Resonator::kStateRail);
            break;
          case 2:
            out = Comparator::kBufferRail * (pre / PreAmplifier::kRail);
            break;
          case 3:
            out = 0.0;
            break;
          default:
            break;
        }
        if (lc.buf_in) {
          out = std::clamp(lc.buf_gain * out + (0.0 + lc.buf_rms * nbuf_p[k]),
                           -OutputBuffer::kRail, OutputBuffer::kRail);
        }

        if (!t.run_backend) {
          if (i >= settle) mod_lane[i - settle] = out;
          continue;
        }
        if (i < settle) continue;

        // ---- digital backend (this lane) ------------------------------
        // Schmitt slicer.
        if (out > DigitalBackend::kLogicVih) {
          s.slicer = 1.0;
        } else if (out < DigitalBackend::kLogicVil) {
          s.slicer = -1.0;
        }
        // fs/4 mixer: the LO samples are exact, one component is always 0.
        double acc_re, acc_im;
        switch (s.mix_phase) {
          case 0:
            acc_re = s.slicer;
            acc_im = 0.0;
            break;
          case 1:
            acc_re = 0.0;
            acc_im = -s.slicer;
            break;
          case 2:
            acc_re = -s.slicer;
            acc_im = 0.0;
            break;
          default:
            acc_re = 0.0;
            acc_im = s.slicer;
            break;
        }
        s.mix_phase = (s.mix_phase + 1) & 3u;

        // CIC integrators run every sample.
        for (std::size_t c = 0; c < kCicStages; ++c) {
          s.ci_re[c] += acc_re;
          acc_re = s.ci_re[c];
          s.ci_im[c] += acc_im;
          acc_im = s.ci_im[c];
        }
        if (++s.cic_phase < DigitalBackend::kCicFactor) continue;
        s.cic_phase = 0;
        for (std::size_t c = 0; c < kCicStages; ++c) {
          const double prev_r = s.cb_re[c];
          s.cb_re[c] = acc_re;
          acc_re = acc_re - prev_r;
          const double prev_i = s.cb_im[c];
          s.cb_im[c] = acc_im;
          acc_im = acc_im - prev_i;
        }
        acc_re *= cic_inv_gain;
        acc_im *= cic_inv_gain;

        // Half-band stage 1: history advances on every CIC output, the dot
        // product fires every second one (DecimatingFir semantics,
        // including the shorter dot while the history fills).
        s.h1_re[s.h1_next] = acc_re;
        s.h1_im[s.h1_next] = acc_im;
        const std::size_t h1_newest = s.h1_next;
        s.h1_next = (s.h1_next + 1) % kHbTaps;
        if (s.h1_count < kHbTaps) ++s.h1_count;
        if (++s.h1_phase < 2) continue;
        s.h1_phase = 0;
        acc_re = 0.0;
        acc_im = 0.0;
        {
          std::size_t slot = h1_newest;
          for (std::size_t tap = 0; tap < s.h1_count; ++tap) {
            acc_re += s.h1_re[slot] * hb[tap];
            acc_im += s.h1_im[slot] * hb[tap];
            slot = slot == 0 ? kHbTaps - 1 : slot - 1;
          }
        }

        // Half-band stage 2.
        s.h2_re[s.h2_next] = acc_re;
        s.h2_im[s.h2_next] = acc_im;
        const std::size_t h2_newest = s.h2_next;
        s.h2_next = (s.h2_next + 1) % kHbTaps;
        if (s.h2_count < kHbTaps) ++s.h2_count;
        if (++s.h2_phase < 2) continue;
        s.h2_phase = 0;
        acc_re = 0.0;
        acc_im = 0.0;
        {
          std::size_t slot = h2_newest;
          for (std::size_t tap = 0; tap < s.h2_count; ++tap) {
            acc_re += s.h2_re[slot] * hb[tap];
            acc_im += s.h2_im[slot] * hb[tap];
            slot = slot == 0 ? kHbTaps - 1 : slot - 1;
          }
        }

        // Channel FIR (fixed-length circular history, zero-filled).
        s.ch_re[s.ch_pos] = acc_re;
        s.ch_im[s.ch_pos] = acc_im;
        double out_re = 0.0, out_im = 0.0;
        std::size_t idx = s.ch_pos;
        for (std::size_t tap = 0; tap < n_ch_taps; ++tap) {
          out_re += s.ch_re[idx] * ch_taps[tap];
          out_im += s.ch_im[idx] * ch_taps[tap];
          idx = idx == 0 ? kChannelTaps - 1 : idx - 1;
        }
        s.ch_pos = (s.ch_pos + 1) % kChannelTaps;

        if (s.produced >= t.settle_baseband &&
            s.produced - t.settle_baseband < t.baseband_points) {
          bb_lane[s.produced - t.settle_baseband] = {out_re, out_im};
        }
        ++s.produced;
        if (s.produced >= bb_needed) {
          s.done = true;
          break;
        }
      }
      states[l - begin] = s;
      all_done = all_done && s.done;
    }
  }
  return {noise.drawn, noise.replayed};
}

std::vector<double> ReceiverBatch::capture_modulator(
    std::span<const double> rf, std::size_t settle, par::ThreadPool& pool) {
  Transient t;
  t.n = rf.size();
  t.rf = rf;
  return run_modulator(t, settle, pool);
}

std::vector<double> ReceiverBatch::capture_modulator(
    const dsp::ToneGenerator& tone, std::size_t n, std::size_t settle,
    par::ThreadPool& pool) {
  Transient t;
  t.n = n;
  t.tone = &tone;
  return run_modulator(t, settle, pool);
}

std::vector<std::complex<double>> ReceiverBatch::capture_receiver(
    std::span<const double> rf, std::size_t settle,
    std::size_t baseband_points, std::size_t settle_baseband,
    par::ThreadPool& pool) {
  Transient t;
  t.n = rf.size();
  t.rf = rf;
  return run_receiver(t, settle, baseband_points, settle_baseband, pool);
}

std::vector<std::complex<double>> ReceiverBatch::capture_receiver(
    const dsp::ToneGenerator& tone, std::size_t n, std::size_t settle,
    std::size_t baseband_points, std::size_t settle_baseband,
    par::ThreadPool& pool) {
  Transient t;
  t.n = n;
  t.tone = &tone;
  return run_receiver(t, settle, baseband_points, settle_baseband, pool);
}

std::vector<double> ReceiverBatch::run_modulator(Transient& t,
                                                 std::size_t settle,
                                                 par::ThreadPool& pool) {
  ANALOCK_SPAN_QUIET("rf.batch.capture_modulator");
  assert(t.n > settle);
  std::vector<double> out(lanes() * (t.n - settle));
  t.settle = settle;
  t.mod_out = out;
  run(t, pool);
  return out;
}

std::vector<std::complex<double>> ReceiverBatch::run_receiver(
    Transient& t, std::size_t settle, std::size_t baseband_points,
    std::size_t settle_baseband, par::ThreadPool& pool) {
  ANALOCK_SPAN_QUIET("rf.batch.capture_receiver");
  assert(t.n >= settle + (settle_baseband + baseband_points) *
                             DigitalBackend::kTotalDecimation);
  std::vector<std::complex<double>> out(lanes() * baseband_points);
  t.settle = settle;
  t.run_backend = true;
  t.baseband_points = baseband_points;
  t.settle_baseband = settle_baseband;
  t.bb_out = out;
  run(t, pool);
  return out;
}

}  // namespace analock::rf
