// Metrics registry: named counters, gauges, fixed-bucket histograms, and
// the span call tree every ANALOCK_SPAN reports into.
//
// Design rules (see DESIGN.md / ISSUE 1):
//  * thread-safe — counters and gauges are atomics, histograms take a
//    per-object mutex, the registry maps are mutex-guarded;
//  * zero-cost when disabled — every instrumentation helper checks
//    `registry().enabled()` first and the disabled path is one relaxed
//    atomic load;
//  * deterministic — all timestamps come from an injected Clock
//    (clock.h), never from an ambient time call;
//  * stable handles — Counter/Gauge/Histogram references stay valid for
//    the registry's lifetime; reset_values() zeroes them in place so
//    cached `static Counter&` handles in hot paths never dangle;
//  * one span aggregation — spans fold into a call tree keyed by their
//    path ("calib.run;calib.step06;eval.snr_modulator"). Each node keeps
//    calls, total and self time, self perf-counter deltas and a duration
//    histogram; the run report, the summary rows and the bench profile
//    all read this one tree.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/clock.h"
#include "obs/event.h"
#include "obs/prof/perf_counters.h"

namespace analock::obs {

/// Monotonic event counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written value (calibration residuals, best-so-far scores, ...).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Aggregate view of a histogram at one instant.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

/// Fixed-bucket histogram: bucket bounds are chosen at construction and
/// never reallocated, so observation is O(log buckets) under one mutex.
/// Quantiles interpolate linearly inside the winning bucket and clamp to
/// the exact observed [min, max].
class Histogram {
 public:
  /// `bounds` are inclusive upper edges, strictly increasing; one
  /// overflow bucket is added above the last edge.
  explicit Histogram(std::vector<double> bounds);

  void observe(double value);
  [[nodiscard]] std::uint64_t count() const;
  [[nodiscard]] double sum() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  /// q in [0, 1]. Returns 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] HistogramSnapshot snapshot() const;
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  void reset();

  /// `n` edges starting at `start`, each `factor` times the previous.
  static std::vector<double> exponential_bounds(double start, double factor,
                                                std::size_t n);
  /// Default span-duration buckets: 1 us .. ~34 s in milliseconds.
  static std::vector<double> default_duration_bounds_ms();

 private:
  [[nodiscard]] double quantile_locked(double q) const;

  mutable std::mutex mu_;
  std::vector<double> bounds_;  // immutable after construction
  std::vector<std::uint64_t> counts_;  // analock: guarded_by(mu_)
  std::uint64_t count_ = 0;  // analock: guarded_by(mu_)
  double sum_ = 0.0;  // analock: guarded_by(mu_)
  double min_ = 0.0;  // analock: guarded_by(mu_)
  double max_ = 0.0;  // analock: guarded_by(mu_)
};

/// One node of the span call tree, addressed by its path: the names of
/// the open spans joined by ';', outermost first.
struct SpanNode {
  std::string path;
  std::string name;  // leaf span name
  int depth = 0;     // 0 = outermost span
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;  // total minus the direct children's totals
  prof::CounterValues self_counters;  // counter deltas minus children's
  HistogramSnapshot dur_ms;           // per-call durations (ms)
};

/// Orders span paths depth-first: the ';' separator sorts below every
/// name character, so a subtree is contiguous and follows its root.
struct SpanPathLess {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const;
};

/// The process-wide metric and event hub. Usually accessed through the
/// global `registry()`, but fully instantiable for isolated tests.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Master switch. All instrumentation helpers no-op while disabled.
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Injects the time source (not owned). nullptr restores SteadyClock.
  void set_clock(const Clock* clock);
  [[nodiscard]] std::uint64_t now_ns() const;

  /// Named-metric accessors create on first use and return stable refs.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);
  Histogram& histogram(std::string_view name, std::vector<double> bounds);

  /// Folds one finished span into the call tree (called by TraceSpan).
  void record_span(std::string_view path, const char* name, int depth,
                   std::uint64_t total_ns, std::uint64_t self_ns,
                   const prof::CounterValues& self_counters);

  /// Counter group spans read at enter and exit for per-node counter
  /// attribution (not owned; nullptr = timing only).
  void set_perf_counters(const prof::PerfCounters* counters) {
    perf_counters_.store(counters, std::memory_order_release);
  }
  [[nodiscard]] const prof::PerfCounters* perf_counters() const {
    return perf_counters_.load(std::memory_order_acquire);
  }

  /// Event stream. The registry owns the sink; set nullptr to detach
  /// (flushes first).
  void set_sink(std::unique_ptr<EventSink> sink);
  [[nodiscard]] bool has_sink() const;
  void emit(const Event& event);
  void flush();

  /// Zeroes every metric value in place (registrations survive, so
  /// cached references stay valid) and empties the span tree.
  void reset_values();

  /// Sorted snapshots for reporting.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
  counters() const;
  [[nodiscard]] std::vector<std::pair<std::string, double>> gauges() const;
  [[nodiscard]] std::vector<std::pair<std::string, HistogramSnapshot>>
  histograms() const;
  /// The span tree in depth-first order: each parent precedes its
  /// children, siblings sorted by name.
  [[nodiscard]] std::vector<SpanNode> span_tree() const;

 private:
  std::atomic<bool> enabled_{false};
  // The default time source lives as long as the registry, so the
  // end-of-run summaries written from exit hooks can still read it.
  SteadyClock steady_clock_;
  std::atomic<const Clock*> clock_{nullptr};
  std::atomic<const prof::PerfCounters*> perf_counters_{nullptr};

  struct SpanSlot {
    SpanNode node;
    Histogram durations{Histogram::default_duration_bounds_ms()};
  };

  mutable std::mutex mu_;
  // analock: guarded_by(mu_)
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  // analock: guarded_by(mu_)
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  // analock: guarded_by(mu_)
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  // analock: guarded_by(mu_)
  std::map<std::string, SpanSlot, SpanPathLess> spans_;

  mutable std::mutex sink_mu_;
  std::unique_ptr<EventSink> sink_;  // analock: guarded_by(sink_mu_)
};

/// The global registry. First use applies the environment configuration:
///   ANALOCK_OBS=1            enable metrics/spans
///   ANALOCK_OBS_JSONL=<path> enable and attach a JsonlSink at <path>
///   ANALOCK_OBS_REPORT=1     print the run report at process exit
Registry& registry();

/// Cheap guarded helpers for instrumented code.
inline void count(std::string_view name, std::uint64_t n = 1) {
  Registry& reg = registry();
  if (reg.enabled()) reg.counter(name).add(n);
}
inline void set_gauge(std::string_view name, double value) {
  Registry& reg = registry();
  if (reg.enabled()) reg.gauge(name).set(value);
}
inline void observe(std::string_view name, double value) {
  Registry& reg = registry();
  if (reg.enabled()) reg.histogram(name).observe(value);
}

}  // namespace analock::obs
