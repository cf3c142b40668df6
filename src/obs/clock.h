// Time sources for the observability layer.
//
// Every timestamp in the metrics registry, the trace spans, and the JSONL
// event stream comes from an explicit Clock object — never from a global
// time call sprinkled through the instrumentation. Tests inject a
// FakeClock and get byte-identical artifacts run after run.
#pragma once

#include <chrono>
#include <cstdint>

namespace analock::obs {

/// Monotonic nanosecond time source.
class Clock {
 public:
  virtual ~Clock() = default;
  [[nodiscard]] virtual std::uint64_t now_ns() const = 0;
};

/// Wall-clock implementation on std::chrono::steady_clock.
class SteadyClock final : public Clock {
 public:
  [[nodiscard]] std::uint64_t now_ns() const override {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            // analock-verify: allow(determinism-clock) the one injectable wall clock; tests swap in FakeClock
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }
};

/// Deterministic clock for tests: time moves only when told to, plus an
/// optional fixed auto-tick per reading so nested spans get distinct,
/// reproducible durations.
class FakeClock final : public Clock {
 public:
  explicit FakeClock(std::uint64_t auto_tick_ns = 0)
      : auto_tick_ns_(auto_tick_ns) {}

  [[nodiscard]] std::uint64_t now_ns() const override {
    const std::uint64_t t = ns_;
    ns_ += auto_tick_ns_;
    return t;
  }

  void advance_ns(std::uint64_t delta) { ns_ += delta; }
  void set_ns(std::uint64_t t) { ns_ = t; }

 private:
  mutable std::uint64_t ns_ = 0;
  std::uint64_t auto_tick_ns_ = 0;
};

}  // namespace analock::obs
