// Threaded stress test for the observability layer, built to run under
// ThreadSanitizer (configure with -DANALOCK_SANITIZE=thread, preset
// "tsan"; registered with ctest as `tsan_obs_stress`).
//
// The registry's contract says counters/gauges are atomics, histograms
// take a per-object mutex, and the maps + sink are mutex-guarded. This
// test hammers every one of those paths from many threads at once —
// metric creation races, span emission against sink swaps, snapshot
// readers against writers, reset_values against hot counters — so a
// locking regression shows up as a TSan report (or, without TSan, as a
// lost-update miscount in the deterministic phase).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.h"

namespace {

using analock::obs::CollectorSink;
using analock::obs::Registry;

constexpr unsigned kThreads = 8;
constexpr unsigned kItersPerThread = 2000;

/// RAII guard: enables the global registry with a fresh collector sink,
/// restores the disabled/no-sink state afterwards so other tests in the
/// binary see the registry exactly as they expect it.
class ScopedObs {
 public:
  ScopedObs() {
    auto sink = std::make_unique<CollectorSink>();
    collector_ = sink.get();
    analock::obs::registry().set_sink(std::move(sink));
    analock::obs::registry().set_enabled(true);
  }
  ~ScopedObs() {
    analock::obs::registry().set_enabled(false);
    analock::obs::registry().set_sink(nullptr);
    analock::obs::registry().reset_values();
  }
  [[nodiscard]] CollectorSink& collector() { return *collector_; }

 private:
  CollectorSink* collector_ = nullptr;
};

std::uint64_t counter_value(const Registry& reg, const std::string& name) {
  for (const auto& [counter_name, value] : reg.counters()) {
    if (counter_name == name) return value;
  }
  return 0;
}

// Every thread pounds the same counter, its own counter, a shared
// histogram, nested spans, and point events. Totals are exact: any lost
// update is a locking bug even without TSan.
TEST(ObsStress, ConcurrentWritersKeepExactTotals) {
  ScopedObs obs;
  Registry& reg = analock::obs::registry();

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([t] {
      const std::string own_counter =
          "stress.thread." + std::to_string(t);
      for (unsigned i = 0; i < kItersPerThread; ++i) {
        ANALOCK_SPAN_QUIET("stress.outer");
        analock::obs::count("stress.shared");
        analock::obs::count(own_counter);
        analock::obs::set_gauge("stress.gauge", static_cast<double>(i));
        analock::obs::observe("stress.histogram",
                              static_cast<double>(i % 97));
        {
          ANALOCK_SPAN("stress.inner");
          if (i % 64 == 0) {
            analock::obs::event(
                "stress.tick",
                {{"thread", static_cast<std::uint64_t>(t)},
                 {"iter", static_cast<std::uint64_t>(i)}});
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(counter_value(reg, "stress.shared"),
            std::uint64_t{kThreads} * kItersPerThread);
  for (unsigned t = 0; t < kThreads; ++t) {
    EXPECT_EQ(counter_value(reg, "stress.thread." + std::to_string(t)),
              std::uint64_t{kItersPerThread});
  }

  bool found_histogram = false;
  for (const auto& [name, snap] : reg.histograms()) {
    if (name == "stress.histogram") {
      found_histogram = true;
      EXPECT_EQ(snap.count, std::uint64_t{kThreads} * kItersPerThread);
    }
  }
  EXPECT_TRUE(found_histogram);

  bool found_span = false;
  for (const analock::obs::SpanNode& node : reg.span_tree()) {
    if (node.path == "stress.outer;stress.inner") {
      found_span = true;
      EXPECT_EQ(node.calls, std::uint64_t{kThreads} * kItersPerThread);
      EXPECT_EQ(node.dur_ms.count, node.calls);
    }
  }
  EXPECT_TRUE(found_span);

  // One tick event per 64 iterations per thread reached the sink (the
  // collector also holds one "span" event per stress.inner scope).
  std::size_t ticks = 0;
  for (const auto& e : obs.collector().events()) {
    if (e.name == "stress.tick") ++ticks;
  }
  EXPECT_EQ(ticks, std::size_t{kThreads} * ((kItersPerThread + 63) / 64));
  EXPECT_EQ(obs.collector().events().size(),
            ticks + std::size_t{kThreads} * kItersPerThread);
}

// Threads open differently shaped nested stacks at once. Each thread's
// frame stack is its own, so every path's call count is exact, and no
// node can report more self time than total time.
TEST(ObsStress, NestedSpansFromManyThreadsFoldIntoExactTree) {
  ScopedObs obs;
  Registry& reg = analock::obs::registry();
  reg.set_sink(nullptr);  // per-call span events are not under test here
  reg.reset_values();

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([t] {
      for (unsigned i = 0; i < kItersPerThread; ++i) {
        ANALOCK_SPAN_QUIET("tree.root");
        {
          ANALOCK_SPAN_QUIET("tree.mid");
          { ANALOCK_SPAN_QUIET("tree.leaf"); }
          if (t % 2 == 0) { ANALOCK_SPAN_QUIET("tree.leaf"); }
        }
        if (i % 4 == 0) { ANALOCK_SPAN("tree.side"); }
      }
    });
  }
  for (auto& w : workers) w.join();

  const std::uint64_t iters = std::uint64_t{kThreads} * kItersPerThread;
  const std::uint64_t even_threads = (kThreads + 1) / 2;
  const std::map<std::string, std::uint64_t> expected = {
      {"tree.root", iters},
      {"tree.root;tree.mid", iters},
      {"tree.root;tree.mid;tree.leaf",
       iters + even_threads * kItersPerThread},
      {"tree.root;tree.side",
       std::uint64_t{kThreads} * ((kItersPerThread + 3) / 4)},
  };
  std::map<std::string, std::uint64_t> seen;
  for (const analock::obs::SpanNode& node : reg.span_tree()) {
    seen[node.path] = node.calls;
    EXPECT_LE(node.self_ns, node.total_ns) << node.path;
    EXPECT_EQ(node.dur_ms.count, node.calls) << node.path;
  }
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(analock::obs::TraceSpan::current_depth(), 0);
}

// Chaos phase: snapshot readers, reset_values, flush, enable/disable
// flips, and sink swaps run concurrently with writers. No totals to
// assert — the point is that TSan sees no race and nothing crashes.
TEST(ObsStress, ReadersResetsAndSinkSwapsAgainstWriters) {
  ScopedObs obs;
  Registry& reg = analock::obs::registry();
  std::atomic<bool> stop{false};

  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads / 2; ++t) {
    workers.emplace_back([&stop, t] {
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        ANALOCK_SPAN_QUIET("chaos.span");
        analock::obs::count("chaos.counter");
        analock::obs::observe("chaos.histogram",
                              static_cast<double>(i % 31));
        analock::obs::event("chaos.event",
                            {{"thread", static_cast<std::uint64_t>(t)}});
        ++i;
      }
    });
  }
  workers.emplace_back([&stop, &reg] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)reg.counters();
      (void)reg.gauges();
      (void)reg.histograms();
      (void)reg.span_tree();
      (void)reg.has_sink();
      reg.flush();
    }
  });
  workers.emplace_back([&stop, &reg] {
    for (unsigned round = 0; !stop.load(std::memory_order_relaxed);
         ++round) {
      if (round % 3 == 0) reg.reset_values();
      if (round % 5 == 0) reg.set_sink(std::make_unique<CollectorSink>());
      reg.set_enabled(round % 7 != 0);
      std::this_thread::yield();
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : workers) w.join();

  // The cached references survived every reset/swap: writing through
  // them after the chaos still works.
  reg.set_enabled(true);
  analock::obs::count("chaos.counter");
  EXPECT_GE(counter_value(reg, "chaos.counter"), std::uint64_t{1});
}

}  // namespace
