// Umbrella header for the analock profiling layer.
//
//   #include "obs/prof/prof.h"
//
//   prof::PerfCounters pc;                       // perf_event_open group
//   prof::CounterSection section(pc);            // RAII section counters
//   analock::bench::Harness h("bench_x");        // BENCH_*.json harness
//
// The ANALOCK_SPAN call tree lives in obs::Registry (metrics.h); the
// harness lends it its PerfCounters and records the measured-rep slice
// of that tree as the bench profile. See harness.h for the environment
// knobs shared by every bench.
#pragma once

#include "obs/prof/harness.h"        // IWYU pragma: export
#include "obs/prof/perf_counters.h"  // IWYU pragma: export
