// End-of-run reporting: a human table on stdout and machine-readable
// "summary" events into the attached sink, both read from the registry's
// one span tree. finish_run() is the single end of a run.
#pragma once

#include <cstdio>

#include "obs/metrics.h"

namespace analock::obs {

/// Prints the run report to `out`: the span tree (indented name, calls,
/// total/self time, p50/p95/max per call), then every non-zero counter,
/// gauge, and value histogram. Prints nothing if no metric was ever
/// touched.
void print_report(const Registry& reg, std::FILE* out = stdout);

/// Emits one "summary" event per span-tree node (name: the node's path;
/// attrs: kind="span", calls, total_ms, self_ms, p50_ms, p95_ms, max_ms)
/// and per non-zero counter (attrs: kind="counter", value) into the
/// registry's sink.
void emit_summary_events(Registry& reg);

/// Ends the global registry's run once per process: emits the summary
/// events, prints the report to `report_out` (nullptr = no report; only
/// while enabled), then flushes and detaches the sink. Later calls do
/// nothing. Bench sessions call it on exit, and so does the atexit hook
/// the environment configuration installs.
void finish_run(std::FILE* report_out);

}  // namespace analock::obs
