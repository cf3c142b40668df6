// Umbrella header for the analock observability layer.
//
//   #include "obs/obs.h"
//
//   ANALOCK_SPAN("calib.step06");              // RAII timed scope
//   obs::count("eval.trials.snr_mod");         // named counter
//   obs::event("attack.convergence", {...});   // JSONL point event
//   obs::finish_run(stdout);                   // summaries + report, once
//
// Every span folds into one call tree in the registry, keyed by span
// path; the run report, the JSONL summary rows and the bench profile
// (prof/harness.h) all read it.
//
// Everything is off (single relaxed-load cost) until
// `obs::registry().set_enabled(true)` or the environment enables it:
//   ANALOCK_OBS=1             metrics + spans on
//   ANALOCK_OBS_JSONL=<path>  also stream events to <path> (JSONL)
//   ANALOCK_OBS_REPORT=1      print the run report at process exit
#pragma once

#include "obs/clock.h"        // IWYU pragma: export
#include "obs/event.h"        // IWYU pragma: export
#include "obs/jsonl_sink.h"   // IWYU pragma: export
#include "obs/metrics.h"      // IWYU pragma: export
#include "obs/report.h"       // IWYU pragma: export
#include "obs/trace.h"        // IWYU pragma: export
