// Umbrella header for the observability subsystem.
//
//   obs::set_enabled(true);          // one relaxed-atomic switch
//   MO_SPAN("simplex.solve");        // RAII span into the trace ring
//   c_solves.inc();                  // lock-free sharded counter
//   obs::record_counter("bnb.incumbent", obj);   // timeline event
//   obs::snapshot().to_json();       // {"simplex.solves":123,...}
//   obs::write_chrome_trace("trace.json");       // open in Perfetto
//
// See metrics.h (registry), trace.h (spans/export), bench_report.h
// (BENCH_<name>.json).
#pragma once

#include "obs/bench_report.h"  // IWYU pragma: export
#include "obs/metrics.h"       // IWYU pragma: export
#include "obs/trace.h"         // IWYU pragma: export
