// The three workloads of the p2mon benchmark (see perfbench/README.md for why
// each was chosen and which layer each is meant to expose).
//
// A workload runs one *pass*: it builds its fleet from the generated inputs,
// converges it, measures a steady window, and checks its outputs. The
// untraced pass gives the end-to-end metrics; the traced pass records spans
// and gives the per-layer metrics.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/harness.h"

namespace p2bench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
};

// What one pass measured. Counter fields are window deltas unless noted.
struct Pass {
  // Gate violations; any entry makes the run exit non-zero.
  std::vector<std::string> failures;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  double setup_s = 0;
  double window_sim_s = 0;
  double window_wall_s = 0;
  double window_cpu_s = 0;
  uint64_t tx_msgs = 0;
  uint64_t wire_bytes = 0;
  uint64_t live_tuples = 0;  // at window close
  double heap_mb = 0;        // allocated heap at window close
  double peak_rss_mb = 0;    // process peak at the end of the pass

  // The workload's primary operation latencies (ms): replay queries, DHT
  // requests, or ten-sim-second steps of RunFor slices.
  std::string op_name;
  std::vector<double> op_ms;
  // Workload-specific latency series (ms), reported by name: "replay", "get",
  // "put".
  std::map<std::string, std::vector<double>> latency_ms;
  std::vector<double> slice_ms;    // every RunFor slice of the window
  std::vector<double> gen_late_ms; // open-loop generator lateness

  // Counters that must repeat exactly for one seed on the sim workloads.
  std::map<std::string, uint64_t> deterministic;

  // Per-layer metrics, in report order (name, value, unit).
  std::vector<Metric> layer;
};

// Names accepted by --workload, in the order `all` runs them.
const std::vector<std::string>& WorkloadNames();
// One line per parameter of `workload` at `seconds`, for the output header.
std::string WorkloadParams(const std::string& workload, int seconds);

// Runs one pass. `spans` is null for the untraced pass; when set the pass
// records spans and the per-layer extras (parse timing, wire codec sample).
Pass RunPass(const RunArgs& args, SpanRecorder* spans);

}  // namespace p2bench

#endif  // PERFBENCH_WORKLOADS_H_
