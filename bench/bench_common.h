// Shared measurement scaffolding for the paper-reproduction benchmarks (§4).
//
// The paper's testbed metrics map onto the simulation as follows (DESIGN.md §2):
//   CPU utilization  -> wall-clock nanoseconds the target node spends executing its
//                       dataflow per simulated second (NodeStats::busy_ns);
//   process memory   -> bytes held by the target node's tables + tuple memo store;
//   live tuples      -> rows across the target node's tables;
//   Tx messages      -> network messages sent fleet-wide during the measurement
//                       window (the paper's Figs 6-7 count transmissions).
//
// Every bench binary records its runs in a BENCH_<name>.json artifact
// (bench/bench_artifact.h, docs/OBSERVABILITY.md).

#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_artifact.h"
#include "src/testbed/testbed.h"

namespace p2 {

// Builds the paper's 21-node deployment (stabilize 5 s, fingers 10 s, ping 5 s).
// `forensics` layers the bounded retention store on top of tracing (which it
// implies).
inline TestbedConfig PaperTestbed(int num_nodes = 21, bool tracing = false,
                                  bool forensics = false) {
  TestbedConfig cfg;
  cfg.num_nodes = num_nodes;
  cfg.fleet.node_defaults.tracing = tracing;
  cfg.fleet.node_defaults.introspection = false;
  cfg.fleet.node_defaults.forensics.enabled = forensics;
  cfg.chord.stabilize_period = 5.0;
  cfg.chord.ping_period = 5.0;
  cfg.chord.finger_period = 10.0;
  return cfg;
}

// Runs `bed` for `secs` of simulated time and records the target node's cost over
// that window as the (series, x) row:
//   cpu_ms_per_s    budget  target-node busy time per simulated second
//   memory_mb       exact   target-node table + memo bytes at window end
//   alloc_mb_per_s  exact   fleet-wide intermediate-tuple churn during the window
//   live_tuples     exact   target-node rows at window end
//   tx_msgs         exact   fleet-wide messages sent during the window
inline BenchRow MeasureWindow(ChordTestbed* bed, Node* target, double secs,
                              std::string series, std::string x) {
  uint64_t busy_before = target->stats().busy_ns;
  uint64_t msgs_before = bed->network().total_msgs();
  uint64_t alloc_before = Tuple::TotalBytesCreated();
  bed->Run(secs);
  const double mb = 1024.0 * 1024.0;
  BenchRow row(std::move(series), std::move(x));
  row.Budget("cpu_ms_per_s",
             static_cast<double>(target->stats().busy_ns - busy_before) / 1e6 / secs,
             "ms/s")
      .Exact("memory_mb", static_cast<double>(target->catalog().TotalBytes()) / mb, "MB")
      .Exact("alloc_mb_per_s",
             static_cast<double>(Tuple::TotalBytesCreated() - alloc_before) / mb / secs,
             "MB/s")
      .Exact("live_tuples",
             static_cast<double>(target->catalog().TotalRows(bed->network().Now())),
             "rows")
      .Exact("tx_msgs", static_cast<double>(bed->network().total_msgs() - msgs_before),
             "msgs");
  return row;
}

// Installs a figure point's monitor; `target` is the last-joined node.
using FigureInstaller = std::function<bool(ChordTestbed* bed, Node* target, std::string*)>;

// One x point of a figure sweep; a null installer measures Chord alone.
struct FigurePoint {
  std::string x;
  FigureInstaller install;
};

// The rule-count sweep of Figs 4 and 5: 0 to 250 copies of a monitoring rule,
// `program(n)` loaded on the target node.
inline std::vector<FigurePoint> RuleCountSweep(std::string (*program)(int)) {
  std::vector<FigurePoint> points = {{"0", nullptr}};
  for (int n : {50, 100, 150, 200, 250}) {
    points.push_back({std::to_string(n), [text = program(n)](ChordTestbed*, Node* target,
                                                              std::string* error) {
                        return target->LoadProgram(text, error);
                      }});
  }
  return points;
}

// The initiation-rate sweep of Figs 6 and 7: "None" (no monitor) and 1/32 to 1
// per second; `at_period(p)` installs a monitor that initiates every p seconds.
inline std::vector<FigurePoint> RateSweep(
    const std::function<FigureInstaller(double period)>& at_period) {
  std::vector<FigurePoint> points = {{"None", nullptr}};
  for (auto [label, per_s] : {std::pair<const char*, double>{"1/32", 1.0 / 32},
                              {"1/4", 0.25}, {"1/2", 0.5}, {"3/4", 0.75}, {"1", 1.0}}) {
    points.push_back({label, at_period(1.0 / per_s)});
  }
  return points;
}

// Runs one of the paper's Figs 4-7: per point, a fresh 21-node testbed forms for
// 40 s, the point's monitor goes onto the last-joined node, 5 s let its timers
// arm, and a `window`-second MeasureWindow on that node becomes the point's row of
// BENCH_<bench>.json. Returns the process exit status.
inline int RunFigure(const std::string& bench, const std::string& series, double window,
                     const std::vector<FigurePoint>& points) {
  BenchArtifact artifact(bench);
  artifact.Param("nodes", 21).Param("formation_s", 40).Param("arm_s", 5)
      .Param("window_s", window);
  for (const FigurePoint& p : points) {
    ChordTestbed bed(PaperTestbed());
    bed.Run(40);
    Node* target = bed.last_node();
    std::string error;
    if (p.install && !p.install(&bed, target, &error)) {
      fprintf(stderr, "%s: install at %s failed: %s\n", bench.c_str(), p.x.c_str(),
              error.c_str());
      return 1;
    }
    bed.Run(5);
    artifact.Add(MeasureWindow(&bed, target, window, series, p.x));
  }
  return artifact.Write() ? 0 : 1;
}

}  // namespace p2

#endif  // BENCH_BENCH_COMMON_H_
