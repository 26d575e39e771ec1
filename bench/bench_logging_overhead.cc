// Reproduces the paper's §4 execution-logging overhead measurement:
//
//   "execution logging increases CPU utilization on a node running Chord by 40% on
//    average, going from utilization of 0.98 to 1.38. Memory consumption grows by 66%
//    on average, from 8 MB to 13 MB."
//
// Setup mirrors the paper: a 21-node P2-Chord deployment (stabilize 5 s, fix fingers
// 10 s, ping 5 s); the measured node is the last to join. We run identically seeded
// deployments with execution tracing off and on and report the ratios. Absolute
// numbers differ from the 2006 testbed; the paper's claim under test is "tens of
// percent CPU, roughly two-thirds more memory, minute absolute increase".

#include <cstdio>

#include "bench/bench_common.h"

namespace p2 {
namespace {

// One configuration's 5-minute window on the last-joined node, plus the ruleExec
// rows its tracer has written and what its retention store holds at the end.
BenchRow RunOnce(const char* x, bool tracing, bool forensics) {
  ChordTestbed bed(PaperTestbed(21, tracing, forensics));
  bed.Run(60);  // form and settle the ring
  Node* target = bed.last_node();
  BenchRow row = MeasureWindow(&bed, target, 300.0, "tracing", x);  // the paper's window
  ForensicsStats retained;
  if (target->forensics() != nullptr) {
    retained = target->forensics()->Stats();
  }
  row.Exact("rule_exec_rows_written",
            static_cast<double>(target->tracer().rule_exec_rows_written()), "rows")
      .Exact("retained_records", static_cast<double>(retained.records), "records", "higher")
      .Exact("retained_mb", static_cast<double>(retained.bytes) / (1024.0 * 1024.0), "MB");
  return row;
}

void Main() {
  printf("=== Execution-logging overhead (paper §4, text) ===\n");
  printf("21-node P2-Chord, 5-min measurement window on the last-joined node.\n");
  BenchArtifact artifact("logging_overhead");
  artifact.Param("nodes", 21).Param("formation_s", 60).Param("window_s", 300);
  BenchRow off = RunOnce("off", false, false);
  BenchRow on = RunOnce("on", true, false);
  BenchRow forensics = RunOnce("forensics", true, true);
  artifact.Add(off);
  artifact.Add(on);
  artifact.Add(forensics);
  if (!artifact.Write()) {
    exit(1);
  }

  // The paper's percentages are relative to a full OS process (0.98% CPU, 8 MB RSS
  // baseline). The simulation accounts only engine work and engine state, so the
  // honest comparison is on absolute deltas; the paper's absolute increases were
  // +0.4 CPU percentage points and +5 MB.
  double cpu_delta = on.Value("cpu_ms_per_s") - off.Value("cpu_ms_per_s");
  printf("\nCPU cost of tracing:    %+.3f ms per simulated second (%+.3f pp)\n",
         cpu_delta, cpu_delta / 10.0);  // ms per 1000 ms -> percentage points
  printf("   paper: +0.4 percentage points (0.98%% -> 1.38%%, i.e. +40%% relative)\n");
  printf("Memory cost of tracing: %+.2f MB of trace state (ruleExec + tupleTable)\n",
         on.Value("memory_mb") - off.Value("memory_mb"));
  printf("   paper: +5 MB (8 MB -> 13 MB, i.e. +66%% relative)\n");
  printf("Intermediate-tuple churn: %.2fx the untraced rate\n",
         on.Value("alloc_mb_per_s") / off.Value("alloc_mb_per_s"));
  printf("Live tuples: %+.0f rows of provenance state\n",
         on.Value("live_tuples") - off.Value("live_tuples"));
  printf("Bounded retention on top of tracing: %+.3f ms/sim-s CPU, "
         "%.0f records / %.2f MB retained\n",
         forensics.Value("cpu_ms_per_s") - on.Value("cpu_ms_per_s"),
         forensics.Value("retained_records"), forensics.Value("retained_mb"));
  printf("\nShape check (paper §4): the absolute cost of always-on execution tracing is\n"
         "minute — well under a core-percentage point of CPU and a few MB of state —\n"
         "which is the paper's argument for leaving monitoring on permanently.\n");
}

}  // namespace
}  // namespace p2

int main() {
  p2::Main();
  return 0;
}
