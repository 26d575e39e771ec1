// Scaling baseline for the sharded parallel fleet runtime (docs/SCALING.md).
//
// Runs the same monitored Chord deployment (ring checks fleet-wide, consistency
// probes every 7th node) at K = 1, 2, 4, 8 worker shards and measures one window
// on a formed ring. Per K, one row of BENCH_parallel_fleet.json: wall_ms (real
// time inside Run on THIS machine; a 1-core host cannot beat K=1),
// critical_path_s (per window, the busiest shard's execution time, summed: the
// modeled wall clock of a K-core host), busy_s (summed over shards),
// modeled_speedup (busy_s / critical_path_s), the shard scheduler's windows and
// cross_shard_msgs, arena_fresh_mb_per_s (heap MB, 10^6 B, the tuple arena
// obtained per simulated second: the recycler's miss rate, 0 in steady state),
// and tx_msgs, live_tuples, correct_succ and window_open_s, which must also be
// identical across every K (the bench fails when they diverge).
//
// Usage:  bench_parallel_fleet [--nodes N] [--measure SECS] [--stagger SECS]

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/mon/consistency.h"
#include "src/mon/ring_checks.h"
#include "src/runtime/arena.h"

namespace p2 {
namespace {

// The window opens only on a formed ring (every successor correct), checked every
// kSettleStep sim-s, and no sooner than kMonitorWarmup after the monitors went in:
// the consistency probes' tables live 100 s. A ring still unformed at
// kFormationDeadline fails the bench. These are perfbench's horizon and warm-up.
constexpr double kSettleStep = 10.0;
constexpr double kMonitorWarmup = 120.0;
constexpr double kFormationDeadline = 2400.0;

BenchRow RunFleet(int shards, int num_nodes, double measure_secs, double stagger) {
  TestbedConfig cfg;
  cfg.num_nodes = num_nodes;
  cfg.fleet.shards = shards;
  // 50 ms one-way latency (a WAN-ish RTT of 100 ms): the conservative lookahead
  // equals the latency, so this is also the parallel window width. Narrower windows
  // shrink the per-window event population and with it the achievable overlap.
  cfg.fleet.latency = 0.05;
  cfg.fleet.jitter = 0.02;
  cfg.fleet.node_defaults.introspection = false;
  cfg.join_stagger = stagger;
  cfg.chord.stabilize_period = 5.0;
  cfg.chord.ping_period = 5.0;
  cfg.chord.finger_period = 10.0;
  ChordTestbed bed(cfg);

  // Warm-up: staggered joins plus ring formation (Chord must be installed before
  // the monitors can join against its tables).
  bed.Run(stagger * num_nodes + 40.0);

  // The monitored deployment: passive+active ring checks on every node, the
  // paper's routing-consistency probes on every 7th node (multi-hop lookups keep
  // in-flight work spread across shards). The probe stride is coprime to every
  // measured shard count: nodes are placed round-robin, so a stride of 8 would pin
  // every probe initiator — the dominant per-node cost — onto one shard of 2/4/8
  // and serialize the workload, which no real deployment's monitor placement would.
  for (NodeHandle node : bed.handles()) {
    RingCheckConfig rc;
    rc.probe_period = 2.0;
    std::string error;
    if (!node.Install(
            [&](Node* n, std::string* e) { return InstallRingChecks(n, rc, e); },
            &error)) {
      fprintf(stderr, "ring check install failed: %s\n", error.c_str());
      exit(1);
    }
  }
  for (int i = 0; i < num_nodes; i += 7) {
    ConsistencyConfig cc;
    cc.probe_period = 2.0;
    cc.tally_period = 20.0;
    cc.tally_age = 20.0;
    std::string error;
    if (!bed.handle(i).Install(
            [&](Node* n, std::string* e) { return InstallConsistencyProbes(n, cc, e); },
            &error)) {
      fprintf(stderr, "consistency install failed: %s\n", error.c_str());
      exit(1);
    }
  }

  const double installed_at = bed.network().Now();
  for (;;) {
    bool formed = bed.CorrectSuccessorCount() == num_nodes;
    if (formed && bed.network().Now() - installed_at >= kMonitorWarmup) {
      break;
    }
    if (!formed && bed.network().Now() >= kFormationDeadline) {
      fprintf(stderr, "K=%d: ring %d/%d correct at t=%g, not formed by t=%g\n", shards,
              bed.CorrectSuccessorCount(), num_nodes, bed.network().Now(),
              kFormationDeadline);
      exit(1);
    }
    bed.Run(kSettleStep);
  }
  const double window_open = bed.network().Now();

  // Steady-state deltas: exclude the (inherently bursty) join/warm-up phase from
  // the scaling columns.
  uint64_t crit0 = bed.network().critical_path_ns();
  uint64_t windows0 = bed.network().windows();
  uint64_t tx0 = bed.network().total_msgs();
  uint64_t busy0 = 0;
  uint64_t xmsgs0 = 0;
  for (const Network::ShardStats& s : bed.network().ShardStatsSnapshot()) {
    busy0 += s.busy_ns;
    xmsgs0 += s.sent_cross_shard;
  }

  uint64_t fresh0 = TupleArena::FreshBytes();
  auto start = std::chrono::steady_clock::now();
  bed.Run(measure_secs);
  double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  uint64_t fresh1 = TupleArena::FreshBytes();

  uint64_t busy1 = 0;
  uint64_t xmsgs1 = 0;
  for (const Network::ShardStats& s : bed.network().ShardStatsSnapshot()) {
    busy1 += s.busy_ns;
    xmsgs1 += s.sent_cross_shard;
  }
  double critical_path_s =
      static_cast<double>(bed.network().critical_path_ns() - crit0) / 1e9;
  double busy_s = static_cast<double>(busy1 - busy0) / 1e9;
  uint64_t live_tuples = 0;
  for (Node* node : bed.nodes()) {
    live_tuples += node->catalog().TotalRows(bed.network().Now());
  }
  BenchRow row("shards", std::to_string(bed.network().shard_count()));
  row.Budget("wall_ms", wall * 1000.0, "ms")
      .Info("critical_path_s", critical_path_s, "s", "lower")
      .Info("busy_s", busy_s, "s", "lower")
      .Info("modeled_speedup", critical_path_s > 0 ? busy_s / critical_path_s : 1, "x",
            "higher")
      .Exact("windows", static_cast<double>(bed.network().windows() - windows0), "windows")
      .Exact("cross_shard_msgs", static_cast<double>(xmsgs1 - xmsgs0), "msgs")
      .Exact("arena_fresh_mb_per_s", static_cast<double>(fresh1 - fresh0) / 1e6 / measure_secs,
             "MB/s")
      .Exact("tx_msgs", static_cast<double>(bed.network().total_msgs() - tx0), "msgs")
      .Exact("live_tuples", static_cast<double>(live_tuples), "rows")
      .Exact("correct_succ", bed.CorrectSuccessorCount(), "nodes", "higher")
      .Exact("window_open_s", window_open, "s");
  return row;
}

int Main(int num_nodes, double measure_secs, double stagger) {
  printf("=== parallel fleet scaling: %d-node monitored Chord, %g s window ===\n",
         num_nodes, measure_secs);
  BenchArtifact artifact("parallel_fleet");
  artifact.Param("nodes", num_nodes).Param("measure_s", measure_secs)
      .Param("stagger_s", stagger).Param("monitor_warmup_s", kMonitorWarmup)
      .Param("formation_deadline_s", kFormationDeadline);
  std::vector<BenchRow> rows;
  bool identical = true;
  for (int shards : {1, 2, 4, 8}) {
    rows.push_back(RunFleet(shards, num_nodes, measure_secs, stagger));
    artifact.Add(rows.back());
    for (const char* name : {"tx_msgs", "live_tuples", "correct_succ", "window_open_s"}) {
      if (rows.back().Value(name) != rows[0].Value(name)) {
        identical = false;
        printf("DETERMINISM FAILURE: %s %g at K=1, %g at K=%d\n", name,
               rows[0].Value(name), rows.back().Value(name), shards);
      }
    }
  }
  if (!artifact.Write()) {
    return 1;
  }
  printf("determinism across shard counts: %s\n", identical ? "OK" : "FAILED");
  return identical ? 0 : 1;
}

}  // namespace
}  // namespace p2

int main(int argc, char** argv) {
  int nodes = 256;
  double measure = 30.0;
  double stagger = 0.25;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--nodes") == 0 && i + 1 < argc) {
      nodes = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--measure") == 0 && i + 1 < argc) {
      measure = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--stagger") == 0 && i + 1 < argc) {
      stagger = std::atof(argv[++i]);
    } else {
      fprintf(stderr,
              "usage: bench_parallel_fleet [--nodes N] [--measure SECS] "
              "[--stagger SECS]\n");
      return 2;
    }
  }
  return p2::Main(nodes, measure, stagger);
}
