// Quantifies time-travel forensics (docs/OBSERVABILITY.md): the latency of
// cross-node causal replay as retained history deepens. The retention store's
// cost on top of tracing is bench_logging_overhead's "forensics" row.
//
// One 21-node P2-Chord deployment with tracing and retention on; after each
// deepening run, a fleet-wide ReplayChains("*") sweeps the whole retained
// window. Per depth (cumulative simulated seconds after the 60 s formation):
//   replay_wall_ms  budget  wall-clock time of the sweep on this machine
//   retained_mb     exact   bytes held by every node's retention store
//   chains, steps   exact   causal chains returned and their total steps

#include <chrono>
#include <cstdio>

#include "bench/bench_common.h"
#include "src/trace/replay.h"

int main() {
  using namespace p2;
  printf("=== Causal replay latency vs retained history depth ===\n");
  BenchArtifact artifact("forensics");
  artifact.Param("nodes", 21).Param("formation_s", 60);
  ChordTestbed bed(PaperTestbed(21, true, true));
  bed.Run(60);
  double depth = 0;
  for (double step : {60.0, 120.0, 240.0}) {
    bed.Run(step);
    depth += step;
    double now = bed.network().Now();
    auto start = std::chrono::steady_clock::now();
    std::vector<CausalChain> chains;
    for (Node* node : bed.nodes()) {
      std::vector<CausalChain> part =
          bed.fleet().ReplayChains(node->addr(), "*", 0, now);
      chains.insert(chains.end(), part.begin(), part.end());
    }
    double wall_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                  start)
            .count();
    size_t steps = 0;
    size_t bytes = 0;
    for (const CausalChain& c : chains) {
      steps += c.steps.size();
    }
    for (Node* node : bed.nodes()) {
      if (node->forensics() != nullptr) {
        bytes += node->forensics()->Stats().bytes;
      }
    }
    BenchRow row("replay", std::to_string(static_cast<int>(depth)));
    row.Budget("replay_wall_ms", wall_ms, "ms")
        .Exact("retained_mb", static_cast<double>(bytes) / (1024.0 * 1024.0), "MB")
        .Exact("chains", static_cast<double>(chains.size()), "chains", "higher")
        .Exact("steps", static_cast<double>(steps), "steps", "higher");
    artifact.Add(row);
  }
  printf("\nShape check: whole-segment drops keep the store under its byte budget\n"
         "while replay still answers windows whose live trace rows have long expired.\n");
  return artifact.Write() ? 0 : 1;
}
