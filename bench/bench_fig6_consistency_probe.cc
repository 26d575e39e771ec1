// Reproduces Figure 6: overhead of the proactive routing-consistency detector
// (paper §3.1.4) at initiation rates from 1/32 to 1 probe per second, alongside Chord
// without the detector ("None").
//
// Shapes to hold (paper): memory and transmitted messages grow linearly with the
// probe rate; CPU utilization grows superlinearly (each probe fans out one lookup per
// unique finger, and those contend on the initiator and the rest of the testbed).

#include <cstdio>

#include "bench/bench_common.h"
#include "src/mon/consistency.h"

int main() {
  printf("=== Figure 6: proactive consistency probes initiated by the last-joined "
         "node of a 21-node P2-Chord ===\n");
  return p2::RunFigure(
      "fig6_consistency_probe", "probe", 64.0, p2::RateSweep([](double period) {
        return [period](p2::ChordTestbed*, p2::Node* target, std::string* error) {
          p2::ConsistencyConfig cfg;
          cfg.probe_period = period;
          cfg.tally_period = 20.0;  // paper cs9
          cfg.tally_age = 20.0;
          return p2::InstallConsistencyProbes(target, cfg, error);
        };
      }));
}
