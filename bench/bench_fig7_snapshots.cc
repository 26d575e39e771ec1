// Reproduces Figure 7: overhead of Chandy-Lamport consistent snapshots (paper §3.3)
// at initiation rates from 1/32 to 1 snapshot per second, alongside Chord without the
// snapshot machinery ("None").
//
// Shapes to hold (paper): memory grows linearly but much more slowly than the
// consistency probes of Figure 6; CPU grows superlinearly but stays well below
// Figure 6 at every rate (a snapshot floods one marker per link; a probe floods a
// multi-hop lookup per finger).

#include <cstdio>

#include "bench/bench_common.h"
#include "src/mon/snapshot.h"

int main() {
  printf("=== Figure 7: consistent snapshots initiated by the last-joined node of a "
         "21-node P2-Chord ===\n");
  return p2::RunFigure(
      "fig7_snapshots", "snapshot", 64.0, p2::RateSweep([](double period) {
        return [period](p2::ChordTestbed* bed, p2::Node* target, std::string* error) {
          for (size_t i = 0; i < bed->size(); ++i) {
            p2::SnapshotConfig cfg;
            cfg.snap_period = period;
            cfg.initiator = (bed->node(i) == target);
            if (!p2::InstallSnapshot(bed->node(i), cfg, error)) {
              return false;
            }
          }
          return true;
        };
      }));
}
