// Reproduces Figure 4: CPU and memory utilization for an increasing number of
// periodic monitoring rules (period 1 s) installed on a Chord node.
//
//   result@NAddr() :- periodic@NAddr(E, 1).
//
// The paper reports CPU utilization growing roughly proportionally with the rule
// count (≈1% baseline to ≈4.5% at 250 rules) and memory stabilizing ≈70% above the
// Chord baseline (intermediate-tuple churn). The shape to hold here: linear CPU
// growth in N; memory/live-tuple growth modest and flat-ish in N.

#include <cstdio>

#include "bench/bench_common.h"
#include "src/common/strings.h"

namespace p2 {
namespace {

// Each copy gets its own rule id and its own timer, exactly as in the paper.
std::string PeriodicRules(int n) {
  std::string program;
  for (int i = 0; i < n; ++i) {
    program += StrFormat("syn%d result@NAddr() :- periodic@NAddr(E, 1).\n", i);
  }
  return program;
}

}  // namespace
}  // namespace p2

int main() {
  printf("=== Figure 4: periodic monitoring rules (period 1 s), installed on the "
         "last-joined node of a 21-node P2-Chord ===\n");
  return p2::RunFigure("fig4_periodic_rules", "periodic", 120.0,
                       p2::RuleCountSweep(p2::PeriodicRules));
}
