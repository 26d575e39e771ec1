// Reproduces Figure 5: CPU and memory utilization for an increasing number of
// piggy-backed monitoring rules sharing one 1 s timer, each performing one state
// lookup:
//
//   event@NAddr()  :- periodic@NAddr(E, 1).            (one driver)
//   result@NAddr() :- event@NAddr(), bestSucc@NAddr(SID, SAddr).   (N copies)
//
// The paper reports roughly linear CPU growth, steeper than Figure 4 (state lookups
// cost more than private timers: ≈6% vs ≈4.5% at 250 rules).

#include <cstdio>

#include "bench/bench_common.h"
#include "src/common/strings.h"

namespace p2 {
namespace {

std::string PiggybackRules(int n) {
  std::string program = "syndrv event@NAddr(E) :- periodic@NAddr(E, 1).\n";
  for (int i = 0; i < n; ++i) {
    program += StrFormat(
        "synp%d result@NAddr() :- event@NAddr(E), bestSucc@NAddr(SID, SAddr).\n", i);
  }
  return program;
}

}  // namespace
}  // namespace p2

int main() {
  printf("=== Figure 5: piggy-backed rules on a shared 1 s event, installed on the "
         "last-joined node of a 21-node P2-Chord ===\n");
  return p2::RunFigure("fig5_piggyback_rules", "piggyback", 120.0,
                       p2::RuleCountSweep(p2::PiggybackRules));
}
