// Overload resilience sweep (docs/ROBUSTNESS.md "Overload & graceful
// degradation"): offered load vs shed rate and trigger latency, with and without
// admission limits.
//
// The workload is a single monitored node running a periodic fan-out — every
// 100 ms one trigger joins a B-row table and emits B best-effort deliveries in
// one cascade, so B directly sets the offered load. The sweep scales B as a
// multiple of the capped node's queue budget: at 1x the cap is never touched, at
// 10x-20x the uncapped node's queue high-water grows with the load while the
// capped node holds it at the cap, sheds the overflow, enters degraded mode, and
// keeps its control plane intact (the bench fails loudly if a capped run ever
// sheds a reliable-class tuple or overruns its budget).
//
// Per (series, multiplier) row of BENCH_overload.json:
//   offered, admitted, shed, shed_pct  exact   best-effort deliveries over the
//                                              window; shed as % of offered
//   p99_trigger_ms   budget  p99 strand trigger latency from the strand_trigger_ns
//                            histogram (wall time from admission to execution on
//                            THIS machine — the paper's "monitor responsiveness
//                            under load" proxy)
//   be_queue_hwm     exact   the best-effort queue high-water mark (the
//                            memory-bound column)
//   shed_reliable    exact   reliable-class tuples shed (must stay 0)
//   degrade_enters, degrade_exits, degraded_at_end  exact  capped runs past the
//                            watchdog threshold must enter AND exit (load stops
//                            before observation, so a sticky degraded bit is a bug)
//
// Usage:  bench_overload [--measure SECS] [--cap N]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/net/network.h"

namespace p2 {
namespace {

BenchRow RunLoad(const char* series, int mult, uint64_t cap, bool capped,
                 double measure_secs) {
  NetworkConfig ncfg;
  ncfg.latency = 0.01;
  ncfg.jitter = 0.0;
  ncfg.seed = 7;
  Network net(ncfg);

  NodeOptions opts;
  opts.metrics = true;
  if (capped) {
    opts.queue_cap = cap;
    opts.low_queue_cap = cap;
    // Watchdog trips when the per-sweep peak depth sustains at 3/4 of the cap.
    opts.degrade_hi = (cap * 3) / 4;
  }
  Node* node = net.AddNode("n1", opts);

  std::string error;
  if (!node->LoadProgram("materialize(item, infinity, 100000, keys(1,2)).\n"
                         "p1 out@N(X) :- periodic@N(E, 0.1), item@N(X).",
                         &error)) {
    fprintf(stderr, "load failed: %s\n", error.c_str());
    exit(1);
  }
  // B = mult * cap rows: each periodic tick offers exactly mult times the
  // capped node's admission budget.
  const uint64_t rows = cap * static_cast<uint64_t>(mult);
  for (uint64_t i = 0; i < rows; ++i) {
    node->InjectEvent(
        Tuple::Make("item", {Value::Str("n1"), Value::Int(static_cast<int64_t>(i))}));
  }

  net.RunFor(2.0);  // warm-up: table populated, periodic chain in steady state
  uint64_t adm0 = node->stats().admitted_besteffort;
  uint64_t shed0 = node->stats().shed_besteffort;
  net.RunFor(measure_secs);

  uint64_t admitted = node->stats().admitted_besteffort - adm0;
  uint64_t shed = node->stats().shed_besteffort - shed0;
  uint64_t offered = admitted + shed;
  double p99_trigger_ms = 0;
  if (Histogram* h = node->metrics().GetHistogram("strand_trigger_ns")) {
    p99_trigger_ms = static_cast<double>(h->ValueAtQuantile(0.99)) / 1e6;
  }
  BenchRow row(series, std::to_string(mult) + "x");
  row.Exact("offered", static_cast<double>(offered), "deliveries")
      .Exact("admitted", static_cast<double>(admitted), "deliveries", "higher")
      .Exact("shed", static_cast<double>(shed), "deliveries")
      .Exact("shed_pct", offered > 0 ? 100.0 * shed / offered : 0.0, "%")
      .Budget("p99_trigger_ms", p99_trigger_ms, "ms")
      .Exact("be_queue_hwm", static_cast<double>(node->stats().be_queue_hwm), "tuples")
      .Exact("shed_reliable", static_cast<double>(node->stats().shed_reliable), "tuples")
      .Exact("degrade_enters", static_cast<double>(node->stats().degrade_enters),
             "episodes");

  // Drop the load entirely, then give the watchdog time to restore: graceful
  // degradation must be an episode, not a ratchet.
  node->UnloadProgram(node->last_program_id());
  net.RunFor(5.0);
  row.Exact("degrade_exits", static_cast<double>(node->stats().degrade_exits), "episodes",
            "higher")
      .Exact("degraded_at_end", node->degraded() ? 1 : 0, "bool");
  return row;
}

int Main(double measure_secs, uint64_t cap) {
  printf("=== overload sweep: periodic fan-out, 100 ms period, cap=%llu ===\n",
         static_cast<unsigned long long>(cap));
  BenchArtifact artifact("overload");
  artifact.Param("measure_s", measure_secs).Param("cap", static_cast<double>(cap))
      .Param("period_s", 0.1);
  bool ok = true;
  for (bool capped : {false, true}) {
    const char* series = capped ? "capped" : "uncapped";
    for (int mult : {1, 2, 5, 10, 20}) {
      BenchRow r = RunLoad(series, mult, cap, capped, measure_secs);
      artifact.Add(r);
      if (!capped) {
        continue;
      }
      if (r.Value("be_queue_hwm") > static_cast<double>(cap)) {
        printf("BOUND FAILURE at %dx: be_queue_hwm %g > cap %llu\n", mult,
               r.Value("be_queue_hwm"), static_cast<unsigned long long>(cap));
        ok = false;
      }
      if (r.Value("shed_reliable") > 0) {
        printf("CONTROL-PLANE FAILURE at %dx: %g reliable tuples shed\n", mult,
               r.Value("shed_reliable"));
        ok = false;
      }
      if (r.Value("degrade_enters") > 0 &&
          (r.Value("degraded_at_end") > 0 || r.Value("degrade_exits") == 0)) {
        printf("RECOVERY FAILURE at %dx: still degraded after load removal\n", mult);
        ok = false;
      }
    }
  }
  ok = artifact.Write() && ok;
  printf("capped runs bounded, control plane intact, degradation restored: %s\n",
         ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace p2

int main(int argc, char** argv) {
  double measure = 30.0;
  uint64_t cap = 32;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--measure") == 0 && i + 1 < argc) {
      measure = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--cap") == 0 && i + 1 < argc) {
      cap = static_cast<uint64_t>(std::atoll(argv[++i]));
    } else {
      fprintf(stderr, "usage: bench_overload [--measure SECS] [--cap N]\n");
      return 2;
    }
  }
  return p2::Main(measure, cap);
}
