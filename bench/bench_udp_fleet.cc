// Real-socket deployment benchmark (docs/DEPLOYMENT.md): a monitored Chord fleet
// over loopback UDP in one process — every inter-node tuple crosses a real
// socket — sustaining a DHT put/get workload for a wall-clock measurement
// window, then cross-checked against the deterministic simulator running the
// identical deployment.
//
// Reported per run:
//   * sustained wire throughput: envelopes (tuples) per wall second and
//     datagrams per wall second during the measurement window;
//   * the batching ratio (envelopes per datagram) — the win from coalescing
//     same-destination tuples into one frame per pump iteration;
//   * DHT workload health: gets issued / answered / correct;
//   * parity columns vs the simulator: chord ids are name hashes, so BOTH
//     backends must converge to the same ground-truth ring (correct_succ), and
//     every DHT get must come back with the value that was put. The bench fails
//     loudly when the backends disagree.
//
// BENCH_udp_fleet.json holds a "udp" row (wall-paced, so its rates and counts are
// reported only; the parity columns correct_succ and shed_reliable are exact) and a
// "sim" row whose counts are deterministic.
//
// Usage:  bench_udp_fleet [--nodes N] [--measure SECS] [--settle SECS]
//                         [--stagger SECS]

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/apps/dht.h"
#include "src/mon/ring_checks.h"
#include "src/net/udp_driver.h"

namespace p2 {
namespace {

struct WorkloadResult {
  int correct_succ = 0;
  uint64_t gets_answered = 0;
  uint64_t gets_correct = 0;
  uint64_t live_tuples = 0;
  // udp backend only.
  double wall_secs = 0;
  uint64_t envelopes = 0;
  uint64_t datagrams = 0;
  uint64_t wire_bytes = 0;
  double batch_ratio = 0;
  uint64_t shed_reliable = 0;
};

TestbedConfig DeploymentConfig(FleetBackend backend, int nodes, double stagger) {
  TestbedConfig cfg;
  cfg.num_nodes = nodes;
  cfg.fleet.backend = backend;
  cfg.fleet.node_defaults.introspection = false;
  cfg.fleet.udp_max_datagram = 8192;  // loopback: no ethernet MTU to respect
  cfg.join_stagger = stagger;
  // Fast protocol periods so the wall-clock run converges in seconds (the
  // simulator gets the same ones: parity requires identical deployments).
  cfg.chord.stabilize_period = 0.5;
  cfg.chord.ping_period = 0.5;
  cfg.chord.finger_period = 1.0;
  cfg.chord.ping_timeout = 0.4;
  cfg.chord.rejoin_check_period = 2.0;
  return cfg;
}

// Builds the monitored deployment, converges the ring, runs the DHT workload
// over the measurement window, and collects the parity + wire columns.
WorkloadResult RunDeployment(FleetBackend backend, int nodes, double stagger,
                             double settle_secs, double measure_secs) {
  ChordTestbed bed(DeploymentConfig(backend, nodes, stagger));
  bed.Run(stagger * nodes + 6.0);

  // The paper's monitored deployment: passive+active ring checks everywhere.
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
  DhtConfig dc;
  for (NodeHandle node : bed.handles()) {
    std::string error;
    if (!node.Install(
            [&](Node* n, std::string* e) { return InstallDht(n, dc, e); }, &error)) {
      fprintf(stderr, "dht install failed: %s\n", error.c_str());
      exit(1);
    }
  }
  bed.Run(settle_secs);

  // Seed the store: key<i> -> value<i>, put from nodes spread around the ring.
  const int kKeys = 64;
  for (int i = 0; i < kKeys; ++i) {
    DhtPut(bed.node((i * 5) % nodes), "key" + std::to_string(i),
           "value" + std::to_string(i), static_cast<uint64_t>(i));
  }
  bed.Run(3.0);

  // The measured workload: a steady stream of gets, issued from round-robin
  // nodes via posted events so they fire while the fleet is pumping.
  WorkloadResult result;
  std::vector<NodeHandle> handles = bed.handles();
  for (NodeHandle& h : handles) {
    h.OnEvent("dhtGetResp", [&result](const TupleRef& t) {
      ++result.gets_answered;
      uint64_t req = t->field(3).AsId();
      if (t->field(4).Truthy() &&
          t->field(2).AsString() == "value" + std::to_string(req % kKeys)) {
        ++result.gets_correct;
      }
    });
  }
  const double kGetPeriod = 0.01;  // 100 gets issued per second
  const uint64_t kGets = static_cast<uint64_t>(measure_secs / kGetPeriod);
  double base = bed.fleet().Now();
  for (uint64_t g = 0; g < kGets; ++g) {
    NodeHandle h = bed.handle(static_cast<size_t>((g * 11) % nodes));
    std::string key = "key" + std::to_string(g % kKeys);
    h.Post(base + 0.05 + static_cast<double>(g) * kGetPeriod,
           [key, g](Node& n) { DhtGet(&n, key, g); });
  }

  UdpDriver* driver = bed.fleet().udp();
  uint64_t env0 = 0, dg0 = 0;
  if (driver != nullptr) {
    env0 = driver->envelopes_sent();
    dg0 = driver->datagrams_sent();
  }
  uint64_t bytes0 = bed.network().total_bytes();
  auto start = std::chrono::steady_clock::now();
  bed.Run(measure_secs + 2.0);  // +2 s of tail so the last gets drain
  result.wall_secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  if (driver != nullptr) {
    result.envelopes = driver->envelopes_sent() - env0;
    result.datagrams = driver->datagrams_sent() - dg0;
    result.batch_ratio = result.datagrams == 0
                             ? 0.0
                             : static_cast<double>(result.envelopes) /
                                   static_cast<double>(result.datagrams);
  }
  result.wire_bytes = bed.network().total_bytes() - bytes0;
  result.correct_succ = bed.CorrectSuccessorCount();
  for (Node* node : bed.nodes()) {
    result.live_tuples += node->catalog().TotalRows(bed.network().Now());
    result.shed_reliable += node->stats().shed_reliable;
  }
  return result;
}

void Main(int nodes, double stagger, double settle, double measure) {
  printf("=== udp fleet: %d-node monitored Chord + DHT over loopback sockets, "
         "%g s window ===\n",
         nodes, measure);

  WorkloadResult udp =
      RunDeployment(FleetBackend::kUdp, nodes, stagger, settle, measure);
  WorkloadResult sim =
      RunDeployment(FleetBackend::kSim, nodes, stagger, settle, measure);

  BenchArtifact artifact("udp_fleet");
  artifact.Param("nodes", nodes).Param("stagger_s", stagger).Param("settle_s", settle)
      .Param("measure_s", measure);
  BenchRow u("udp", std::to_string(nodes));
  u.Info("envelopes_per_s", udp.envelopes / udp.wall_secs, "envelopes/s", "higher")
      .Info("datagrams_per_s", udp.datagrams / udp.wall_secs, "datagrams/s", "higher")
      .Info("batch_ratio", udp.batch_ratio, "envelopes/datagram", "higher")
      .Info("wire_mb_per_s", static_cast<double>(udp.wire_bytes) / 1e6 / udp.wall_secs,
            "MB/s", "lower")
      .Info("datagrams", static_cast<double>(udp.datagrams), "datagrams", "lower")
      .Info("live_tuples", static_cast<double>(udp.live_tuples), "rows", "lower")
      .Info("gets_answered", static_cast<double>(udp.gets_answered), "gets", "higher")
      .Info("gets_correct", static_cast<double>(udp.gets_correct), "gets", "higher")
      .Exact("correct_succ", udp.correct_succ, "nodes", "higher")
      .Exact("shed_reliable", static_cast<double>(udp.shed_reliable), "tuples");
  artifact.Add(u);
  BenchRow p("sim", std::to_string(nodes));
  p.Exact("correct_succ", sim.correct_succ, "nodes", "higher")
      .Exact("live_tuples", static_cast<double>(sim.live_tuples), "rows")
      .Exact("gets_answered", static_cast<double>(sim.gets_answered), "gets", "higher")
      .Exact("gets_correct", static_cast<double>(sim.gets_correct), "gets", "higher");
  artifact.Add(p);
  bool ok = artifact.Write();

  // Parity gate: both backends must converge the same ground-truth ring and
  // serve the workload correctly; the udp transport must shed nothing reliable.
  if (udp.correct_succ != nodes || sim.correct_succ != nodes) {
    printf("PARITY FAILURE: ring correct_succ udp=%d sim=%d expected=%d\n",
           udp.correct_succ, sim.correct_succ, nodes);
    ok = false;
  }
  if (udp.gets_correct != udp.gets_answered || udp.gets_answered == 0 ||
      sim.gets_correct != sim.gets_answered || sim.gets_answered == 0) {
    printf("PARITY FAILURE: workload udp %llu/%llu correct, sim %llu/%llu\n",
           static_cast<unsigned long long>(udp.gets_correct),
           static_cast<unsigned long long>(udp.gets_answered),
           static_cast<unsigned long long>(sim.gets_correct),
           static_cast<unsigned long long>(sim.gets_answered));
    ok = false;
  }
  if (udp.shed_reliable != 0) {
    printf("OVERLOAD FAILURE: shed_reliable=%llu\n",
           static_cast<unsigned long long>(udp.shed_reliable));
    ok = false;
  }
  if (udp.batch_ratio <= 1.0) {
    printf("BATCHING FAILURE: %.2f envelopes/datagram\n", udp.batch_ratio);
    ok = false;
  }
  printf("sim-vs-udp parity: %s\n", ok ? "OK" : "FAILED");
  if (!ok) {
    exit(1);
  }
}

}  // namespace
}  // namespace p2

int main(int argc, char** argv) {
  int nodes = 256;
  // Defaults are the slowest knobs that reach full 256-node ring parity on a
  // shared 1-core container: the wall-paced udp clock gives each node less
  // effective CPU per virtual second than the simulator does, so convergence
  // needs more virtual time than the sim-only benches use.
  double stagger = 0.05;
  double settle = 60.0;
  double measure = 10.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--nodes") == 0 && i + 1 < argc) {
      nodes = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--stagger") == 0 && i + 1 < argc) {
      stagger = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--settle") == 0 && i + 1 < argc) {
      settle = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--measure") == 0 && i + 1 < argc) {
      measure = std::atof(argv[++i]);
    } else {
      fprintf(stderr, "usage: bench_udp_fleet [--nodes N] [--stagger SECS] "
                      "[--settle SECS] [--measure SECS]\n");
      return 2;
    }
  }
  p2::Main(nodes, stagger, settle, measure);
  return 0;
}
