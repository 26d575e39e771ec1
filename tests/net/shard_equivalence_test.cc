// Shard-equivalence suite (docs/SCALING.md): the sharded parallel fleet runtime is
// an execution strategy, not a semantics change — running the same seeded
// deployment on 1, 2, or 4 worker shards must produce bit-identical table state,
// identical ruleExec provenance, and identical deterministic bench columns
// (message/byte counters, ring correctness). These tests drive the full monitored
// stack (Chord + ring checks + consistency probes + DHT workload) and the simfuzz
// harness across shard counts and diff the digests.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/dht.h"
#include "src/common/strings.h"
#include "src/mon/consistency.h"
#include "src/mon/ring_checks.h"
#include "src/simtest/simfuzz.h"
#include "src/testbed/testbed.h"
#include "tests/golden_digests.h"

namespace p2 {
namespace {

// Sorted dump of every materialized table across the fleet. sys* tables hold
// wall-clock-tainted counters and are excluded; ruleExec/tupleTable (the trace
// tables) are included — provenance must be shard-count-invariant too.
std::string FleetDigest(ChordTestbed* bed) {
  std::string out;
  for (Node* node : bed->network().AllNodes()) {
    for (Table* table : node->catalog().AllTables()) {
      const std::string& name = table->spec().name;
      if (StartsWith(name, "sys")) {
        continue;
      }
      std::vector<std::string> rows;
      for (const TupleRef& t : node->TableContents(name)) {
        rows.push_back(t->ToString());
      }
      std::sort(rows.begin(), rows.end());
      out += StrFormat("== %s/%s (%zu) ==\n", node->addr().c_str(), name.c_str(),
                       rows.size());
      for (const std::string& r : rows) {
        out += r;
        out += "\n";
      }
    }
  }
  return out;
}

struct FleetRun {
  std::string digest;
  uint64_t total_msgs = 0;
  uint64_t total_bytes = 0;
  uint64_t dropped_msgs = 0;
  int correct_succ = 0;
};

// The full monitored deployment at `shards` workers: a 10-node Chord ring, ring
// checks fleet-wide, consistency probes at the landmark, and a DHT put/get
// workload, with tracing on so ruleExec rows enter the digest.
FleetRun RunMonitoredFleet(int shards) {
  TestbedConfig cfg;
  cfg.num_nodes = 10;
  cfg.fleet.seed = 99;
  cfg.fleet.shards = shards;
  cfg.fleet.node_defaults.tracing = true;
  cfg.fleet.node_defaults.introspection = false;
  ChordTestbed bed(cfg);
  bed.Run(80);

  for (NodeHandle node : bed.handles()) {
    RingCheckConfig rc;
    rc.probe_period = 5.0;
    std::string error;
    EXPECT_TRUE(node.Install(
        [&](Node* n, std::string* e) {
          return InstallRingChecks(n, rc, e) && InstallDht(n, DhtConfig(), e);
        },
        &error))
        << error;
  }
  ConsistencyConfig cc;
  cc.probe_period = 6.0;
  cc.tally_period = 15.0;
  cc.tally_age = 15.0;
  std::string error;
  EXPECT_TRUE(bed.handle(0).Install(
      [&](Node* n, std::string* e) { return InstallConsistencyProbes(n, cc, e); },
      &error))
      << error;
  bed.Run(10);

  for (uint64_t req = 1; req <= 4; ++req) {
    std::string key = "key" + std::to_string(req);
    bed.handle(req % bed.size()).Call([&](Node* n) { DhtPut(n, key, "v", req); });
  }
  bed.Run(10);
  for (uint64_t req = 5; req <= 8; ++req) {
    std::string key = "key" + std::to_string(req - 4);
    bed.handle(req % bed.size()).Call([&](Node* n) { DhtGet(n, key, req); });
  }
  bed.Run(20);

  FleetRun run;
  run.digest = FleetDigest(&bed);
  run.total_msgs = bed.fleet().total_msgs();
  run.total_bytes = bed.fleet().total_bytes();
  run.dropped_msgs = bed.fleet().dropped_msgs();
  run.correct_succ = bed.CorrectSuccessorCount();
  return run;
}

// Reports the first line where two digests diverge, to keep failures readable.
std::string FirstDiffLine(const std::string& a, const std::string& b) {
  size_t start = 0;
  size_t line = 1;
  while (start < a.size() && start < b.size()) {
    size_t ea = a.find('\n', start);
    size_t eb = b.find('\n', start);
    std::string la = a.substr(start, ea - start);
    std::string lb = b.substr(start, eb - start);
    if (la != lb || ea != eb) {
      return StrFormat("line %zu:\n  K=1: %s\n  K=N: %s", line, la.c_str(),
                       lb.c_str());
    }
    if (ea == std::string::npos) {
      break;
    }
    start = ea + 1;
    ++line;
  }
  return a.size() == b.size() ? "(no diff)" : "(one digest is a prefix of the other)";
}

TEST(ShardEquivalenceTest, MonitoredChordDhtFleetIsBitIdenticalAcrossShardCounts) {
  FleetRun base = RunMonitoredFleet(1);
  EXPECT_EQ(base.correct_succ, 10) << "ring must converge in the baseline run";
  EXPECT_GT(base.total_msgs, 0u);
  for (int shards : {2, 4}) {
    FleetRun run = RunMonitoredFleet(shards);
    EXPECT_EQ(run.total_msgs, base.total_msgs) << "shards=" << shards;
    EXPECT_EQ(run.total_bytes, base.total_bytes) << "shards=" << shards;
    EXPECT_EQ(run.dropped_msgs, base.dropped_msgs) << "shards=" << shards;
    EXPECT_EQ(run.correct_succ, base.correct_succ) << "shards=" << shards;
    EXPECT_EQ(run.digest, base.digest)
        << "shards=" << shards << " diverged at "
        << FirstDiffLine(base.digest, run.digest);
  }
}

// The simfuzz harness end-to-end: the same generated schedule executed through the
// scenario interpreter at 1/2/4 shards must agree on both digests (tables AND
// trace provenance) and the deterministic counters.
TEST(ShardEquivalenceTest, FuzzScheduleDigestsMatchAcrossShardCounts) {
  simtest::FuzzProfile profile = simtest::FuzzProfile::Quiet();
  simtest::RunResult base =
      simtest::RunSchedule(simtest::GenerateSchedule(21, profile));
  ASSERT_FALSE(base.failed()) << base.Summary();
  for (int shards : {2, 4}) {
    profile.shards = shards;
    simtest::RunResult run =
        simtest::RunSchedule(simtest::GenerateSchedule(21, profile));
    ASSERT_FALSE(run.failed()) << "shards=" << shards << ": " << run.Summary();
    EXPECT_EQ(run.total_msgs, base.total_msgs) << "shards=" << shards;
    EXPECT_EQ(run.table_digest, base.table_digest) << "shards=" << shards;
    EXPECT_EQ(run.full_digest, base.full_digest)
        << "shards=" << shards << " diverged at "
        << FirstDiffLine(base.full_digest, run.full_digest);
  }
}

// Overload limits on (bounded queues, in-flight windows, degrade watchdog) must
// not perturb determinism: shed and degrade decisions depend only on
// deterministic local state, so limits-on digests agree across 1/2/4 shards too.
TEST(ShardEquivalenceTest, LimitsOnDigestsMatchAcrossShardCounts) {
  simtest::FuzzProfile profile = simtest::FuzzProfile::Faulty();
  simtest::SimFuzzOptions opts;
  opts.ablation.overload_limits = true;
  simtest::RunResult base =
      simtest::RunSchedule(simtest::GenerateSchedule(44, profile), opts);
  ASSERT_FALSE(base.failed()) << base.Summary();
  for (int shards : {2, 4}) {
    profile.shards = shards;
    simtest::RunResult run =
        simtest::RunSchedule(simtest::GenerateSchedule(44, profile), opts);
    ASSERT_FALSE(run.failed()) << "shards=" << shards << ": " << run.Summary();
    EXPECT_EQ(run.table_digest, base.table_digest) << "shards=" << shards;
    EXPECT_EQ(run.full_digest, base.full_digest)
        << "shards=" << shards << " diverged at "
        << FirstDiffLine(base.full_digest, run.full_digest);
  }
}

// Smoke sweep with randomized shard counts: every faulty-profile seed runs under a
// seed-derived shard count and must both pass the oracles and match its own
// single-shard digest.
TEST(ShardEquivalenceTest, RandomizedShardSmokeSweep) {
  for (uint64_t seed : {31, 32}) {
    simtest::FuzzProfile profile = simtest::FuzzProfile::Faulty();
    simtest::RunResult base =
        simtest::RunSchedule(simtest::GenerateSchedule(seed, profile));
    ASSERT_FALSE(base.failed()) << "seed " << seed << ": " << base.Summary();
    profile.shards = 2 + static_cast<int>(seed % 3);  // 2..4, varies with seed
    simtest::RunResult run =
        simtest::RunSchedule(simtest::GenerateSchedule(seed, profile));
    ASSERT_FALSE(run.failed()) << "seed " << seed << " shards=" << profile.shards
                               << ": " << run.Summary();
    EXPECT_EQ(run.full_digest, base.full_digest)
        << "seed " << seed << " shards=" << profile.shards;
  }
}

// ---- pinned faulty-schedule golden across shard counts ----
//
// The faulty seed-57 schedule's fleet digests (tables, and tables plus trace
// provenance) and message count are pinned in tests/golden_digests.h. They were
// recorded while tuple allocation, delta delivery and wire decoding each still
// had two implementations that agreed on them (docs/SCALING.md "Pinned golden
// digests"); every shard count must still reproduce them bit-for-bit.
TEST(ShardEquivalenceTest, FaultyScheduleMatchesPinnedDigestsAcrossShardCounts) {
  for (int shards : {1, 2, 4}) {
    simtest::FuzzProfile profile = simtest::FuzzProfile::Faulty();
    profile.shards = shards;
    simtest::RunResult run =
        simtest::RunSchedule(simtest::GenerateSchedule(57, profile));
    SCOPED_TRACE(StrFormat("shards=%d", shards));
    ASSERT_FALSE(run.failed()) << run.Summary();
    EXPECT_GOLDEN(run.total_msgs, kFaultyScheduleTotalMsgs);
    EXPECT_GOLDEN(golden::Fnv1a(run.table_digest), kFaultyScheduleTableDigest);
    EXPECT_GOLDEN(golden::Fnv1a(run.full_digest), kFaultyScheduleFullDigest);
  }
}

// The simfuzz ablation header carries only the switches that still exist: the
// removed hot-path keys are never rendered, and a file that still names them is
// not in canonical form, so it is rejected rather than silently re-read.
TEST(ShardEquivalenceTest, ScheduleRoundTripDropsRemovedHotPathKeys) {
  simtest::FuzzProfile profile = simtest::FuzzProfile::Quiet();
  simtest::Schedule schedule = simtest::GenerateSchedule(5, profile);
  std::string text = simtest::ScheduleToScenario(schedule);
  const std::string header = "# ablation indexes=on metrics=on reliable=on forensics=on";
  size_t at = text.find(header);
  ASSERT_NE(at, std::string::npos) << text;
  for (const char* key : {" arenas=off", " batch=off", " zerocopy=off"}) {
    EXPECT_EQ(text.find(key), std::string::npos) << key;
    std::string stale = text;
    stale.insert(at + header.size(), key);
    simtest::Schedule parsed;
    std::string error;
    EXPECT_FALSE(simtest::ScenarioToSchedule(stale, &parsed, &error)) << key;
    EXPECT_NE(error.find("not in canonical simfuzz form"), std::string::npos) << error;
  }
}

// The shards knob must survive the scenario round trip: render carries it in both
// the profile header and the net line, and the parser restores it.
TEST(ShardEquivalenceTest, ScheduleRoundTripCarriesShards) {
  simtest::FuzzProfile profile = simtest::FuzzProfile::Quiet();
  profile.shards = 4;
  simtest::Schedule schedule = simtest::GenerateSchedule(3, profile);
  std::string text = simtest::ScheduleToScenario(schedule);
  EXPECT_NE(text.find("shards=4"), std::string::npos);
  simtest::Schedule parsed;
  std::string error;
  ASSERT_TRUE(simtest::ScenarioToSchedule(text, &parsed, &error)) << error;
  EXPECT_EQ(parsed.profile.shards, 4);
  EXPECT_EQ(simtest::ScheduleToScenario(parsed), text);
}

}  // namespace
}  // namespace p2
