// Scan-vs-index equivalence: a program must produce identical table state whether
// the planner probes secondary indexes or falls back to full scans
// (NodeOptions::use_join_indexes). ForEachMatch yields matches in insertion order
// precisely so the two access paths explore join branches in the same order; these
// tests run the same deterministic workloads both ways and diff every table.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "src/mon/profiler.h"
#include "src/mon/ring_checks.h"
#include "src/net/network.h"
#include "src/testbed/testbed.h"
#include "tests/golden_digests.h"

namespace p2 {
namespace {

// Every non-system table as a sorted row-string multiset. Introspection (sys*)
// tables are skipped — they intentionally differ between the two modes (sysIndexStat,
// ixprobe element kinds) — as are the trace tables, whose GC cadence is not part of
// the equivalence contract.
std::map<std::string, std::vector<std::string>> DumpTables(Node* node) {
  std::map<std::string, std::vector<std::string>> out;
  double now = node->Now();
  for (Table* table : node->catalog().AllTables()) {
    const std::string& name = table->name();
    if (name.rfind("sys", 0) == 0 || name == "ruleExec" || name == "tupleTable") {
      continue;
    }
    std::vector<std::string> rows;
    table->ForEachLive(now, [&rows](const TupleRef& t) {
      rows.push_back(t->ToString());
      return true;
    });
    std::sort(rows.begin(), rows.end());
    out[name] = std::move(rows);
  }
  return out;
}

size_t TotalIndexes(Node* node) {
  size_t total = 0;
  for (Table* table : node->catalog().AllTables()) {
    total += table->NumIndexes();
  }
  return total;
}

void ExpectSameDumps(const std::map<std::string, std::vector<std::string>>& indexed,
                     const std::map<std::string, std::vector<std::string>>& scanned) {
  ASSERT_EQ(indexed.size(), scanned.size());
  for (const auto& [name, rows] : indexed) {
    auto it = scanned.find(name);
    ASSERT_NE(it, scanned.end()) << "table " << name << " missing in scan run";
    EXPECT_EQ(rows, it->second) << "table " << name << " diverged";
  }
}

// A single-node workload covering all three access paths: r1 probes kv by its full
// primary key (key_lookup) and tag through a secondary index on the value column;
// r2 anti-joins tag through the same index; r3 leaves tag unbound (scan fallback).
// Soft state churns: short lifetimes plus tight size bounds force expiry, replace,
// refresh, and eviction while the indexes are live.
constexpr char kWorkload[] = R"(
  materialize(kv, 6, 48, keys(1, 2)).
  materialize(tag, 6, 48, keys(1, 2)).
  materialize(out, 30, 512, keys(1, 2, 3)).
  materialize(untagged, 30, 512, keys(1, 2)).
  materialize(pairs, 30, 1024, keys(1, 2, 3)).
  r1 out@N(K, V, T) :- probe@N(K), kv@N(K, V), tag@N(T, V).
  r2 untagged@N(K, V) :- probe@N(K), kv@N(K, V), not tag@N(T, V).
  r3 pairs@N(K, V, T) :- rake@N(X), kv@N(K, V), tag@N(T, W), W < X.
)";

std::map<std::string, std::vector<std::string>> RunWorkload(bool use_indexes,
                                                            size_t* num_indexes) {
  NetworkConfig net_cfg;
  net_cfg.latency = 0.01;
  net_cfg.jitter = 0.0;
  Network net(net_cfg);
  NodeOptions opts;
  opts.introspection = false;
  opts.use_join_indexes = use_indexes;
  Node* n = net.AddNode("n1", opts);
  std::string error;
  EXPECT_TRUE(n->LoadProgram(kWorkload, ParamMap(), &error)) << error;

  std::mt19937 rng(20260807);
  auto pick = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  const std::string addr = "n1";
  for (int step = 0; step < 400; ++step) {
    switch (pick(0, 5)) {
      case 0:
      case 1:
        n->InjectEvent(Tuple::Make(
            "kv", {Value::Str(addr), Value::Int(pick(0, 30)), Value::Int(pick(0, 12))}));
        break;
      case 2:
        n->InjectEvent(Tuple::Make(
            "tag", {Value::Str(addr), Value::Int(pick(0, 20)), Value::Int(pick(0, 12))}));
        break;
      case 3:
      case 4:
        n->InjectEvent(
            Tuple::Make("probe", {Value::Str(addr), Value::Int(pick(0, 30))}));
        break;
      default:
        n->InjectEvent(Tuple::Make("rake", {Value::Str(addr), Value::Int(pick(0, 12))}));
        break;
    }
    net.RunFor(0.05);
  }
  net.RunFor(1.0);
  *num_indexes = TotalIndexes(n);
  return DumpTables(n);
}

TEST(JoinEquivalenceTest, RandomizedWorkloadMatchesScanBaseline) {
  size_t indexes_on = 0;
  size_t indexes_off = 0;
  auto indexed = RunWorkload(/*use_indexes=*/true, &indexes_on);
  auto scanned = RunWorkload(/*use_indexes=*/false, &indexes_off);
  EXPECT_GT(indexes_on, 0u) << "workload never exercised a secondary index";
  EXPECT_EQ(indexes_off, 0u);
  ExpectSameDumps(indexed, scanned);
  // The workload must have derived something, or the comparison is vacuous.
  EXPECT_FALSE(indexed["out"].empty());
  EXPECT_FALSE(indexed["untagged"].empty());
  EXPECT_FALSE(indexed["pairs"].empty());
}

// Recursive derivation (the paper's path-vector quickstart) across three nodes.
TEST(JoinEquivalenceTest, PathVectorMatchesScanBaseline) {
  constexpr char kProgram[] = R"(
    materialize(link, infinity, 20, keys(1, 2)).
    materialize(path, infinity, 40, keys(1, 2, 3)).
    p1 path@A(B, [B], W) :- link@A(B, W).
    p2 path@B(C, [A] + P, W + Y) :- link@A(B, W), path@A(C, P, Y), f_size(P) < 3.
  )";
  auto run = [&](bool use_indexes) {
    NetworkConfig net_cfg;
    net_cfg.latency = 0.01;
    net_cfg.jitter = 0.0;
    Network net(net_cfg);
    NodeOptions opts;
    opts.introspection = false;
    opts.use_join_indexes = use_indexes;
    std::vector<Node*> nodes;
    for (const char* addr : {"a", "b", "c"}) {
      Node* n = net.AddNode(addr, opts);
      std::string error;
      EXPECT_TRUE(n->LoadProgram(kProgram, ParamMap(), &error)) << error;
      nodes.push_back(n);
    }
    auto link = [](Node* n, const std::string& from, const std::string& to, int w) {
      n->InjectEvent(Tuple::Make(
          "link", {Value::Str(from), Value::Str(to), Value::Int(w)}));
    };
    link(nodes[0], "a", "b", 1);
    link(nodes[1], "b", "a", 1);
    link(nodes[1], "b", "c", 2);
    link(nodes[2], "c", "b", 2);
    net.RunFor(5.0);
    std::map<std::string, std::vector<std::string>> all;
    for (Node* n : nodes) {
      for (auto& [name, rows] : DumpTables(n)) {
        all[n->addr() + "/" + name] = std::move(rows);
      }
    }
    return all;
  };
  auto indexed = run(true);
  auto scanned = run(false);
  ExpectSameDumps(indexed, scanned);
  EXPECT_FALSE(indexed["a/path"].empty());
}

// A full Chord fleet with ring-check monitors and tracing+profiler enabled — the
// hardest case for index consistency, because the tracer writes ruleExec rows
// synchronously while profiler strands iterate that same table.
TEST(JoinEquivalenceTest, ChordFleetWithMonitorsMatchesScanBaseline) {
  auto run = [](bool use_indexes, size_t* num_indexes) {
    TestbedConfig tb;
    tb.num_nodes = 8;
    tb.fleet.node_defaults.introspection = false;
    tb.fleet.node_defaults.tracing = true;
    tb.fleet.node_defaults.use_join_indexes = use_indexes;
    ChordTestbed bed(tb);
    bed.Run(80);
    EXPECT_TRUE(bed.RingIsCorrect());
    std::string error;
    RingCheckConfig checks;
    checks.probe_period = 3.0;
    ProfilerConfig prof;
    prof.target_rule = "rp1";
    for (Node* node : bed.nodes()) {
      EXPECT_TRUE(InstallRingChecks(node, checks, &error)) << error;
      EXPECT_TRUE(InstallProfiler(node, prof, &error)) << error;
    }
    bed.Run(25);
    IssueLookup(bed.node(3), 1234567, 1);
    IssueLookup(bed.node(5), 7654321, 2);
    bed.Run(10);
    *num_indexes = 0;
    std::map<std::string, std::vector<std::string>> all;
    for (Node* node : bed.nodes()) {
      *num_indexes += TotalIndexes(node);
      for (auto& [name, rows] : DumpTables(node)) {
        all[node->addr() + "/" + name] = std::move(rows);
      }
    }
    return all;
  };
  size_t indexes_on = 0;
  size_t indexes_off = 0;
  auto indexed = run(true, &indexes_on);
  auto scanned = run(false, &indexes_off);
  EXPECT_EQ(indexes_off, 0u);
  ExpectSameDumps(indexed, scanned);
}

// ---- pinned hot-path goldens (docs/SCALING.md "Pinned golden digests") ----
//
// Two deterministic workloads whose table contents, ruleExec traces and
// deterministic node counters are pinned as FNV-1a digests (tests/golden_digests.h).
// The digests were recorded while tuple allocation, delta delivery and wire
// decoding each still had two implementations that agreed on them; the engine
// must keep reproducing them bit-for-bit. Unlike the scan-vs-index comparison
// above, the trace tables ARE part of this contract.

// The sorted ruleExec rows: virtual-time stamps and tuple ids only, so they are
// deterministic.
std::vector<std::string> DumpTraces(Node* node) {
  std::vector<std::string> rows;
  for (const TupleRef& t : node->TableContents("ruleExec")) {
    rows.push_back(t->ToString());
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

// The deterministic counter subset: everything event-count-shaped. Queue
// high-water marks are left out, as they were when the goldens were recorded.
std::string CounterLine(Node* node) {
  const NodeStats& s = node->stats();
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "sent=%llu recv=%llu bsent=%llu brecv=%llu deliv=%llu trig=%llu "
                "emit=%llu agg=%llu dead=%llu decerr=%llu expired=%llu",
                (unsigned long long)s.msgs_sent, (unsigned long long)s.msgs_received,
                (unsigned long long)s.bytes_sent,
                (unsigned long long)s.bytes_received,
                (unsigned long long)s.local_deliveries,
                (unsigned long long)s.strand_triggers,
                (unsigned long long)s.tuples_emitted,
                (unsigned long long)s.agg_reevals,
                (unsigned long long)s.dead_letters,
                (unsigned long long)s.decode_errors,
                (unsigned long long)s.tuples_expired);
  return buf;
}

struct Observation {
  std::map<std::string, std::vector<std::string>> tables;
  std::map<std::string, std::vector<std::string>> traces;  // addr -> ruleExec rows
  std::map<std::string, std::string> counters;             // addr -> counter line
};

// FNV-1a over a keyed row dump: each key, then its rows, newline-terminated.
uint64_t DigestRows(const std::map<std::string, std::vector<std::string>>& dump) {
  uint64_t h = golden::kFnvOffset;
  for (const auto& [key, rows] : dump) {
    h = golden::Fnv1a(key + "\n", h);
    for (const std::string& row : rows) {
      h = golden::Fnv1a(row + "\n", h);
    }
  }
  return h;
}

uint64_t DigestLines(const std::map<std::string, std::string>& lines) {
  uint64_t h = golden::kFnvOffset;
  for (const auto& [key, line] : lines) {
    h = golden::Fnv1a(key + "\n" + line + "\n", h);
  }
  return h;
}

// The randomized single-node workload, with tracing on so ruleExec rows join
// the contract. Wire decoding is exercised in the multi-node test below (a
// single node never decodes a wire message).
Observation RunEngineWorkload() {
  NetworkConfig net_cfg;
  net_cfg.latency = 0.01;
  net_cfg.jitter = 0.0;
  Network net(net_cfg);
  NodeOptions opts;
  opts.introspection = false;
  opts.tracing = true;
  Node* n = net.AddNode("n1", opts);
  std::string error;
  EXPECT_TRUE(n->LoadProgram(kWorkload, ParamMap(), &error)) << error;
  std::mt19937 rng(20260807);
  auto pick = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  const std::string addr = "n1";
  for (int step = 0; step < 200; ++step) {
    switch (pick(0, 5)) {
      case 0:
      case 1:
        n->InjectEvent(Tuple::Make(
            "kv", {Value::Str(addr), Value::Int(pick(0, 30)), Value::Int(pick(0, 12))}));
        break;
      case 2:
        n->InjectEvent(Tuple::Make(
            "tag", {Value::Str(addr), Value::Int(pick(0, 20)), Value::Int(pick(0, 12))}));
        break;
      case 3:
      case 4:
        n->InjectEvent(
            Tuple::Make("probe", {Value::Str(addr), Value::Int(pick(0, 30))}));
        break;
      default:
        n->InjectEvent(Tuple::Make("rake", {Value::Str(addr), Value::Int(pick(0, 12))}));
        break;
    }
    net.RunFor(0.05);
  }
  net.RunFor(1.0);
  Observation obs;
  obs.tables = DumpTables(n);
  obs.traces["n1"] = DumpTraces(n);
  obs.counters["n1"] = CounterLine(n);
  return obs;
}

TEST(HotPathGoldenTest, EngineWorkloadMatchesPinnedDigests) {
  Observation obs = RunEngineWorkload();
  EXPECT_FALSE(obs.tables["out"].empty());
  EXPECT_FALSE(obs.traces["n1"].empty());
  EXPECT_GOLDEN(DigestRows(obs.tables), kEngineWorkloadTables);
  EXPECT_GOLDEN(DigestRows(obs.traces), kEngineWorkloadTraces);
  EXPECT_GOLDEN(DigestLines(obs.counters), kEngineWorkloadCounters);
}

// Multi-node: wire messages actually cross the codec. The path-vector program
// exercises lists and strings on the wire; tracing stays on and the counter
// lines include msgs/bytes received.
Observation RunPathVector() {
  constexpr char kProgram[] = R"(
    materialize(link, infinity, 20, keys(1, 2)).
    materialize(path, infinity, 40, keys(1, 2, 3)).
    p1 path@A(B, [B], W) :- link@A(B, W).
    p2 path@B(C, [A] + P, W + Y) :- link@A(B, W), path@A(C, P, Y), f_size(P) < 3.
  )";
  NetworkConfig net_cfg;
  net_cfg.latency = 0.01;
  net_cfg.jitter = 0.0;
  Network net(net_cfg);
  NodeOptions opts;
  opts.introspection = false;
  opts.tracing = true;
  std::vector<Node*> nodes;
  for (const char* addr : {"a", "b", "c"}) {
    Node* n = net.AddNode(addr, opts);
    std::string error;
    EXPECT_TRUE(n->LoadProgram(kProgram, ParamMap(), &error)) << error;
    nodes.push_back(n);
  }
  auto link = [](Node* n, const std::string& from, const std::string& to, int w) {
    n->InjectEvent(
        Tuple::Make("link", {Value::Str(from), Value::Str(to), Value::Int(w)}));
  };
  link(nodes[0], "a", "b", 1);
  link(nodes[1], "b", "a", 1);
  link(nodes[1], "b", "c", 2);
  link(nodes[2], "c", "b", 2);
  net.RunFor(5.0);
  Observation obs;
  for (Node* n : nodes) {
    for (auto& [name, rows] : DumpTables(n)) {
      obs.tables[n->addr() + "/" + name] = std::move(rows);
    }
    obs.traces[n->addr()] = DumpTraces(n);
    obs.counters[n->addr()] = CounterLine(n);
  }
  return obs;
}

TEST(HotPathGoldenTest, PathVectorMatchesPinnedDigests) {
  Observation obs = RunPathVector();
  EXPECT_FALSE(obs.tables["a/path"].empty());
  EXPECT_GOLDEN(DigestRows(obs.tables), kPathVectorTables);
  EXPECT_GOLDEN(DigestRows(obs.traces), kPathVectorTraces);
  EXPECT_GOLDEN(DigestLines(obs.counters), kPathVectorCounters);
}

}  // namespace
}  // namespace p2
