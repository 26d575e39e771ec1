// Scenario interpreter tests: the olgrun command language end-to-end.

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <sstream>

#include "src/net/udp_driver.h"
#include "src/tools/scenario.h"

namespace p2 {
namespace {

class ScenarioTest : public ::testing::Test {
 protected:
  ScenarioTest() : runner_([this](const std::string& s) { output_ += s; }) {}

  bool Run(const std::string& script) {
    error_.clear();
    return runner_.RunScript(script, &error_);
  }

  ScenarioRunner runner_;
  std::string output_;
  std::string error_;
};

TEST_F(ScenarioTest, CommentsAndBlanksAreNoops) {
  EXPECT_TRUE(Run("# a comment\n\n   \n")) << error_;
}

TEST_F(ScenarioTest, NodesProgramsInjectionAndExpect) {
  const char* script = R"(
net latency=0.005 jitter=0
node a
node b
inline all materialize(s, infinity, 10, keys(1,2)).
inline a fwd s@Other(X) :- go@NAddr(Other, X).
inject a go(a, b, 42)
run 1
expect b s 1
dump b s
)";
  ASSERT_TRUE(Run(script)) << error_;
  EXPECT_EQ(runner_.expectations_passed(), 1);
  EXPECT_NE(output_.find("s(b, 42)"), std::string::npos);
}

TEST_F(ScenarioTest, TupleLiteralValueKinds) {
  const char* script = R"(
node a
inline a materialize(t, infinity, 10, keys(1,2)).
inject a t(a, 5, 2.5, "hello world", id:18446744073709551615, true, bare)
inline a materialize(u, infinity, 10, keys(1)).
inject a u(a, "x#y")  # a '#' inside a string is not a comment
run 0.5
expect a t 1
dump a t
dump a u
)";
  ASSERT_TRUE(Run(script)) << error_;
  EXPECT_NE(output_.find("t(a, 5, 2.5, hello world, 18446744073709551615, true, bare)"),
            std::string::npos);
  EXPECT_NE(output_.find("u(a, x#y)"), std::string::npos) << output_;
}

TEST_F(ScenarioTest, EmptyTupleLiteralHasNoFields) {
  EXPECT_TRUE(Run("node a\ninject a t()\ninject a t( )\nrun 1\n")) << error_;
}

TEST_F(ScenarioTest, TimedInjection) {
  const char* script = R"(
node a
inline a materialize(t, infinity, 10, keys(1,2)).
inject t=3 a t(a, 1)
run 1
expect a t 0
run 5
expect a t 1
)";
  ASSERT_TRUE(Run(script)) << error_;
  EXPECT_EQ(runner_.expectations_passed(), 2);
}

TEST_F(ScenarioTest, CrashAndRevive) {
  const char* script = R"(
node a
node b
inline b materialize(s, infinity, 10, keys(1,2)).
inline a fwd s@Other(X) :- go@NAddr(Other, X).
crash b
inject a go(a, b, 1)
run 1
expect b s 0
revive b
inject a go(a, b, 2)
run 1
expect b s 1
)";
  ASSERT_TRUE(Run(script)) << error_;
  EXPECT_EQ(runner_.expectations_passed(), 2);
}

TEST_F(ScenarioTest, CrashAndRecoverAtTime) {
  // crash/recover with at=<t> schedule against the virtual clock; the recovered
  // node processes traffic again.
  const char* script = R"(
node a
node b
inline b materialize(s, infinity, 10, keys(1,2)).
inline a fwd s@Other(X) :- go@NAddr(Other, X).
crash b at=1
recover b at=3
inject t=2 a go(a, b, 1)
run 2.5
expect b s 0
run 1
inject a go(a, b, 2)
run 1
expect b s 1
)";
  ASSERT_TRUE(Run(script)) << error_;
  EXPECT_EQ(runner_.expectations_passed(), 2);
}

TEST_F(ScenarioTest, LinkfaultDropsOneDirection) {
  const char* script = R"(
node a
node b
inline all materialize(s, infinity, 10, keys(1,2)).
inline all fwd s@Other(X) :- go@NAddr(Other, X).
linkfault a b loss=1.0
inject a go(a, b, 1)
inject b go(b, a, 2)
run 1
expect b s 0
expect a s 1
linkfault a b
inject a go(a, b, 3)
run 1
expect b s 1
)";
  ASSERT_TRUE(Run(script)) << error_;
  EXPECT_EQ(runner_.expectations_passed(), 3);
}

TEST_F(ScenarioTest, PartitionAndHeal) {
  const char* script = R"(
node a
node b
node c
inline all materialize(s, infinity, 10, keys(1,2)).
inline all fwd s@Other(X) :- go@NAddr(Other, X).
partition a,b c
inject a go(a, c, 1)
inject a go(a, b, 2)
run 1
expect c s 0
expect b s 1
heal
inject a go(a, c, 3)
run 1
expect c s 1
)";
  ASSERT_TRUE(Run(script)) << error_;
  EXPECT_EQ(runner_.expectations_passed(), 3);
}

TEST_F(ScenarioTest, ChordCommandFormsRing) {
  const char* script = R"(
node n0
node n1
node n2
chord all landmark=n0
run 60
expect n0 bestSucc 1
expect n1 bestSucc 1
expect n2 bestSucc 1
)";
  ASSERT_TRUE(Run(script)) << error_;
  EXPECT_EQ(runner_.expectations_passed(), 3);
}

TEST_F(ScenarioTest, WatchprintStreamsTuples) {
  const char* script = R"(
node a
inline a watch(alert).
inline a w1 alert@N(X) :- boom@N(X).
watchprint a
inject a boom(a, 9)
run 1
)";
  ASSERT_TRUE(Run(script)) << error_;
  EXPECT_NE(output_.find("alert(a, 9)"), std::string::npos);
}

TEST_F(ScenarioTest, ErrorsAreReportedWithLineNumbers) {
  // Each bad script gets a fresh interpreter (state persists within a runner).
  auto fails = [](const std::string& script, const std::string& fragment) {
    ScenarioRunner runner([](const std::string&) {});
    std::string error;
    bool ok = runner.RunScript(script, &error);
    EXPECT_FALSE(ok) << script;
    if (!fragment.empty()) {
      EXPECT_NE(error.find(fragment), std::string::npos) << error;
    }
  };
  fails("node a\nbogus command\n", "line 2");
  fails("run 5\n", "no nodes");
  fails("node a\nexpect a missing 3\n", "expect failed");
  fails("node a\ninject a not-a-tuple\n", "");
  fails("node a\nprogram a /no/such/file.olg\n", "cannot open");
  fails("node a\nnet latency=1\n", "net must precede");
  fails("node a\nlinkfault a\n", "linkfault");
  fails("node a\nlinkfault a b frob=1\n", "unknown linkfault option");
  fails("node a\npartition a\n", "partition");
  fails("node a\ncrash a when=2\n", "at=");
  // A wrong argument count fails with the directive's usage.
  fails("node a\nstats\n", "stats <addr|all>");
  fails("node a\nwatchprint\n", "watchprint <addr|all>");
  fails("node a\ndump a\n", "dump <addr|all> <table>");
  fails("node a\nexpect a t\n", "expect <addr> <table> <count>");
}

// The OverLog source of `inline` is the text after the node selector, even when
// the selector also occurs inside the word `inline`.
TEST_F(ScenarioTest, InlineSourceStartsAfterTheSelector) {
  const char* script = R"(
node e
inline e materialize(t, infinity, 10, keys(1,2)).
inline e r1 t@N(X) :- go@N(X).
inject e go(e, 7)
run 0.5
expect e t 1
)";
  ASSERT_TRUE(Run(script)) << error_;
  EXPECT_EQ(runner_.expectations_passed(), 1);
}

TEST_F(ScenarioTest, ShardedNetRunsAndRejectsBadShardCounts) {
  const char* script = R"(
net latency=0.01 jitter=0.005 shards=2
node a
node b
inline all materialize(s, infinity, 10, keys(1,2)).
inline a fwd s@Other(X) :- go@NAddr(Other, X).
inject a go(a, b, 7)
run 1
expect b s 1
)";
  ASSERT_TRUE(Run(script)) << error_;
  EXPECT_EQ(runner_.expectations_passed(), 1);

  auto fails = [](const std::string& s, const std::string& fragment) {
    ScenarioRunner runner([](const std::string&) {});
    std::string error;
    EXPECT_FALSE(runner.RunScript(s, &error)) << s;
    EXPECT_NE(error.find(fragment), std::string::npos) << error;
  };
  fails("net shards=0\nnode a\n", "shards must be in [1,64]");
  fails("net shards=65\nnode a\n", "shards must be in [1,64]");
  fails("net shards=two\nnode a\n", "shards");
  // shards>1 without a positive latency has no conservative lookahead to window on.
  fails("net latency=0 shards=2\nnode a\n",
        "net shards>1 requires latency>0 (the shard lookahead)");
}

// Strict argument parsing (simfuzz round-trips its generated scenarios through this
// grammar, so every malformed value must be a hard, line-numbered error).
TEST_F(ScenarioTest, MalformedValuesAreLineNumberedErrors) {
  auto fails = [](const std::string& script, const std::string& fragment) {
    ScenarioRunner runner([](const std::string&) {});
    std::string error;
    EXPECT_FALSE(runner.RunScript(script, &error)) << script;
    EXPECT_NE(error.find(fragment), std::string::npos) << error;
  };
  fails("net latency=fast\n", "bad number for latency");
  fails("net loss=1.5\n", "loss must be in [0,1]");
  fails("net seed=12x\n", "bad unsigned integer for seed");
  fails("node a\nrun -1\n", "run must be >= 0");
  fails("node a\nnode b\nlinkfault a b loss=2\n", "loss must be in [0,1]");
  fails("node a\nnode b\nlinkfault a b dup=nope\n", "bad number for dup");
  fails("node a\ncrash a at=1O\n", "line 2: bad number for at");
  fails("node a\ninject t=soon a t(a, 1)\n", "bad number for t");
  fails("node a\nput a k v abc\n", "bad unsigned integer for reqid");
  fails("node a\ninject a t(a, id:abc)\n", "line 2: bad unsigned integer for id");
  // Integers beyond their type's range fail instead of clamping.
  fails("net seed=99999999999999999999\n", "integer out of range for seed");
  fails("node a\ninject a t(a, 99999999999999999999)\n", "line 2: integer out of range");
  fails("node a\ninject a t(a, id:99999999999999999999)\n", "line 2: integer out of range");
  // A blank tuple field is an error, not a dropped field.
  fails("node a\ninject a t(a, )\n", "line 2: empty field");
  fails("node a\ninject a t(a,,b)\n", "line 2: empty field");
}

TEST_F(ScenarioTest, PastTimesAreRejected) {
  auto fails = [](const std::string& script, const std::string& fragment) {
    ScenarioRunner runner([](const std::string&) {});
    std::string error;
    EXPECT_FALSE(runner.RunScript(script, &error)) << script;
    EXPECT_NE(error.find(fragment), std::string::npos) << error;
  };
  fails("node a\nrun 5\ninject t=2 a t(a, 1)\n", "t=2 is in the past");
  fails("node a\nrun 5\ncrash a at=2\n", "at=2 is in the past");
  fails("node a\nrun 5\nrecover a at=4.5\n", "at=4.5 is in the past");
}

TEST_F(ScenarioTest, UnknownNodesInFaultDirectivesAreRejected) {
  auto fails = [](const std::string& script, const std::string& fragment) {
    ScenarioRunner runner([](const std::string&) {});
    std::string error;
    EXPECT_FALSE(runner.RunScript(script, &error)) << script;
    EXPECT_NE(error.find(fragment), std::string::npos) << error;
  };
  fails("node a\nnode b\nlinkfault a z loss=0.5\n", "unknown node: z");
  fails("node a\nnode b\npartition a z\n", "unknown node: z");
  fails("node a\nmonitors all initiator=z\n", "unknown node: z");
  fails("node a\nmonitors all frob=1\n", "unknown monitors option: frob");
}

TEST_F(ScenarioTest, NodeAblationOptionsParse) {
  ASSERT_TRUE(Run("node a indexes=off metrics=off reliable=off\nrun 0.1\n"))
      << error_;
  ScenarioRunner runner([](const std::string&) {});
  std::string error;
  EXPECT_FALSE(runner.RunScript("node a indexes=maybe\n", &error));
  EXPECT_NE(error.find("indexes must be on|off"), std::string::npos) << error;
  // The removed engine hot-path toggles are unknown options like any other.
  for (const char* option : {"arenas=off", "batch=off", "zerocopy=on"}) {
    ScenarioRunner strict([](const std::string&) {});
    std::string line = std::string("node a\nnode b ") + option + "\n";
    EXPECT_FALSE(strict.RunScript(line, &error)) << option;
    EXPECT_NE(error.find(std::string("line 2: unknown node option: ") + option),
              std::string::npos)
        << error;
  }
}

TEST_F(ScenarioTest, LimitsDirectiveCapsNodesCreatedAfterIt) {
  // `limits` configures admission caps for subsequently-created nodes; a kick
  // joining a 6-row table emits 6 best-effort deliveries in one cascade, so a
  // queue cap of 2 admits exactly 2.
  const char* script = R"(
limits queue=2
node a
inline a materialize(item, infinity, 100, keys(1,2)).
inline a materialize(out, infinity, 100, keys(1,2)).
inline a r1 out@N(X) :- kick@N(), item@N(X).
inject a item(a, 1)
inject a item(a, 2)
inject a item(a, 3)
inject a item(a, 4)
inject a item(a, 5)
inject a item(a, 6)
run 0.1
inject a kick(a)
run 0.5
expect a out 2
)";
  ASSERT_TRUE(Run(script)) << error_;
  EXPECT_EQ(runner_.expectations_passed(), 1);
}

TEST_F(ScenarioTest, LimitsDirectiveRejectsMalformedOptions) {
  auto fails = [](const std::string& script, const std::string& fragment) {
    ScenarioRunner runner([](const std::string&) {});
    std::string error;
    EXPECT_FALSE(runner.RunScript(script, &error)) << script;
    EXPECT_NE(error.find(fragment), std::string::npos) << error;
  };
  fails("limits\nnode a\n", "queue=<n>");
  fails("limits frob=1\nnode a\n", "unknown limits option: frob");
  fails("limits stretch=0.5\nnode a\n", "stretch must be >= 1");
  fails("limits queue=many\nnode a\n", "queue");
}

TEST_F(ScenarioTest, MonitorsDirectiveInstallsRingChecksAndSnapshots) {
  const char* script = R"(
node n0
node n1
node n2
chord all landmark=n0
monitors all initiator=n0 snap_period=5 abort=8 check=1 probe=10
run 45
dump n0 snapState
)";
  ASSERT_TRUE(Run(script)) << error_;
  EXPECT_NE(output_.find("snapState("), std::string::npos) << output_;
  EXPECT_NE(output_.find("Done"), std::string::npos) << output_;
}

TEST_F(ScenarioTest, StatsPrints) {
  ASSERT_TRUE(Run("node a\nrun 1\nstats a\n")) << error_;
  EXPECT_NE(output_.find("a: sent="), std::string::npos);
}

TEST_F(ScenarioTest, UdpBackendRunsScenarioOverRealSockets) {
  // `net backend=udp` runs the identical script language over loopback sockets;
  // `run 0.4` now takes ~0.4 wall seconds.
  const char* script = R"(
net backend=udp mtu=8192
node a
node b
inline all materialize(s, infinity, 10, keys(1,2)).
inline a fwd s@Other(X) :- go@NAddr(Other, X).
inject a go(a, b, 42)
run 0.4
expect b s 1
)";
  ASSERT_TRUE(Run(script)) << error_;
  EXPECT_EQ(runner_.expectations_passed(), 1);
  ASSERT_NE(runner_.fleet()->udp(), nullptr);
  EXPECT_GE(runner_.fleet()->udp()->datagrams_sent(), 1u);
  EXPECT_EQ(runner_.fleet()->udp()->max_datagram(), 8192u);
}

TEST_F(ScenarioTest, UdpBackendRejectsBadOptions) {
  EXPECT_FALSE(Run("net backend=tcp\n"));
  EXPECT_NE(error_.find("backend must be sim|udp"), std::string::npos) << error_;
  EXPECT_FALSE(Run("net backend=udp mtu=100\n"));
  EXPECT_NE(error_.find("mtu"), std::string::npos) << error_;
}

TEST_F(ScenarioTest, UdpBackendRejectsShards) {
  EXPECT_FALSE(Run("net backend=udp shards=2 latency=0.01\nnode a\n"));
  EXPECT_NE(error_.find("shards"), std::string::npos) << error_;
}

TEST_F(ScenarioTest, UdpBackendRejectsSimOnlyFaultDirectives) {
  EXPECT_FALSE(Run("net backend=udp\nnode a\nnode b\nlinkfault a b loss=1\n"));
  EXPECT_NE(error_.find("linkfault is not supported with backend=udp"),
            std::string::npos)
      << error_;
  EXPECT_FALSE(Run("partition a b\n"));
  EXPECT_FALSE(Run("heal\n"));
}

TEST_F(ScenarioTest, SetBackendForcesUdpWithoutNetDirective) {
  // olgrun --backend=udp: existing scenario files run unchanged over sockets.
  ScenarioRunner runner;
  runner.SetBackend(FleetBackend::kUdp);
  std::string error;
  ASSERT_TRUE(runner.RunScript("node a\nrun 0.1\n", &error)) << error;
  EXPECT_NE(runner.fleet()->udp(), nullptr);
}

TEST_F(ScenarioTest, ConfigureProcessesValidatesSlotAndBackend) {
  std::string error;
  EXPECT_FALSE(runner_.ConfigureProcesses(2, 2, &error));  // index out of range
  EXPECT_FALSE(runner_.ConfigureProcesses(-1, 2, &error));
  EXPECT_FALSE(runner_.ConfigureProcesses(0, 2, &error));  // procs>1 needs kUdp
  runner_.SetBackend(FleetBackend::kUdp);
  EXPECT_TRUE(runner_.ConfigureProcesses(0, 2, &error)) << error;
}

TEST_F(ScenarioTest, MultiProcessSlicePartitionsNodesAndSkipsRemoteDirectives) {
  // Process 1 of 2: hosts the odd-ordinal nodes; directives addressing the even
  // ones are silent no-ops, unknown names are still errors, and `chord` without
  // an explicit landmark= is rejected (it would differ per process).
  ScenarioRunner runner;
  runner.SetBackend(FleetBackend::kUdp);
  std::string error;
  ASSERT_TRUE(runner.ConfigureProcesses(1, 2, &error)) << error;
  const char* script = R"(
node n0
node n1
node n2
node n3
inline n0 materialize(t, infinity, 10, keys(1,2)).
inject n2 t(n2, 1)
run 0.05
)";
  ASSERT_TRUE(runner.RunScript(script, &error)) << error;
  EXPECT_FALSE(runner.fleet()->HasNode("n0"));
  EXPECT_TRUE(runner.fleet()->HasNode("n1"));
  EXPECT_FALSE(runner.fleet()->HasNode("n2"));
  EXPECT_TRUE(runner.fleet()->HasNode("n3"));
  EXPECT_FALSE(runner.RunLine("inject nope t(nope, 1)", &error));
  EXPECT_FALSE(runner.RunLine("chord all", &error));
  EXPECT_NE(error.find("landmark"), std::string::npos) << error;
  EXPECT_FALSE(runner.RunLine("monitors all", &error));
  EXPECT_NE(error.find("initiator"), std::string::npos) << error;
  // Options are validated even when the directive addresses a remote node, so
  // every process rejects the same lines.
  EXPECT_FALSE(runner.RunLine("monitors n0 frob=1", &error));
  EXPECT_NE(error.find("unknown monitors option: frob"), std::string::npos) << error;
}

// Regression guard: every shipped scenario file must keep running clean (their
// `expect` lines are the assertions). Program paths inside scenarios are relative to
// the repository root.
class ShippedScenarios : public ::testing::TestWithParam<const char*> {};

TEST_P(ShippedScenarios, RunsClean) {
  std::string path = std::string(P2_SOURCE_DIR) + "/" + GetParam();
  // Scenarios reference program files relative to the repo root.
  std::string script;
  {
    std::ifstream f(path);
    ASSERT_TRUE(f.good()) << path;
    std::stringstream ss;
    ss << f.rdbuf();
    script = ss.str();
  }
  // Rewrite relative program paths to absolute ones.
  size_t pos = 0;
  while ((pos = script.find("examples/scenarios/", pos)) != std::string::npos) {
    script.replace(pos, strlen("examples/scenarios/"),
                   std::string(P2_SOURCE_DIR) + "/examples/scenarios/");
    pos += strlen(P2_SOURCE_DIR) + strlen("/examples/scenarios/");
  }
  ScenarioRunner runner([](const std::string&) {});
  std::string error;
  EXPECT_TRUE(runner.RunScript(script, &error)) << error;
}

INSTANTIATE_TEST_SUITE_P(Files, ShippedScenarios,
                         ::testing::Values("examples/scenarios/pathvector.scn",
                                           "examples/scenarios/chord_ring.scn",
                                           "examples/scenarios/dht_demo.scn",
                                           "examples/scenarios/rumor.scn"));

}  // namespace
}  // namespace p2
