// Real-transport tests: the same engine and OverLog programs running over actual
// localhost UDP sockets in wall-clock time, behind the Fleet backend API
// (FleetConfig::backend = kUdp, docs/DEPLOYMENT.md). Two Fleet instances in one
// process stand in for two OS processes; they can only talk through the sockets,
// with RegisterPeer standing in for the fleetd rendezvous exchange.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <thread>

#include "src/chord/chord.h"
#include "src/net/udp_driver.h"

namespace p2 {
namespace {

FleetConfig UdpConfig(uint64_t seed = 42) {
  FleetConfig cfg;
  cfg.backend = FleetBackend::kUdp;
  cfg.seed = seed;
  cfg.node_defaults.introspection = false;
  return cfg;
}

// The fleetd rendezvous exchange, in miniature: each side learns the other's
// name -> socket-address map.
void Interconnect(Fleet* a, Fleet* b) {
  for (const auto& [name, addr] : a->udp()->LocalMap()) {
    b->RegisterPeer(name, addr);
  }
  for (const auto& [name, addr] : b->udp()->LocalMap()) {
    a->RegisterPeer(name, addr);
  }
}

// Pumps both fleets in small alternating slices for `wall_seconds` total; each
// fleet's virtual clock advances by wall_seconds / 2 (RunFor re-anchors per
// call, so the time spent pumping the *other* fleet never leaks in).
void PumpBoth(Fleet* a, Fleet* b, double wall_seconds) {
  int slices = static_cast<int>(wall_seconds / 0.02);
  for (int i = 0; i < slices; ++i) {
    a->RunFor(0.01);
    b->RunFor(0.01);
  }
}

TEST(UdpDriverTest, TuplesCrossRealSockets) {
  Fleet fleet_a(UdpConfig(1));
  Fleet fleet_b(UdpConfig(2));
  NodeHandle a = fleet_a.AddNode("a");
  NodeHandle b = fleet_b.AddNode("b");
  ASSERT_TRUE(a.valid());
  ASSERT_TRUE(b.valid());
  Interconnect(&fleet_a, &fleet_b);

  std::string error;
  ASSERT_TRUE(a.Load("r1 hello@Other(NAddr, X) :- go@NAddr(Other, X).", &error))
      << error;
  ASSERT_TRUE(b.Load(
      "materialize(greetings, infinity, 10, keys(1,2)).\n"
      "r2 greetings@N(From, X) :- hello@N(From, X).",
      &error))
      << error;

  a.Inject(
      Tuple::Make("go", {Value::Str(a.addr()), Value::Str(b.addr()), Value::Int(7)}));
  PumpBoth(&fleet_a, &fleet_b, 0.6);

  std::vector<TupleRef> rows = b.Query("greetings");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0]->field(1), Value::Str(a.addr()));
  EXPECT_EQ(rows[0]->field(2), Value::Int(7));
  EXPECT_GE(fleet_a.udp()->datagrams_sent(), 1u);
  EXPECT_GE(fleet_b.udp()->datagrams_received(), 1u);
}

TEST(UdpDriverTest, BatchingCoalescesSameDestinationTuples) {
  Fleet fleet_a(UdpConfig(3));
  Fleet fleet_b(UdpConfig(4));
  NodeHandle a = fleet_a.AddNode("a");
  NodeHandle b = fleet_b.AddNode("b");
  Interconnect(&fleet_a, &fleet_b);

  std::string error;
  ASSERT_TRUE(a.Load("r1 hello@Other(NAddr, X) :- go@NAddr(Other, X).", &error))
      << error;
  ASSERT_TRUE(b.Load(
      "materialize(greetings, infinity, 100, keys(1,2,3)).\n"
      "r2 greetings@N(From, X) :- hello@N(From, X).",
      &error))
      << error;

  // All 24 tuples route to `b` at the same pump instant, so they must coalesce
  // into far fewer datagrams than envelopes (the frames stay under the 1400-byte
  // default budget).
  const int kSent = 24;
  for (int i = 0; i < kSent; ++i) {
    a.Inject(Tuple::Make(
        "go", {Value::Str(a.addr()), Value::Str(b.addr()), Value::Int(i)}));
  }
  PumpBoth(&fleet_a, &fleet_b, 0.8);

  EXPECT_EQ(b.Query("greetings").size(), static_cast<size_t>(kSent));
  UdpDriver* da = fleet_a.udp();
  EXPECT_EQ(da->envelopes_sent(), static_cast<uint64_t>(kSent));
  EXPECT_LT(da->datagrams_sent(), da->envelopes_sent());
  EXPECT_GT(da->batch_ratio(), 2.0);
  EXPECT_EQ(fleet_b.udp()->frame_decode_errors(), 0u);
}

// Every sender frames its datagrams, so a bare envelope on the wire is corrupt:
// the driver counts it as a frame decode error and delivers nothing.
TEST(UdpDriverTest, UnframedDatagramIsDroppedAndCounted) {
  Fleet fleet(UdpConfig(6));
  NodeHandle b = fleet.AddNode("b");
  ASSERT_TRUE(b.valid());
  std::string error;
  ASSERT_TRUE(b.Load("materialize(greetings, infinity, 10, keys(1,2)).", &error))
      << error;

  // b's "host:port" from the peer map, as a sockaddr.
  std::string host_port = fleet.udp()->SocketAddrOf("b");
  size_t colon = host_port.rfind(':');
  ASSERT_NE(colon, std::string::npos) << host_port;
  sockaddr_in to{};
  to.sin_family = AF_INET;
  to.sin_port = htons(static_cast<uint16_t>(std::atoi(host_port.c_str() + colon + 1)));
  ASSERT_EQ(inet_pton(AF_INET, host_port.substr(0, colon).c_str(), &to.sin_addr), 1);

  WireEnvelope env;
  env.src_addr = "a";
  env.tuple = Tuple::Make("greetings", {Value::Str("b"), Value::Str("a"), Value::Int(7)});
  std::string bytes = EncodeEnvelope(env);
  ASSERT_FALSE(IsBatchFrame(bytes));
  int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  ssize_t sent = ::sendto(fd, bytes.data(), bytes.size(), 0,
                          reinterpret_cast<sockaddr*>(&to), sizeof(to));
  ::close(fd);
  ASSERT_EQ(sent, static_cast<ssize_t>(bytes.size()));

  fleet.RunFor(0.2);
  EXPECT_EQ(fleet.udp()->datagrams_received(), 1u);
  EXPECT_EQ(fleet.udp()->frame_decode_errors(), 1u);
  EXPECT_EQ(fleet.udp()->envelopes_received(), 0u);
  EXPECT_TRUE(b.Query("greetings").empty());
}

TEST(UdpDriverTest, PeriodicRulesFireInWallClockTime) {
  Fleet fleet(UdpConfig(5));
  NodeHandle node = fleet.AddNode("solo");
  std::string error;
  ASSERT_TRUE(node.Load("r1 tick@N(E) :- periodic@N(E, 0.1).", &error)) << error;
  int ticks = 0;
  node.OnEvent("tick", [&](const TupleRef&) { ++ticks; });
  fleet.RunFor(0.75);
  EXPECT_GE(ticks, 4);
  EXPECT_LE(ticks, 8);
}

TEST(UdpDriverTest, RepeatedShortSlicesDoNotDrift) {
  // Regression for the wall-clock anchoring bug: RunFor re-anchors per call, so
  // wall time spent *between* calls (the sleeps below) must not leak into the
  // virtual clock. With a persistent anchor, 50 x (10ms slice + 10ms gap) would
  // advance virtual time by the full ~1.0 wall second and roughly double the
  // periodic fire count; with per-call anchoring it advances by exactly 0.5.
  Fleet fleet(UdpConfig(6));
  NodeHandle node = fleet.AddNode("solo");
  std::string error;
  ASSERT_TRUE(node.Load("r1 tick@N(E) :- periodic@N(E, 0.1).", &error)) << error;
  int ticks = 0;
  node.OnEvent("tick", [&](const TupleRef&) { ++ticks; });
  double virtual_before = fleet.Now();
  for (int i = 0; i < 50; ++i) {
    fleet.RunFor(0.01);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_NEAR(fleet.Now() - virtual_before, 0.5, 1e-9);
  EXPECT_GE(ticks, 3);
  EXPECT_LE(ticks, 7);
}

TEST(UdpDriverTest, ReliableTuplesSurviveEgressLoss) {
  // Mixed plain/reliable traffic over real sockets with forced egress loss:
  // the reliable channel (which lives in Node, above the transport) retransmits
  // through the batching layer until everything lands, in order.
  FleetConfig cfg_a = UdpConfig(7);
  cfg_a.node_defaults.rel_rto = 0.1;
  cfg_a.node_defaults.rel_rto_max = 0.8;
  FleetConfig cfg_b = UdpConfig(8);
  cfg_b.node_defaults.rel_rto = 0.1;
  cfg_b.node_defaults.rel_rto_max = 0.8;
  Fleet fleet_a(cfg_a);
  Fleet fleet_b(cfg_b);
  NodeHandle a = fleet_a.AddNode("a");
  NodeHandle b = fleet_b.AddNode("b");
  Interconnect(&fleet_a, &fleet_b);

  std::string error;
  ASSERT_TRUE(a.Load(
      "r1 rel@Other(NAddr, X) :- go@NAddr(Other, X).\n"
      "r2 plain@Other(NAddr, X) :- gp@NAddr(Other, X).",
      &error))
      << error;
  a.MarkReliable("rel");
  std::vector<int64_t> arrivals;
  int plain_arrivals = 0;
  b.OnEvent("rel", [&](const TupleRef& t) { arrivals.push_back(t->field(2).AsInt()); });
  b.OnEvent("plain", [&](const TupleRef&) { ++plain_arrivals; });

  // Drop a quarter of everything leaving either process — data and acks both.
  fleet_a.udp()->SetEgressLossRate(0.25, 99);
  fleet_b.udp()->SetEgressLossRate(0.25, 100);

  const int kSent = 20;
  for (int i = 0; i < kSent; ++i) {
    a.Inject(Tuple::Make(
        "go", {Value::Str(a.addr()), Value::Str(b.addr()), Value::Int(i)}));
    a.Inject(Tuple::Make(
        "gp", {Value::Str(a.addr()), Value::Str(b.addr()), Value::Int(i)}));
  }
  PumpBoth(&fleet_a, &fleet_b, 5.0);

  ASSERT_EQ(arrivals.size(), static_cast<size_t>(kSent));
  for (int i = 0; i < kSent; ++i) {
    EXPECT_EQ(arrivals[i], i) << "out of order at " << i;
  }
  const Node::ChannelStat& cs = a.raw()->channel_stats().at("b");
  EXPECT_GT(cs.retx, 0u) << "25% egress loss must force retransmissions";
  EXPECT_EQ(cs.failed, 0u);
  EXPECT_GT(fleet_a.udp()->envelopes_dropped(), 0u);
  EXPECT_LE(plain_arrivals, kSent);  // best-effort tuples may be lost, never duped
}

TEST(UdpDriverTest, ChordRingFormsOverRealUdp) {
  // A two-process Chord deployment over loopback, with fast protocol periods so
  // the test completes in a few wall seconds.
  Fleet fleet_a(UdpConfig(9));
  Fleet fleet_b(UdpConfig(10));
  NodeHandle landmark = fleet_a.AddNode("lm");
  NodeHandle joiner = fleet_b.AddNode("jn");
  Interconnect(&fleet_a, &fleet_b);

  ChordConfig fast;
  fast.stabilize_period = 0.2;
  fast.ping_period = 0.2;
  fast.finger_period = 0.4;
  fast.ping_timeout = 0.15;
  fast.rejoin_check_period = 1.0;

  std::string error;
  ChordConfig lm = fast;
  ASSERT_TRUE(landmark.Install(
      [&](Node* n, std::string* e) { return InstallChord(n, lm, e); }, &error))
      << error;
  ChordConfig jn = fast;
  jn.landmark = landmark.addr();
  ASSERT_TRUE(joiner.Install(
      [&](Node* n, std::string* e) { return InstallChord(n, jn, e); }, &error))
      << error;

  PumpBoth(&fleet_a, &fleet_b, 4.0);

  EXPECT_EQ(BestSuccAddr(landmark.raw()), joiner.addr());
  EXPECT_EQ(BestSuccAddr(joiner.raw()), landmark.addr());
  EXPECT_EQ(PredAddr(landmark.raw()), joiner.addr());
  EXPECT_EQ(PredAddr(joiner.raw()), landmark.addr());

  // Lookups resolve across the wire.
  std::map<uint64_t, std::string> results;
  joiner.OnEvent("lookupResults", [&](const TupleRef& t) {
    results[t->field(4).AsId()] = t->field(3).AsString();
  });
  IssueLookup(joiner.raw(), ChordId(landmark.raw()) - 1, 99);  // owned by the landmark
  PumpBoth(&fleet_a, &fleet_b, 1.0);
  ASSERT_EQ(results.count(99), 1u);
  EXPECT_EQ(results[99], landmark.addr());
}

}  // namespace
}  // namespace p2
