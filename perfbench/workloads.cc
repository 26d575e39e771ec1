#include "perfbench/workloads.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <random>

#include "src/apps/dht.h"
#include "src/chord/chord.h"
#include "src/lang/parser.h"
#include "src/mon/consistency.h"
#include "src/mon/ring_checks.h"
#include "src/mon/snapshot.h"
#include "src/net/fleet.h"
#include "src/net/udp_driver.h"
#include "src/net/wire.h"
#include "src/runtime/arena.h"

namespace p2bench {
namespace {

using p2::Fleet;
using p2::FleetConfig;
using p2::Node;
using p2::NodeHandle;
using p2::ParamMap;
using p2::TupleRef;
using p2::Value;

// ---- workload parameters ----
//
// Window lengths scale with --seconds through a fixed sim-seconds-per-second
// factor, so a given (seed, seconds) always simulates the same window and the
// deterministic counters can be compared across runs.

constexpr int kPaperNodes = 21;
constexpr double kPaperStagger = 0.5;
constexpr double kPaperSimPerSecond = 3.0;
constexpr double kPaperWarmUntil = 160.0;  // > NodeOptions::rule_exec_lifetime (120 s)
// Monitors run this long before a window opens: their soft state (probe and
// tally tables live ConsistencyConfig::table_lifetime = 100 s) fills for that
// long, and a window opened earlier measures its cost still climbing.
constexpr double kMonitorWarmup = 120.0;
constexpr int kPaperMinQueries = 1000;
constexpr int kPaperQueriesPerSecond = 200;
constexpr double kPaperRingProbe = 10.0;
constexpr double kPaperConsistencyProbe = 5.0;
constexpr double kPaperSnapshotPeriod = 10.0;

constexpr double kShardedStagger = 0.25;
constexpr int kShardedProbeStride = 7;
constexpr double kShardedSettlePerNode = 6.25;  // sim-s of set-up per node
constexpr int kShardedStepSlices = 10;          // slices per timed op

constexpr int kUdpNodes = 64;
constexpr double kUdpStagger = 0.05;
constexpr int kUdpKeys = 64;
constexpr double kUdpRate = 100.0;  // requests per second, open loop
constexpr double kUdpPutShare = 0.2;
constexpr double kUdpDrain = 2.0;   // seconds after the last request is due

double WallS() { return static_cast<double>(NowNs()) / 1e9; }

double CpuS() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// Heap bytes allocated and not freed, in MB: the live heap at window close,
// beside the process's RSS high-water mark.
double HeapMb() {
  struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / 1e6;
}

// chord_fleet_sharded is the specified 256-node fleet on 2 shards;
// chord_fleet_sharded_32 is the same deployment at 32 nodes, whose joins all
// complete within 8 s, and chord_fleet_32 runs those 32 nodes on one shard.
struct ShardedSpec {
  int nodes;
  int shards;
  double sim_per_second;  // window sim-seconds per --seconds
};

ShardedSpec Sharded(const std::string& workload) {
  if (workload == "chord_fleet_32") {
    return ShardedSpec{32, 1, 40.0};
  }
  return workload == "chord_fleet_sharded_32" ? ShardedSpec{32, 2, 50.0}
                                              : ShardedSpec{256, 2, 12.5};
}

bool IsChordFleet(const std::string& workload) {
  return workload.rfind("chord_fleet", 0) == 0;
}

int ShardedWindow(int seconds, const ShardedSpec& spec) {
  return std::max(10, static_cast<int>(std::lround(seconds * spec.sim_per_second)));
}
int PaperWindow(int seconds) {
  return std::max(24, static_cast<int>(std::lround(seconds * kPaperSimPerSecond)));
}
// Replay queries go out in rounds of every (node, key, depth), so the mix of
// query kinds is the same on every seed.
constexpr const char* kReplayKeys[] = {"pingEvent", "pingReq", "stabilizeRequest",
                                       "pingResp", "sendPred", "returnSucc"};
constexpr double kReplayDepths[] = {12, 24, 48, 96};
constexpr int kReplayRound =
    kPaperNodes * static_cast<int>(std::size(kReplayKeys) * std::size(kReplayDepths));
int PaperQueries(int seconds) {
  int queries = std::max(kPaperMinQueries, seconds * kPaperQueriesPerSecond);
  return (queries + kReplayRound - 1) / kReplayRound * kReplayRound;
}

// ---- counters read at window open and close ----

struct Counters {
  double wall_s = 0;
  double cpu_s = 0;
  double sim_t = 0;
  uint64_t tx_msgs = 0;
  uint64_t tx_bytes = 0;
  // NodeStats, summed (queue_hwm: max).
  uint64_t busy_ns = 0;
  uint64_t strand_triggers = 0;
  uint64_t msgs_received = 0;
  uint64_t queue_hwm = 0;
  uint64_t shed = 0;
  uint64_t shed_reliable = 0;
  uint64_t dead_letters = 0;
  uint64_t decode_errors = 0;
  uint64_t agg_reevals = 0;
  // RuleMetrics, summed over every rule of every node.
  uint64_t rule_execs = 0;
  uint64_t rule_busy_ns = 0;
  uint64_t emits = 0;
  uint64_t probe_rows = 0;
  uint64_t scan_rows = 0;
  // Reliable transport channels.
  uint64_t rel_sent = 0;
  uint64_t rel_retx = 0;
  // Sharded runtime.
  uint64_t events = 0;
  uint64_t cross_shard = 0;
  uint64_t heap_hwm = 0;
  uint64_t windows = 0;
  uint64_t critpath_ns = 0;
  std::vector<uint64_t> shard_busy_ns;
  // Process-global allocation counters and the tracer.
  uint64_t arena_fresh = 0;
  uint64_t tuple_bytes = 0;
  uint64_t rule_exec_rows = 0;
  // UdpDriver (zero under the sim backend).
  bool udp = false;
  uint64_t datagrams = 0;
  uint64_t envelopes = 0;
  uint64_t envelopes_dropped = 0;
  uint64_t frame_decode_errors = 0;
};

Counters ReadCounters(Fleet& fleet) {
  Counters c;
  c.wall_s = WallS();
  c.cpu_s = CpuS();
  c.sim_t = fleet.Now();
  c.tx_msgs = fleet.total_msgs();
  c.tx_bytes = fleet.total_bytes();
  for (NodeHandle h : fleet.Handles()) {
    const p2::NodeStats& s = h.Stats();
    c.busy_ns += s.busy_ns;
    c.strand_triggers += s.strand_triggers;
    c.msgs_received += s.msgs_received;
    c.queue_hwm = std::max(c.queue_hwm, s.queue_hwm);
    c.shed += s.shed_besteffort + s.shed_low + s.shed_reliable;
    c.shed_reliable += s.shed_reliable;
    c.dead_letters += s.dead_letters;
    c.decode_errors += s.decode_errors;
    c.agg_reevals += s.agg_reevals;
    Node* node = h.raw();
    for (const auto& [rule, m] : node->metrics().rules()) {
      c.rule_execs += m->execs;
      c.rule_busy_ns += m->busy_ns;
      c.emits += m->emits;
      c.probe_rows += m->join_probe_rows;
      c.scan_rows += m->join_scan_rows;
    }
    for (const auto& [peer, ch] : node->channel_stats()) {
      c.rel_sent += ch.sent;
      c.rel_retx += ch.retx;
    }
    c.rule_exec_rows += node->tracer().rule_exec_rows_written();
  }
  for (const p2::Network::ShardStats& s : fleet.ShardStatsSnapshot()) {
    c.events += s.events;
    c.cross_shard += s.sent_cross_shard;
    c.heap_hwm = std::max(c.heap_hwm, s.heap_hwm);
    c.shard_busy_ns.push_back(s.busy_ns);
  }
  c.windows = fleet.network().windows();
  c.critpath_ns = fleet.network().critical_path_ns();
  c.arena_fresh = p2::TupleArena::FreshBytes();
  c.tuple_bytes = p2::Tuple::TotalBytesCreated();
  if (p2::UdpDriver* udp = fleet.udp()) {
    c.udp = true;
    c.datagrams = udp->datagrams_sent();
    c.envelopes = udp->envelopes_sent();
    c.envelopes_dropped = udp->envelopes_dropped();
    c.frame_decode_errors = udp->frame_decode_errors();
  }
  return c;
}

// ---- per-layer extras gathered outside the window ----

struct Extras {
  double parse_ms = 0;
  double install_ms = 0;
  double converge_sim_s = 0;
  double converge_wall_s = 0;
  uint64_t live_tuples = 0;
  double heap_mb = 0;
  double table_mb = 0;
  uint64_t forensics_records = 0;
  double forensics_mb = 0;
  uint64_t forensics_dropped = 0;
  uint64_t replay_chains = 0;
  uint64_t replay_steps = 0;
  double replay_ms_total = 0;
  uint64_t verdicts = 0;
  uint64_t alarms = 0;
  uint64_t snapshots_done = 0;
  double dht_answered_frac = 0;
  double encode_ns = 0;
  double decode_ns = 0;
};

double Delta(uint64_t close, uint64_t open) {
  return static_cast<double>(close - open);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// The per-layer metric set, identical in name and order for every workload; a
// layer the workload does not exercise reports 0.
std::vector<Metric> LayerMetrics(const Counters& o, const Counters& c, const Extras& x,
                                 const Pass& p) {
  double window_wall = c.wall_s - o.wall_s;
  double shard_busy_ns = 0;
  double max_shard_busy = 0;
  for (size_t i = 0; i < c.shard_busy_ns.size(); ++i) {
    double busy = Delta(c.shard_busy_ns[i], o.shard_busy_ns[i]);
    shard_busy_ns += busy;
    max_shard_busy = std::max(max_shard_busy, busy);
  }
  size_t shards = c.shard_busy_ns.size();
  double mean_shard_busy = shards > 0 ? shard_busy_ns / static_cast<double>(shards) : 0;
  double node_busy_ns = Delta(c.busy_ns, o.busy_ns);
  double probe = Delta(c.probe_rows, o.probe_rows);
  double scan = Delta(c.scan_rows, o.scan_rows);
  double msgs = Delta(c.tx_msgs, o.tx_msgs);
  double datagrams = Delta(c.datagrams, o.datagrams);
  double envelopes = Delta(c.envelopes, o.envelopes);
  double rel_sent = Delta(c.rel_sent, o.rel_sent);
  double rel_retx = Delta(c.rel_retx, o.rel_retx);
  LatencySummary late = Summarize(p.gen_late_ms);
  LatencySummary slices = Summarize(p.slice_ms);
  auto latency = [&p](const std::string& name) {
    auto it = p.latency_ms.find(name);
    return Summarize(it == p.latency_ms.end() ? std::vector<double>() : it->second);
  };
  LatencySummary replay = latency("replay");
  LatencySummary get = latency("get");
  LatencySummary put = latency("put");
  return {
      {"lang.parse_ms", x.parse_ms, "ms", "lower"},
      {"planner.install_ms", x.install_ms, "ms", "lower"},
      {"chord.converge_sim_s", x.converge_sim_s, "s", "lower"},
      {"chord.converge_wall_s", x.converge_wall_s, "s", "lower"},
      {"network.events", Delta(c.events, o.events), "count", "lower"},
      {"network.windows", Delta(c.windows, o.windows), "count", "lower"},
      {"network.cross_shard_msgs", Delta(c.cross_shard, o.cross_shard), "msgs", "lower"},
      {"network.shard_busy_s", shard_busy_ns / 1e9, "s", "lower"},
      {"network.critpath_s", Delta(c.critpath_ns, o.critpath_ns) / 1e9, "s", "lower"},
      {"network.barrier_wait_s",
       shards > 1 ? std::max(0.0, static_cast<double>(shards) * window_wall -
                                      shard_busy_ns / 1e9)
                  : 0.0,
       "s", "lower"},
      {"network.shard_skew", Ratio(max_shard_busy, mean_shard_busy), "ratio", "lower"},
      {"network.heap_hwm", static_cast<double>(c.heap_hwm), "events", "lower"},
      {"node.busy_s", node_busy_ns / 1e9, "s", "lower"},
      // Under udp the poll loop, not a shard, runs the nodes: no shard share.
      {"node.busy_frac", c.udp ? 0 : Ratio(node_busy_ns, shard_busy_ns), "ratio", "higher"},
      {"node.strand_triggers", Delta(c.strand_triggers, o.strand_triggers), "count",
       "lower"},
      {"node.msgs_received", Delta(c.msgs_received, o.msgs_received), "msgs", "lower"},
      {"node.queue_hwm", static_cast<double>(c.queue_hwm), "tuples", "lower"},
      {"node.shed", Delta(c.shed, o.shed), "tuples", "lower"},
      {"node.dead_letters", Delta(c.dead_letters, o.dead_letters), "tuples", "lower"},
      {"transport.rel_sent", rel_sent, "msgs", "lower"},
      {"transport.rel_retx", rel_retx, "msgs", "lower"},
      {"transport.retx_frac", Ratio(rel_retx, rel_sent), "ratio", "lower"},
      {"dataflow.rule_execs", Delta(c.rule_execs, o.rule_execs), "count", "lower"},
      {"dataflow.rule_busy_s", Delta(c.rule_busy_ns, o.rule_busy_ns) / 1e9, "s", "lower"},
      {"dataflow.emits", Delta(c.emits, o.emits), "tuples", "lower"},
      {"dataflow.agg_reevals", Delta(c.agg_reevals, o.agg_reevals), "count", "lower"},
      {"runtime.join_probe_rows", probe, "rows", "lower"},
      {"runtime.join_scan_rows", scan, "rows", "lower"},
      {"runtime.probe_frac", Ratio(probe, probe + scan), "ratio", "higher"},
      {"runtime.arena_fresh_mb", Delta(c.arena_fresh, o.arena_fresh) / 1e6, "MB", "lower"},
      {"runtime.tuple_mb_created", Delta(c.tuple_bytes, o.tuple_bytes) / 1e6, "MB",
       "lower"},
      {"runtime.table_mb", x.table_mb, "MB", "lower"},
      {"wire.bytes_per_msg", Ratio(Delta(c.tx_bytes, o.tx_bytes), msgs), "B", "lower"},
      {"wire.encode_ns", x.encode_ns, "ns", "lower"},
      {"wire.decode_ns", x.decode_ns, "ns", "lower"},
      {"udp.datagrams", datagrams, "count", "lower"},
      {"udp.envelopes", envelopes, "count", "lower"},
      {"udp.batch_ratio", Ratio(envelopes, datagrams), "ratio", "higher"},
      {"udp.envelopes_dropped", Delta(c.envelopes_dropped, o.envelopes_dropped), "count",
       "lower"},
      {"udp.frame_decode_errors", Delta(c.frame_decode_errors, o.frame_decode_errors),
       "count", "lower"},
      {"udp.gen_late_ms_tail", late.tail, "ms", "lower"},
      {"tracer.rule_exec_rows", Delta(c.rule_exec_rows, o.rule_exec_rows), "rows",
       "lower"},
      {"forensics.records", static_cast<double>(x.forensics_records), "records", "higher"},
      {"forensics.mb", x.forensics_mb, "MB", "lower"},
      {"forensics.dropped_segments", static_cast<double>(x.forensics_dropped),
       "segments", "lower"},
      {"replay.chains", static_cast<double>(x.replay_chains), "chains", "higher"},
      {"replay.steps", static_cast<double>(x.replay_steps), "steps", "higher"},
      {"replay.ms_p50", replay.p50, "ms", "lower"},
      {"replay.ms_tail", replay.tail, "ms", "lower"},
      {"replay.us_per_step",
       Ratio(x.replay_ms_total * 1e3, static_cast<double>(x.replay_steps)), "us",
       "lower"},
      {"mon.verdicts", static_cast<double>(x.verdicts), "count", "higher"},
      {"mon.alarms", static_cast<double>(x.alarms), "count", "lower"},
      {"mon.snapshots_done", static_cast<double>(x.snapshots_done), "count", "higher"},
      {"dht.answered_frac", x.dht_answered_frac, "ratio", "higher"},
      {"dht.get_ms_p50", get.p50, "ms", "lower"},
      {"dht.get_ms_tail", get.tail, "ms", "lower"},
      {"dht.put_ms_p50", put.p50, "ms", "lower"},
      {"dht.put_ms_tail", put.tail, "ms", "lower"},
      {"bench.runfor_slice_ms_tail", slices.tail, "ms", "lower"},
      {"bench.heap_mb", p.heap_mb, "MB", "lower"},
  };
}

// ---- fleet helpers (public Fleet / NodeHandle / installer API only) ----

std::vector<NodeHandle> AddNodes(Fleet& fleet, int n) {
  std::vector<NodeHandle> nodes;
  for (int i = 0; i < n; ++i) {
    nodes.push_back(fleet.AddNode("n" + std::to_string(i)));
  }
  return nodes;
}

// Every (source, params) the workload installed and how often: the inputs of
// the lang.parse_ms measurement.
struct ProgramUse {
  std::string source;
  ParamMap params;
  int installs = 0;
};

class Installs {
 public:
  explicit Installs(SpanRecorder* spans) : spans_(spans) {}

  // Host-side NodeHandle::Install, timed as an "install" span.
  void Run(NodeHandle node, const std::function<bool(Node*, std::string*)>& installer,
           Pass* pass) {
    int64_t t0 = NowNs();
    std::string error;
    bool ok = node.Install(installer, &error);
    int64_t t1 = NowNs();
    Record(t0, t1);
    if (!ok) {
      pass->failures.push_back("install failed on " + node.addr() + ": " + error);
    }
  }

  // An install timed elsewhere (posted Chord joins time themselves).
  void Record(int64_t start_ns, int64_t end_ns) {
    install_ns_ += end_ns - start_ns;
    if (spans_ != nullptr) {
      spans_->Add("install", start_ns, end_ns, spans_->Current());
    }
  }

  void Used(const std::string& source, const ParamMap& params, int installs) {
    uses_.push_back({source, params, installs});
  }

  double install_ms() const { return static_cast<double>(install_ns_) / 1e6; }

  // ParseProgram over the source of every install the workload made.
  double ParseMs(Pass* pass) const {
    int64_t total = 0;
    for (const ProgramUse& use : uses_) {
      for (int i = 0; i < use.installs; ++i) {
        ScopedSpan span(spans_, "parse");
        p2::Program program;
        std::string error;
        int64_t t0 = NowNs();
        bool ok = p2::ParseProgram(use.source, use.params, &program, &error);
        total += NowNs() - t0;
        if (!ok) {
          pass->failures.push_back("ParseProgram failed: " + error);
          return 0;
        }
      }
    }
    return static_cast<double>(total) / 1e6;
  }

 private:
  SpanRecorder* spans_;
  int64_t install_ns_ = 0;
  std::vector<ProgramUse> uses_;
};

// Posts staggered Chord joins (n0 is the landmark); each join times its own
// install on its shard's thread into its own slot.
struct ChordJoins {
  std::vector<int64_t> start_ns;
  std::vector<int64_t> end_ns;
};

void PostChordJoins(std::vector<NodeHandle>& nodes, const p2::ChordConfig& base,
                    double stagger, ChordJoins* joins, Installs* installs) {
  joins->start_ns.assign(nodes.size(), 0);
  joins->end_ns.assign(nodes.size(), 0);
  for (size_t i = 0; i < nodes.size(); ++i) {
    p2::ChordConfig config = base;
    config.landmark = i == 0 ? std::string() : nodes[0].addr();
    int64_t* start = &joins->start_ns[i];
    int64_t* end = &joins->end_ns[i];
    nodes[i].Post(static_cast<double>(i) * stagger, [config, start, end](Node& node) {
      *start = NowNs();
      std::string error;
      if (!p2::InstallChord(&node, config, &error)) {
        fprintf(stderr, "InstallChord(%s) failed: %s\n", node.addr().c_str(),
                error.c_str());
        abort();
      }
      *end = NowNs();
    });
  }
  installs->Used(p2::ChordProgram(), p2::ChordParams(base),
                 static_cast<int>(nodes.size()));
}

void RecordChordJoins(const ChordJoins& joins, Installs* installs) {
  for (size_t i = 0; i < joins.start_ns.size(); ++i) {
    installs->Record(joins.start_ns[i], joins.end_ns[i]);
  }
}

// Nodes whose bestSucc is the live node with the next-higher ring id.
int CorrectSuccessors(std::vector<NodeHandle>& nodes) {
  std::vector<std::pair<uint64_t, std::string>> ring;
  std::map<std::string, NodeHandle> by_addr;
  for (NodeHandle& h : nodes) {
    ring.emplace_back(p2::ChordId(h.raw()), h.addr());
    by_addr[h.addr()] = h;
  }
  std::sort(ring.begin(), ring.end());
  int correct = 0;
  for (size_t i = 0; i < ring.size(); ++i) {
    const std::string& next = ring[(i + 1) % ring.size()].second;
    if (ring[i].first != 0 && p2::BestSuccAddr(by_addr[ring[i].second].raw()) == next) {
      ++correct;
    }
  }
  return correct;
}

// Runs in `step` slices until the ring is N/N or `deadline` (virtual) passes.
bool Converge(Fleet& fleet, std::vector<NodeHandle>& nodes, double step, double deadline,
              SpanRecorder* spans) {
  ScopedSpan span(spans, "converge");
  while (CorrectSuccessors(nodes) != static_cast<int>(nodes.size())) {
    if (fleet.Now() >= deadline) {
      return false;
    }
    fleet.RunFor(step);
  }
  return true;
}

void CheckRing(std::vector<NodeHandle>& nodes, const std::string& when, Pass* pass,
               bool count_ops) {
  int correct = CorrectSuccessors(nodes);
  int n = static_cast<int>(nodes.size());
  if (count_ops) {
    pass->attempted += static_cast<uint64_t>(n);
    pass->failed += static_cast<uint64_t>(n - correct);
  }
  if (correct != n) {
    pass->failures.push_back("ring " + std::to_string(correct) + "/" +
                             std::to_string(n) + " " + when);
  }
}

// The measurement window: `count` RunFor(1 s) slices, each a "runfor" span.
void RunSlices(Fleet& fleet, int count, Pass* pass, SpanRecorder* spans,
               OpenLoopClock* clock) {
  for (int i = 0; i < count; ++i) {
    double v0 = fleet.Now();
    int64_t t0 = NowNs();
    if (clock != nullptr) {
      clock->BeginSlice(v0, static_cast<double>(t0) / 1e9);
    }
    fleet.RunFor(1.0);
    int64_t t1 = NowNs();
    pass->slice_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    if (spans != nullptr) {
      spans->Add("runfor", t0, t1, spans->Current());
    }
  }
}

// Window-close reads shared by every workload.
void ReadClose(Fleet& fleet, Extras* x) {
  double now = fleet.Now();
  x->heap_mb = HeapMb();
  for (NodeHandle h : fleet.Handles()) {
    Node* node = h.raw();
    x->live_tuples += node->catalog().TotalRows(now);
    x->table_mb += static_cast<double>(node->catalog().TotalBytes()) / 1e6;
    if (p2::ForensicsStore* store = node->forensics()) {
      p2::ForensicsStats s = store->Stats();
      x->forensics_records += s.records;
      x->forensics_mb += static_cast<double>(s.bytes) / 1e6;
      x->forensics_dropped += s.dropped_segments;
    }
  }
}

// EncodeEnvelope / DecodeEnvelope over a seeded sample of the tuples the
// fleet holds at window close (Chord's routing tables exist on every node).
void WireSample(std::vector<NodeHandle>& nodes, uint64_t seed, SpanRecorder* spans,
                Extras* x, Pass* pass) {
  ScopedSpan span(spans, "wire_sample");
  std::mt19937_64 rng(StreamSeed(seed, "wire"));
  const char* tables[] = {"succ", "finger", "bestSucc", "pingNode", "pred", "node"};
  std::vector<p2::WireEnvelope> sample;
  for (int i = 0; i < 64; ++i) {
    NodeHandle h = nodes[rng() % nodes.size()];
    std::vector<TupleRef> rows = h.Query(tables[rng() % std::size(tables)]);
    for (const TupleRef& t : rows) {
      p2::WireEnvelope env;
      env.src_addr = h.addr();
      env.src_tuple_id = rng();
      env.tuple = t;
      sample.push_back(env);
    }
  }
  if (sample.empty()) {
    pass->failures.push_back("wire sample found no tuples");
    return;
  }
  const int kReps = 50;
  std::vector<std::string> encoded(sample.size());
  int64_t t0 = NowNs();
  for (int r = 0; r < kReps; ++r) {
    for (size_t i = 0; i < sample.size(); ++i) {
      encoded[i] = p2::EncodeEnvelope(sample[i]);
    }
  }
  int64_t t1 = NowNs();
  size_t ok = 0;
  for (int r = 0; r < kReps; ++r) {
    for (const std::string& bytes : encoded) {
      p2::WireEnvelope out;
      ok += p2::DecodeEnvelope(bytes, &out) ? 1 : 0;
    }
  }
  int64_t t2 = NowNs();
  double n = static_cast<double>(sample.size()) * kReps;
  x->encode_ns = static_cast<double>(t1 - t0) / n;
  x->decode_ns = static_cast<double>(t2 - t1) / n;
  if (ok != sample.size() * kReps) {
    pass->failures.push_back("wire sample: DecodeEnvelope rejected an encoded envelope");
  }
}

// Fills the end-to-end fields shared by every workload from the window's
// counters and the close-time reads.
void FinishPass(const Counters& o, const Counters& c, const Extras& x, Pass* pass) {
  pass->window_wall_s = c.wall_s - o.wall_s;
  pass->window_cpu_s = c.cpu_s - o.cpu_s;
  pass->tx_msgs = c.tx_msgs - o.tx_msgs;
  pass->wire_bytes = c.tx_bytes - o.tx_bytes;
  pass->live_tuples = x.live_tuples;
  pass->heap_mb = x.heap_mb;
  if (c.shed_reliable != 0) {
    pass->failures.push_back("shed_reliable = " + std::to_string(c.shed_reliable));
  }
  if (c.decode_errors != 0) {
    pass->failures.push_back("decode_errors = " + std::to_string(c.decode_errors));
  }
  if (c.frame_decode_errors != 0) {
    pass->failures.push_back("frame_decode_errors = " +
                             std::to_string(c.frame_decode_errors));
  }
  pass->peak_rss_mb = PeakRssMb();
  pass->layer = LayerMetrics(o, c, x, *pass);
}

// Event tallies fed by OnEvent callbacks, which run on shard threads.
struct Tally {
  std::atomic<uint64_t> verdicts{0};
  std::atomic<uint64_t> alarms{0};
};

void SubscribeMonitors(std::vector<NodeHandle>& nodes, Tally* tally) {
  for (NodeHandle& h : nodes) {
    h.OnEvent("inconsistentPred", [tally](const TupleRef&) { ++tally->alarms; });
    h.OnEvent("consAlarm", [tally](const TupleRef&) { ++tally->alarms; });
    h.OnEvent("consistency", [tally](const TupleRef&) { ++tally->verdicts; });
  }
}

// The parameters InstallConsistencyProbes loads its program with.
ParamMap ConsistencyParams(const p2::ConsistencyConfig& cc) {
  return {{"tProbePeriod", Value::Double(cc.probe_period)},
          {"tTallyPeriod", Value::Double(cc.tally_period)},
          {"tTallyAge", Value::Double(cc.tally_age)},
          {"tLife", Value::Double(cc.table_lifetime)},
          {"consAlarmAt", Value::Double(cc.alarm_threshold)}};
}

p2::ChordConfig PaperChord() {
  p2::ChordConfig c;
  c.stabilize_period = 5.0;
  c.ping_period = 5.0;
  c.finger_period = 10.0;
  return c;
}

// ---- paper_forensics ----
//
// The paper's §4 deployment with tracing and forensics on every node: the
// trace layer does most of the work, first as appends during the window, then
// as replay reads against the same stores.

Pass PaperForensics(const RunArgs& args, SpanRecorder* spans) {
  Pass pass;
  pass.op_name = "replay";
  Extras x;
  Installs installs(spans);
  Tally tally;

  int64_t setup0 = NowNs();
  uint64_t setup_span = spans != nullptr ? spans->Begin("setup") : 0;
  FleetConfig fc;
  fc.seed = StreamSeed(args.seed, "fleet");
  fc.node_defaults.tracing = true;
  fc.node_defaults.forensics.enabled = true;
  fc.node_defaults.introspection = false;
  Fleet fleet(fc);
  std::vector<NodeHandle> nodes = AddNodes(fleet, kPaperNodes);
  ChordJoins joins;
  PostChordJoins(nodes, PaperChord(), kPaperStagger, &joins, &installs);
  fleet.RunFor(kPaperStagger * kPaperNodes + 10.0);
  double conv0 = WallS();
  bool converged = Converge(fleet, nodes, 5.0, 300.0, spans);
  x.converge_sim_s = fleet.Now();
  x.converge_wall_s = WallS() - conv0;
  RecordChordJoins(joins, &installs);
  if (!converged) {
    pass.failures.push_back("ring did not converge by t=300");
    return pass;
  }

  NodeHandle target = nodes.back();  // the last-joined node, as in the paper
  p2::RingCheckConfig rc;
  rc.probe_period = kPaperRingProbe;
  p2::ConsistencyConfig cc;
  cc.probe_period = kPaperConsistencyProbe;
  p2::SnapshotConfig sc;
  sc.snap_period = kPaperSnapshotPeriod;
  for (NodeHandle& h : nodes) {
    installs.Run(h, [&](Node* n, std::string* e) { return p2::InstallRingChecks(n, rc, e); },
                 &pass);
    p2::SnapshotConfig node_sc = sc;
    node_sc.initiator = h.addr() == target.addr();
    installs.Run(
        h, [&](Node* n, std::string* e) { return p2::InstallSnapshot(n, node_sc, e); }, &pass);
  }
  installs.Run(
      target, [&](Node* n, std::string* e) { return p2::InstallConsistencyProbes(n, cc, e); },
      &pass);
  installs.Used(p2::RingCheckProgram(rc), {{"tProbe", Value::Double(rc.probe_period)}},
                kPaperNodes);
  installs.Used(p2::SnapshotProgram(sc),
                {{"tState", Value::Double(sc.state_lifetime)},
                 {"tChan", Value::Double(sc.channel_lifetime)}},
                kPaperNodes);
  installs.Used(p2::SnapshotInitiatorProgram(),
                {{"tSnapFreq", Value::Double(sc.snap_period)}}, 1);
  installs.Used(p2::ConsistencyProgram(cc), ConsistencyParams(cc), 1);
  SubscribeMonitors(nodes, &tally);
  // Warm up until trace rows have started to expire: before the first
  // ruleExec lifetime has passed the trace tables are still filling, and a
  // traced node's cost per sim-second has not reached its steady state.
  fleet.RunUntil(std::max(kPaperWarmUntil, fleet.Now() + kMonitorWarmup));
  CheckRing(nodes, "before the window", &pass, false);
  if (spans != nullptr) {
    spans->End(setup_span);
  }
  pass.setup_s = static_cast<double>(NowNs() - setup0) / 1e9;
  if (!pass.failures.empty()) {
    return pass;
  }

  int window = PaperWindow(args.seconds);
  int64_t snap0 = p2::LatestDoneSnapshot(target.raw());
  Counters open = ReadCounters(fleet);
  double t_open = fleet.Now();
  {
    ScopedSpan span(spans, "window");
    RunSlices(fleet, window, &pass, spans, nullptr);
  }
  Counters close = ReadCounters(fleet);
  double t_close = fleet.Now();
  pass.window_sim_s = t_close - t_open;
  CheckRing(nodes, "at window close", &pass, true);
  x.snapshots_done = static_cast<uint64_t>(p2::LatestDoneSnapshot(target.raw()) - snap0);
  x.verdicts = tally.verdicts;
  x.alarms = tally.alarms;
  ReadClose(fleet, &x);
  for (NodeHandle& h : nodes) {
    if (h.raw()->forensics()->Stats().oldest_time > t_open) {
      pass.failures.push_back("forensics on " + h.addr() +
                              " no longer retains the window start");
    }
  }

  // Closed loop of replay queries. On a converged ring every node derives
  // each key at least once per 5 s: pingEvent, pingReq and stabilizeRequest
  // from its own periodic rules, pingResp, sendPred and returnSucc in answer
  // to its predecessor's periodic requests (chains with a cross-node hop).
  // Every query window is >= 12 s deep, so each must return a chain. Lookups
  // are left out: how many a node forwards depends on the seed's probe keys,
  // and those few heavy queries would decide the tail on their own. Each
  // round asks every (node, key, depth) once, in a seeded order, so every
  // seed runs the same mix; with the mix drawn at random, the median moved by
  // up to 40% from seed to seed while one seed's repeated within 5%.
  std::mt19937_64 rng(StreamSeed(args.seed, "replay"));
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  int queries = PaperQueries(args.seconds);
  std::vector<int> round(kReplayRound);
  for (int i = 0; i < kReplayRound; ++i) {
    round[i] = i;
  }
  {
    ScopedSpan span(spans, "replay_loop");
    for (int q = 0; q < queries; ++q) {
      if (q % kReplayRound == 0) {
        std::shuffle(round.begin(), round.end(), rng);
      }
      int combo = round[q % kReplayRound];
      NodeHandle h = nodes[combo % kPaperNodes];
      std::string key = kReplayKeys[combo / kPaperNodes % std::size(kReplayKeys)];
      double depth = std::min(kReplayDepths[combo / kPaperNodes / std::size(kReplayKeys)],
                              pass.window_sim_s);
      double t2 = t_open + depth + unit(rng) * (pass.window_sim_s - depth);
      double t1 = t2 - depth;
      int64_t q0 = NowNs();
      std::vector<p2::CausalChain> chains = h.ReplayChains(key, t1, t2);
      int64_t q1 = NowNs();
      if (spans != nullptr) {
        spans->Add("replay", q0, q1, spans->Current());
      }
      double ms = static_cast<double>(q1 - q0) / 1e6;
      pass.op_ms.push_back(ms);
      x.replay_ms_total += ms;
      ++pass.attempted;
      if (chains.empty()) {
        ++pass.failed;
      }
      x.replay_chains += chains.size();
      for (const p2::CausalChain& c : chains) {
        x.replay_steps += c.steps.size();
      }
    }
  }
  pass.latency_ms["replay"] = pass.op_ms;
  if (pass.failed != 0) {
    pass.failures.push_back(std::to_string(pass.failed) + " operations failed");
  }
  if (spans != nullptr) {
    x.parse_ms = installs.ParseMs(&pass);
    WireSample(nodes, args.seed, spans, &x, &pass);
  }
  x.install_ms = installs.install_ms();
  FinishPass(open, close, x, &pass);
  pass.deterministic = {{"tx_msgs", pass.tx_msgs},
                        {"live_tuples", pass.live_tuples},
                        {"rule_exec_rows", close.rule_exec_rows - open.rule_exec_rows},
                        {"replay_chains", x.replay_chains},
                        {"replay_steps", x.replay_steps}};
  return pass;
}

// ---- chord_fleet_sharded, chord_fleet_32 ----
//
// Monitored Chord with tracing off: dataflow, runtime and wire do the work,
// and on 2 shards the PDES windows too; the trace layer does none.

Pass ChordFleet(const RunArgs& args, SpanRecorder* spans) {
  const ShardedSpec spec = Sharded(args.workload);
  const int num_nodes = spec.nodes;
  Pass pass;
  pass.op_name = "ten_sim_second_step";
  Extras x;
  Installs installs(spans);
  Tally tally;

  int64_t setup0 = NowNs();
  uint64_t setup_span = spans != nullptr ? spans->Begin("setup") : 0;
  FleetConfig fc;
  fc.seed = StreamSeed(args.seed, "fleet");
  fc.shards = spec.shards;
  // 50 ms links: the conservative lookahead, so also the PDES window width.
  fc.latency = 0.05;
  fc.jitter = 0.02;
  fc.node_defaults.introspection = false;
  Fleet fleet(fc);
  std::vector<NodeHandle> nodes = AddNodes(fleet, num_nodes);
  ChordJoins joins;
  PostChordJoins(nodes, PaperChord(), kShardedStagger, &joins, &installs);
  fleet.RunFor(kShardedStagger * num_nodes + 10.0);
  double conv0 = WallS();
  bool converged = Converge(fleet, nodes, 10.0, 2400.0, spans);
  x.converge_sim_s = fleet.Now();
  x.converge_wall_s = WallS() - conv0;
  RecordChordJoins(joins, &installs);
  if (!converged) {
    pass.failures.push_back("ring did not converge by t=2400");
    return pass;
  }
  // Set-up always simulates at least kShardedSettlePerNode * N seconds, well
  // past the slowest convergence seen, so set-up time does not swing with how
  // soon a given seed's ring happens to close.
  fleet.RunUntil(std::max(fleet.Now(), kShardedSettlePerNode * num_nodes));

  // Ring checks everywhere; consistency probes on every 7th node (a stride
  // coprime to 2, so on 2 shards probe initiators spread over both).
  p2::RingCheckConfig rc;
  rc.probe_period = 2.0;
  p2::ConsistencyConfig cc;
  cc.probe_period = 2.0;
  cc.tally_period = 20.0;
  cc.tally_age = 20.0;
  int probes = 0;
  for (size_t i = 0; i < nodes.size(); ++i) {
    installs.Run(nodes[i],
                 [&](Node* n, std::string* e) { return p2::InstallRingChecks(n, rc, e); },
                 &pass);
    if (i % kShardedProbeStride == 0) {
      installs.Run(
          nodes[i],
          [&](Node* n, std::string* e) { return p2::InstallConsistencyProbes(n, cc, e); },
          &pass);
      ++probes;
    }
  }
  installs.Used(p2::RingCheckProgram(rc), {{"tProbe", Value::Double(rc.probe_period)}},
                num_nodes);
  installs.Used(p2::ConsistencyProgram(cc), ConsistencyParams(cc), probes);
  SubscribeMonitors(nodes, &tally);
  fleet.RunFor(kMonitorWarmup);
  CheckRing(nodes, "before the window", &pass, false);
  if (spans != nullptr) {
    spans->End(setup_span);
  }
  pass.setup_s = static_cast<double>(NowNs() - setup0) / 1e9;
  if (!pass.failures.empty()) {
    return pass;
  }

  Counters open = ReadCounters(fleet);
  uint64_t verdicts0 = tally.verdicts;
  uint64_t alarms0 = tally.alarms;
  {
    ScopedSpan span(spans, "window");
    RunSlices(fleet, ShardedWindow(args.seconds, spec), &pass, spans, nullptr);
  }
  Counters close = ReadCounters(fleet);
  pass.window_sim_s = close.sim_t - open.sim_t;
  CheckRing(nodes, "at window close", &pass, true);
  // The timed op is a 10-sim-second step: 1 s slices alternate between probe
  // and idle seconds, so their median would sit between two modes.
  for (size_t i = 0; i + kShardedStepSlices <= pass.slice_ms.size(); i += kShardedStepSlices) {
    double ms = 0;
    for (int k = 0; k < kShardedStepSlices; ++k) {
      ms += pass.slice_ms[i + k];
    }
    pass.op_ms.push_back(ms);
  }
  x.verdicts = tally.verdicts - verdicts0;
  x.alarms = tally.alarms - alarms0;
  ReadClose(fleet, &x);
  if (spans != nullptr) {
    x.parse_ms = installs.ParseMs(&pass);
    WireSample(nodes, args.seed, spans, &x, &pass);
  }
  x.install_ms = installs.install_ms();
  FinishPass(open, close, x, &pass);
  pass.deterministic = {{"tx_msgs", pass.tx_msgs},
                        {"live_tuples", pass.live_tuples},
                        {"rule_exec_rows", close.rule_exec_rows - open.rule_exec_rows}};
  return pass;
}

// ---- udp_dht ----
//
// 64-node monitored Chord + DHT over loopback UDP under an open-loop mix of
// gets and replicated puts: the only workload with the udp_driver poll loop,
// batch framing and the wall-paced clock on the request path.

struct Request {
  double due = 0;  // virtual time
  bool put = false;
  size_t origin = 0;
  std::string key;
  std::string value;  // expected (get) or written (put)
  int64_t fired_ns = 0;
  int64_t done_ns = 0;
  bool correct = false;
};

Pass UdpDht(const RunArgs& args, SpanRecorder* spans) {
  Pass pass;
  pass.op_name = "dht_request";
  Extras x;
  Installs installs(spans);
  Tally tally;
  // Outlives the fleet: response callbacks and posted requests point into it.
  std::vector<Request> reqs;

  int64_t setup0 = NowNs();
  uint64_t setup_span = spans != nullptr ? spans->Begin("setup") : 0;
  FleetConfig fc;
  fc.seed = StreamSeed(args.seed, "fleet");
  fc.backend = p2::FleetBackend::kUdp;
  fc.udp_max_datagram = 8192;  // loopback: no ethernet MTU to respect
  fc.node_defaults.introspection = false;
  Fleet fleet(fc);
  std::vector<NodeHandle> nodes = AddNodes(fleet, kUdpNodes);
  for (NodeHandle& h : nodes) {
    if (!h.valid()) {
      pass.failures.push_back("udp socket bind failed");
      return pass;
    }
  }
  // Fast protocol periods so the wall-paced ring converges in seconds.
  p2::ChordConfig chord;
  chord.stabilize_period = 0.5;
  chord.ping_period = 0.5;
  chord.finger_period = 1.0;
  chord.ping_timeout = 0.4;
  chord.rejoin_check_period = 2.0;
  ChordJoins joins;
  PostChordJoins(nodes, chord, kUdpStagger, &joins, &installs);
  fleet.RunFor(kUdpStagger * kUdpNodes + 2.0);
  double conv0 = WallS();
  bool converged = Converge(fleet, nodes, 1.0, fleet.Now() + 60.0, spans);
  x.converge_sim_s = fleet.Now();
  x.converge_wall_s = WallS() - conv0;
  RecordChordJoins(joins, &installs);
  if (!converged) {
    pass.failures.push_back("udp ring did not converge within 60 s");
    return pass;
  }
  p2::RingCheckConfig rc;
  rc.probe_period = 2.0;
  p2::DhtConfig dc;
  for (NodeHandle& h : nodes) {
    installs.Run(h, [&](Node* n, std::string* e) { return p2::InstallRingChecks(n, rc, e); },
                 &pass);
    installs.Run(h, [&](Node* n, std::string* e) { return p2::InstallDht(n, dc, e); },
                 &pass);
  }
  installs.Used(p2::RingCheckProgram(rc), {{"tProbe", Value::Double(rc.probe_period)}},
                kUdpNodes);
  installs.Used(p2::DhtProgram(dc),
                {{"tStore", Value::Double(dc.store_lifetime)},
                 {"tPending", Value::Double(dc.pending_lifetime)}},
                kUdpNodes);
  SubscribeMonitors(nodes, &tally);

  // Requests: the preload puts (ids < kUdpKeys) then the measured open loop.
  std::mt19937_64 rng(StreamSeed(args.seed, "requests"));
  std::vector<std::string> values;
  for (int i = 0; i < kUdpKeys; ++i) {
    Request r;
    r.put = true;
    r.origin = static_cast<size_t>(i * 5) % nodes.size();
    r.key = "key" + std::to_string(i);
    r.value = "v" + std::to_string(rng() % 1000000);
    values.push_back(r.value);
    reqs.push_back(r);
  }
  for (NodeHandle& h : nodes) {
    h.OnEvent("dhtGetResp", [&reqs](const TupleRef& t) {
      uint64_t id = t->field(3).AsId();
      if (id < reqs.size() && reqs[id].done_ns == 0) {
        Request& r = reqs[id];
        r.done_ns = NowNs();
        r.correct = !r.put && t->field(4).Truthy() && t->field(2).AsString() == r.value;
      }
    });
    h.OnEvent("dhtPutAck", [&reqs](const TupleRef& t) {
      uint64_t id = t->field(2).AsId();
      if (id < reqs.size() && reqs[id].done_ns == 0) {
        Request& r = reqs[id];
        r.done_ns = NowNs();
        r.correct = r.put && t->field(1).AsString() == r.key;
      }
    });
  }
  fleet.RunFor(1.0);
  for (int i = 0; i < kUdpKeys; ++i) {
    const Request& r = reqs[i];
    p2::DhtPut(nodes[r.origin].raw(), r.key, r.value, static_cast<uint64_t>(i));
  }
  double preload_deadline = fleet.Now() + 10.0;
  auto preloaded = [&] {
    for (int i = 0; i < kUdpKeys; ++i) {
      if (!reqs[i].correct) {
        return false;
      }
    }
    return true;
  };
  while (!preloaded() && fleet.Now() < preload_deadline) {
    fleet.RunFor(0.5);
  }
  if (!preloaded()) {
    pass.failures.push_back("DHT preload puts were not all acknowledged");
  }
  CheckRing(nodes, "before the window", &pass, false);
  if (spans != nullptr) {
    spans->End(setup_span);
  }
  pass.setup_s = static_cast<double>(NowNs() - setup0) / 1e9;
  if (!pass.failures.empty()) {
    return pass;
  }

  // The open loop: seeded gets of preloaded keys and puts of fresh keys at a
  // fixed rate from round-robin origins, posted at their due virtual times.
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  size_t count = static_cast<size_t>(kUdpRate * args.seconds);
  double base = fleet.Now() + 0.05;
  for (size_t i = 0; i < count; ++i) {
    Request r;
    r.due = base + static_cast<double>(i) / kUdpRate;
    r.origin = i % nodes.size();
    r.put = unit(rng) < kUdpPutShare;
    if (r.put) {
      r.key = "w" + std::to_string(i);
      r.value = "v" + std::to_string(rng() % 1000000);
    } else {
      size_t k = rng() % kUdpKeys;
      r.key = "key" + std::to_string(k);
      r.value = values[k];
    }
    reqs.push_back(r);
  }
  Request* table = reqs.data();
  for (size_t id = kUdpKeys; id < reqs.size(); ++id) {
    Request* r = &table[id];
    nodes[r->origin].Post(r->due, [r, id](Node& node) {
      r->fired_ns = NowNs();
      if (r->put) {
        p2::DhtPut(&node, r->key, r->value, id);
      } else {
        p2::DhtGet(&node, r->key, id);
      }
    });
  }

  Counters open = ReadCounters(fleet);
  OpenLoopClock clock;
  int slices = static_cast<int>(std::ceil(args.seconds + 0.05 + kUdpDrain));
  {
    ScopedSpan span(spans, "window");
    RunSlices(fleet, slices, &pass, spans, &clock);
  }
  Counters close = ReadCounters(fleet);
  pass.window_sim_s = close.sim_t - open.sim_t;
  uint64_t answered = 0;
  for (size_t id = kUdpKeys; id < reqs.size(); ++id) {
    const Request& r = reqs[id];
    ++pass.attempted;
    if (r.done_ns != 0) {
      ++answered;
    }
    if (r.done_ns == 0 || !r.correct) {
      ++pass.failed;
      if (pass.failed <= 5) {
        pass.failures.push_back(std::string(r.put ? "put" : "get") + " " + r.key + " from " +
                                nodes[r.origin].addr() + " due at t=" +
                                std::to_string(r.due) +
                                (r.done_ns == 0 ? " unanswered" : " answered wrongly"));
      }
      continue;
    }
    double ms = clock.MsSinceDue(r.due, static_cast<double>(r.done_ns) / 1e9);
    pass.op_ms.push_back(ms);
    pass.latency_ms[r.put ? "put" : "get"].push_back(ms);
    if (r.fired_ns != 0) {
      pass.gen_late_ms.push_back(
          clock.MsSinceDue(r.due, static_cast<double>(r.fired_ns) / 1e9));
    }
    if (spans != nullptr) {
      spans->Add(r.put ? "dht_put" : "dht_get",
                 static_cast<int64_t>(clock.DueWall(r.due) * 1e9), r.done_ns, 0);
    }
  }
  x.dht_answered_frac = Ratio(static_cast<double>(answered), static_cast<double>(count));
  if (pass.failed != 0) {
    pass.failures.push_back(std::to_string(pass.failed) + " DHT requests unanswered or wrong");
  }
  x.verdicts = tally.verdicts;
  x.alarms = tally.alarms;
  ReadClose(fleet, &x);
  if (spans != nullptr) {
    x.parse_ms = installs.ParseMs(&pass);
    WireSample(nodes, args.seed, spans, &x, &pass);
  }
  x.install_ms = installs.install_ms();
  FinishPass(open, close, x, &pass);
  return pass;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"paper_forensics", "chord_fleet_32",
                                                 "chord_fleet_sharded",
                                                 "chord_fleet_sharded_32", "udp_dht"};
  return names;
}

std::string WorkloadParams(const std::string& workload, int seconds) {
  char buf[512];
  if (workload == "paper_forensics") {
    snprintf(buf, sizeof(buf),
             "backend=sim shards=1 nodes=%d stagger=%gs chord=5/5/10s tracing=on "
             "forensics=on ring_probe=%gs consistency_probe=%gs snapshot=%gs "
             "window=%ds replay_queries=%d (closed loop)",
             kPaperNodes, kPaperStagger, kPaperRingProbe, kPaperConsistencyProbe,
             kPaperSnapshotPeriod, PaperWindow(seconds), PaperQueries(seconds));
  } else if (IsChordFleet(workload)) {
    snprintf(buf, sizeof(buf),
             "backend=sim shards=%d nodes=%d stagger=%gs chord=5/5/10s latency=50ms "
             "tracing=off ring_probe=2s consistency_probe=2s every %d nodes window=%ds",
             Sharded(workload).shards, Sharded(workload).nodes, kShardedStagger,
             kShardedProbeStride,
             ShardedWindow(seconds, Sharded(workload)));
  } else {
    snprintf(buf, sizeof(buf),
             "backend=udp(loopback) nodes=%d stagger=%gs chord=0.5/0.5/1s ring_probe=2s "
             "keys=%d rate=%g/s (open loop) put_share=%g window=%ds drain=%gs",
             kUdpNodes, kUdpStagger, kUdpKeys, kUdpRate, kUdpPutShare, seconds, kUdpDrain);
  }
  return buf;
}

Pass RunPass(const RunArgs& args, SpanRecorder* spans) {
  if (args.workload == "paper_forensics") {
    return PaperForensics(args, spans);
  }
  if (IsChordFleet(args.workload)) {
    return ChordFleet(args, spans);
  }
  return UdpDht(args, spans);
}

}  // namespace p2bench
