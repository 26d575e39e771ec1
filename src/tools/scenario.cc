#include "src/tools/scenario.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <vector>

#include "src/net/udp_driver.h"

#include "src/apps/dht.h"
#include "src/chord/chord.h"
#include "src/common/strings.h"
#include "src/mon/ring_checks.h"
#include "src/mon/snapshot.h"
#include "src/overlays/flood.h"

namespace p2 {

namespace {

// A word of a scenario line and the offset just past it.
struct Word {
  std::string text;
  size_t end;
};

// Splits a line into whitespace-separated words, keeping "quoted strings" and
// parenthesized tuple literals intact as single words. An unquoted '#' starts a
// comment; its text goes to *comment.
std::vector<Word> Words(const std::string& line, std::string* comment) {
  std::vector<Word> out;
  std::string current;
  int depth = 0;
  bool in_string = false;
  size_t stop = line.size();
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (c == '#' && !in_string) {
      *comment = line.substr(i + 1);
      stop = i;
      break;
    }
    if (c == '"') {
      in_string = !in_string;
    } else if (c == '(' && !in_string) {
      ++depth;
    } else if (c == ')' && !in_string) {
      --depth;
    }
    if (std::isspace(static_cast<unsigned char>(c)) && depth == 0 && !in_string) {
      if (!current.empty()) {
        out.push_back({current, i});
        current.clear();
      }
    } else {
      current += c;
    }
  }
  if (!current.empty()) {
    out.push_back({current, stop});
  }
  return out;
}

bool IsNumber(const std::string& s) {
  if (s.empty()) {
    return false;
  }
  char* end = nullptr;
  std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size();
}

bool ParseU64(const std::string& text, const std::string& what, uint64_t* out,
              std::string* error) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
    *error = "bad unsigned integer for " + what + ": '" + text + "'";
    return false;
  }
  errno = 0;
  *out = std::strtoull(text.c_str(), nullptr, 10);
  if (errno == ERANGE) {
    *error = "integer out of range for " + what + ": '" + text + "'";
    return false;
  }
  return true;
}

// Strict value parsing: a malformed value (e.g. `at=1O`) fails the line rather than
// reading as 0 — simfuzz round-trips generated scenario files through this grammar
// and relies on every typo being a line-numbered error.
bool ParseValue(const ScenarioParam& p, const std::string& text, ScenarioValue* v,
                std::string* error) {
  const std::string name = p.name;
  v->key = name;
  v->text = text;
  switch (p.kind) {
    case ScenarioParam::kText:
    case ScenarioParam::kFlag:
      return true;
    case ScenarioParam::kEnum:
      if (("|" + std::string(p.choices) + "|").find("|" + text + "|") ==
          std::string::npos) {
        *error = name + " must be " + p.choices + ": " + text;
        return false;
      }
      return true;
    case ScenarioParam::kNumber:
      if (!IsNumber(text)) {
        *error = "bad number for " + name + ": '" + text + "'";
        return false;
      }
      v->num = std::strtod(text.c_str(), nullptr);
      break;
    case ScenarioParam::kU64:
      if (!ParseU64(text, name, &v->u64, error)) {
        return false;
      }
      v->num = static_cast<double>(v->u64);
      break;
  }
  if (v->num < p.lo || v->num > p.hi) {
    *error = std::isinf(p.hi)
                 ? StrFormat("%s must be >= %g: %s", p.name, p.lo, text.c_str())
                 : StrFormat("%s must be in [%g,%g]: %s", p.name, p.lo, p.hi, text.c_str());
    return false;
  }
  return true;
}

const ScenarioParam* FindParam(const std::vector<ScenarioParam>& specs,
                               const std::string& name) {
  for (const ScenarioParam& p : specs) {
    if (name == p.name) {
      return &p;
    }
  }
  return nullptr;
}

// Reads one `key=value` option or bare flag against `specs`; `usage`, when given,
// is appended to an unknown-option error.
bool ParseOption(const std::vector<ScenarioParam>& specs, const std::string& what,
                 const char* usage, const std::string& word, ScenarioCommand* out,
                 std::string* error) {
  size_t eq = word.find('=');
  const ScenarioParam* p = FindParam(specs, word.substr(0, eq));
  if (p == nullptr || (p->kind == ScenarioParam::kFlag) != (eq == std::string::npos)) {
    *error = "unknown " + what + " option: " + word;
    if (usage != nullptr) {
      *error += std::string(" (usage: ") + usage + ")";
    }
    return false;
  }
  ScenarioValue v;
  if (!ParseValue(*p, eq == std::string::npos ? "" : word.substr(eq + 1), &v, error)) {
    return false;
  }
  out->options.push_back(std::move(v));
  return true;
}

// Parses one value of a tuple literal.
bool ParseLiteralValue(const std::string& text, Value* out, std::string* error) {
  if (text.empty()) {
    *error = "empty value";
    return false;
  }
  if (text.front() == '"') {
    if (text.size() < 2 || text.back() != '"') {
      *error = "unterminated string: " + text;
      return false;
    }
    *out = Value::Str(text.substr(1, text.size() - 2));
    return true;
  }
  if (StartsWith(text, "id:")) {
    uint64_t id = 0;
    if (!ParseU64(text.substr(3), "id", &id, error)) {
      return false;
    }
    *out = Value::Id(id);
    return true;
  }
  if (text == "true") {
    *out = Value::Bool(true);
    return true;
  }
  if (text == "false") {
    *out = Value::Bool(false);
    return true;
  }
  if (IsNumber(text)) {
    if (text.find('.') == std::string::npos && text.find('e') == std::string::npos) {
      errno = 0;
      *out = Value::Int(std::strtoll(text.c_str(), nullptr, 10));
      if (errno == ERANGE) {
        *error = "integer out of range: " + text;
        return false;
      }
    } else {
      *out = Value::Double(std::strtod(text.c_str(), nullptr));
    }
    return true;
  }
  // Bare identifier: a string (node addresses, labels).
  *out = Value::Str(text);
  return true;
}

// Parses `name(v1, v2, ...)`.
bool ParseTupleLiteral(const std::string& text, TupleRef* out, std::string* error) {
  size_t open = text.find('(');
  if (open == std::string::npos || text.back() != ')') {
    *error = "expected name(v1, ...): " + text;
    return false;
  }
  std::string name = text.substr(0, open);
  std::string args = text.substr(open + 1, text.size() - open - 2);
  if (args.find_first_not_of(" \t") == std::string::npos) {
    *out = Tuple::Make(std::move(name), {});  // t(): no fields
    return true;
  }
  ValueList fields;
  std::string current;
  int depth = 0;
  bool in_string = false;
  auto flush = [&]() -> bool {
    // Trim whitespace.
    size_t b = current.find_first_not_of(" \t");
    size_t e = current.find_last_not_of(" \t");
    if (b == std::string::npos) {
      *error = "empty field in tuple: " + text;
      return false;
    }
    Value v;
    if (!ParseLiteralValue(current.substr(b, e - b + 1), &v, error)) {
      return false;
    }
    fields.push_back(std::move(v));
    current.clear();
    return true;
  };
  for (char c : args) {
    if (in_string) {
      current += c;
      if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
      current += c;
      continue;
    }
    if (c == ',' && depth == 0) {
      if (!flush()) {
        return false;
      }
      continue;
    }
    if (c == '(') {
      ++depth;
    } else if (c == ')') {
      --depth;
    }
    current += c;
  }
  if (!flush()) {
    return false;
  }
  *out = Tuple::Make(std::move(name), std::move(fields));
  return true;
}

}  // namespace

// One directive of the scenario language: the single definition the parser
// checks lines against and the interpreter dispatches through.
struct ScenarioDirective {
  using Handler = bool (ScenarioRunner::Impl::*)(const ScenarioCommand&, std::string*);
  // Where a directive's options go relative to its arguments; kMoreWords takes every
  // word after the arguments as a further argument (program params, inline source).
  enum Layout { kOptionsLast, kOptionsFirst, kMoreWords };

  const char* name;
  const char* usage;
  std::vector<ScenarioParam> args;  // positional, all required
  std::vector<ScenarioParam> options;
  Handler run;
  Layout layout = kOptionsLast;

  static const std::vector<ScenarioDirective>& Table();
  static const ScenarioDirective* Find(const std::string& name) {
    for (const ScenarioDirective& d : Table()) {
      if (name == d.name) {
        return &d;
      }
    }
    return nullptr;
  }
};

struct ScenarioRunner::Impl {
  using Nodes = std::vector<NodeHandle>;

  std::function<void(const std::string&)> out;
  // Telemetry export: the sink is declared before the fleet so that it outlives the
  // network, which holds a raw pointer; a path requested before the network exists
  // is held pending and attached when the first node creates it.
  std::unique_ptr<MetricsSink> metrics_sink;
  std::string pending_metrics_path;
  std::unique_ptr<Fleet> fleet;
  int expectations_passed = 0;
  FleetConfig fleet_config;
  // What every later `node` line starts from: `forensics` and `limits` write their
  // settings here (the Node constructor builds the retention store and the queues,
  // so neither can be enabled retroactively).
  NodeOptions node_template;

  // Partitioned multi-process execution (fleetd --index/--procs): the k-th
  // `node` directive is hosted here iff k % proc_count == proc_index; names
  // hosted elsewhere are recorded so directives addressing them are skipped
  // (distinct from an unknown-name error — every process runs one profile).
  int proc_index = 0;
  int proc_count = 1;
  int node_ordinal = 0;
  std::set<std::string> remote_nodes;

  // Rendezvous exchange, performed at the first `run` (all local nodes exist by
  // then, none has pumped wall-clock time yet).
  bool have_rendezvous = false;
  bool rendezvous_done = false;
  RendezvousConfig rendezvous;

  void Print(const std::string& s) {
    if (out) {
      out(s);
    } else {
      fputs(s.c_str(), stdout);
    }
  }

  bool SetMetricsOut(const std::string& path, std::string* error) {
    if (fleet == nullptr) {
      pending_metrics_path = path;
      return true;
    }
    std::unique_ptr<MetricsSink> sink = OpenMetricsSink(path, error);
    if (sink == nullptr) {
      return false;
    }
    metrics_sink = std::move(sink);
    fleet->SetMetricsSink(metrics_sink.get());
    return true;
  }

  bool NeedFleet(std::string* error) {
    if (fleet == nullptr) {
      *error = "no nodes created yet";
      return false;
    }
    return true;
  }

  // Resolves <addr|all> into a handle list. A node hosted by another process
  // (fleetd --procs) resolves successfully to an EMPTY list: the directive is
  // someone else's to execute, and every handler treats no-handles as a no-op.
  // Unknown names still fail.
  bool Resolve(const std::string& which, Nodes* nodes, std::string* error) {
    if (!NeedFleet(error)) {
      return false;
    }
    if (which == "all") {
      *nodes = fleet->Handles();
      return true;
    }
    if (!fleet->HasNode(which)) {
      if (remote_nodes.count(which) > 0) {
        return true;
      }
      *error = "unknown node: " + which;
      return false;
    }
    nodes->push_back(fleet->Handle(which));
    return true;
  }

  // A node name valid somewhere in the deployment (local or remote).
  bool KnownNode(const std::string& addr) const {
    return (fleet != nullptr && fleet->HasNode(addr)) || remote_nodes.count(addr) > 0;
  }

  bool LocalNode(const std::string& addr, std::string* error) {
    if (!NeedFleet(error)) {
      return false;
    }
    if (!fleet->HasNode(addr)) {
      *error = "unknown node: " + addr;
      return false;
    }
    return true;
  }

  // The simulated fault pipeline does not exist over real sockets; the udp backend
  // injects loss through UdpDriver::SetEgressLossRate instead (docs/DEPLOYMENT.md).
  bool SimOnly(const ScenarioCommand& c, std::string* error) {
    if (fleet != nullptr && fleet->udp() != nullptr) {
      *error = c.name + " is not supported with backend=udp";
      return false;
    }
    return true;
  }

  // Reads time option `key` into *at when present. A time already in the virtual
  // past fails: the scheduler would clamp it to "now", silently reordering the
  // scenario.
  bool FutureTime(const ScenarioCommand& c, const char* key, double* at,
                  std::string* error) {
    const ScenarioValue* v = c.Find(key);
    if (v != nullptr && v->num < fleet->Now()) {
      *error = StrFormat("%s=%g is in the past (virtual time is %g)", key, v->num,
                         fleet->Now());
      return false;
    }
    c.Get(key, at);
    return true;
  }

  // Runs `fn` on the node the first argument names; a node hosted by another
  // process is a no-op (that process runs this line).
  bool CallOne(const ScenarioCommand& c, const std::function<void(Node*)>& fn,
               std::string* error) {
    Nodes nodes;
    if (!Resolve(c.args[0].text, &nodes, error)) {
      return false;
    }
    if (!nodes.empty()) {
      nodes[0].Call(fn);
    }
    return true;
  }

  // Runs `fn` on every local node the first argument selects, stopping at the
  // first failure.
  bool ForEachNode(const ScenarioCommand& c, const std::function<bool(NodeHandle&)>& fn,
                   std::string* error) {
    Nodes nodes;
    if (!Resolve(c.args[0].text, &nodes, error)) {
      return false;
    }
    for (NodeHandle& node : nodes) {
      if (!fn(node)) {
        return false;
      }
    }
    return true;
  }

  // crash/revive/recover: now, or at=<t> through the *At variants, which post onto
  // each node's own shard.
  bool Fault(const ScenarioCommand& c, void (NodeHandle::*now)(),
             void (NodeHandle::*later)(double), std::string* error) {
    Nodes nodes;
    double at = -1;
    if (!Resolve(c.args[0].text, &nodes, error) || !FutureTime(c, "at", &at, error)) {
      return false;
    }
    for (NodeHandle& node : nodes) {
      at < 0 ? (node.*now)() : (node.*later)(at);
    }
    return true;
  }

  bool Net(const ScenarioCommand& c, std::string* error) {
    if (fleet != nullptr) {
      *error = "net must precede the first node";
      return false;
    }
    c.Get("latency", &fleet_config.latency);
    c.Get("jitter", &fleet_config.jitter);
    c.Get("loss", &fleet_config.loss_rate);
    c.Get("seed", &fleet_config.seed);
    c.Get("shards", &fleet_config.shards);
    // Datagram payload budget for batched envelope frames (udp backend).
    c.Get("mtu", &fleet_config.udp_max_datagram);
    if (const ScenarioValue* backend = c.Find("backend")) {
      fleet_config.backend =
          backend->text == "udp" ? FleetBackend::kUdp : FleetBackend::kSim;
    }
    return true;
  }

  bool Metrics(const ScenarioCommand& c, std::string* error) {
    return SetMetricsOut(c.args[0].text, error);
  }

  bool AddNode(const ScenarioCommand& c, std::string* error) {
    const std::string& addr = c.args[0].text;
    // Partitioned execution: the k-th node directive belongs to process
    // k % procs. Remote nodes are recorded (so later directives naming them are
    // skipped, not rejected) and nothing is created locally.
    int ordinal = node_ordinal++;
    if (proc_count > 1 && ordinal % proc_count != proc_index) {
      remote_nodes.insert(addr);
      return true;
    }
    if (fleet == nullptr) {
      if (fleet_config.shards > 1 && fleet_config.backend == FleetBackend::kUdp) {
        *error = "net shards>1 is not supported with backend=udp "
                 "(the driver pumps one scheduler against the wall clock)";
        return false;
      }
      if (fleet_config.shards > 1 && fleet_config.latency <= 0) {
        *error = "net shards>1 requires latency>0 (the shard lookahead)";
        return false;
      }
      fleet = std::make_unique<Fleet>(fleet_config);
      std::string pending;
      pending.swap(pending_metrics_path);
      if (!pending.empty() && !SetMetricsOut(pending, error)) {
        return false;
      }
    }
    NodeOptions opts = node_template;
    c.Get("trace", &opts.tracing);
    // Ablation switches, mirroring NodeOptions (simfuzz differential mode).
    c.Get("indexes", &opts.use_join_indexes);
    c.Get("metrics", &opts.metrics);
    c.Get("reliable", &opts.reliable_transport);
    if (const ScenarioValue* seed = c.Find("seed")) {
      fleet->AddNodeWithSeed(addr, opts, seed->u64);
    } else {
      fleet->AddNode(addr, opts);
    }
    return true;
  }

  bool Chord(const ScenarioCommand& c, std::string* error) {
    Nodes nodes;
    if (!Resolve(c.args[0].text, &nodes, error)) {
      return false;
    }
    std::string landmark;
    ChordConfig base_cfg;
    c.Get("landmark", &landmark);
    c.Get("stabilize", &base_cfg.stabilize_period);
    c.Get("ping", &base_cfg.ping_period);
    c.Get("finger", &base_cfg.finger_period);
    c.Get("timeout", &base_cfg.ping_timeout);
    c.Get("rejoin", &base_cfg.rejoin_check_period);
    if (proc_count > 1) {
      // A per-process default landmark would bootstrap a different ring in every
      // process; multi-process profiles must name one node explicitly.
      if (landmark.empty()) {
        *error = "chord needs an explicit landmark= under multi-process execution";
        return false;
      }
      if (!KnownNode(landmark)) {
        *error = "unknown node: " + landmark;
        return false;
      }
    }
    for (NodeHandle& node : nodes) {
      ChordConfig cfg = base_cfg;
      cfg.landmark = (node.addr() == landmark) ? std::string() : landmark;
      if (landmark.empty() && node.addr() != nodes.front().addr()) {
        cfg.landmark = nodes.front().addr();
      }
      if (!node.Install(
              [&cfg](Node* n, std::string* e) { return InstallChord(n, cfg, e); },
              error)) {
        return false;
      }
    }
    return true;
  }

  bool Dht(const ScenarioCommand& c, std::string* error) {
    auto install = [](Node* n, std::string* e) { return InstallDht(n, DhtConfig(), e); };
    return ForEachNode(c, [&](NodeHandle& node) { return node.Install(install, error); },
                       error);
  }

  bool Flood(const ScenarioCommand& c, std::string* error) {
    auto install = [](Node* n, std::string* e) {
      return InstallFlood(n, FloodConfig(), e);
    };
    return ForEachNode(c, [&](NodeHandle& node) { return node.Install(install, error); },
                       error);
  }

  bool Put(const ScenarioCommand& c, std::string* error) {
    return CallOne(
        c, [&c](Node* n) { DhtPut(n, c.args[1].text, c.args[2].text, c.args[3].u64); },
        error);
  }

  bool Get(const ScenarioCommand& c, std::string* error) {
    return CallOne(c, [&c](Node* n) { DhtGet(n, c.args[1].text, c.args[2].u64); }, error);
  }

  bool Member(const ScenarioCommand& c, std::string* error) {
    return CallOne(c, [&c](Node* n) { AddMember(n, c.args[1].text); }, error);
  }

  bool Publish(const ScenarioCommand& c, std::string* error) {
    return CallOne(c, [&c](Node* n) { PublishRumor(n, c.args[1].u64, c.args[2].text); },
                   error);
  }

  bool Program(const ScenarioCommand& c, std::string* error) {
    std::ifstream f(c.args[1].text);
    if (!f) {
      *error = "cannot open " + c.args[1].text;
      return false;
    }
    std::stringstream source;
    source << f.rdbuf();
    ParamMap params;
    for (size_t i = 2; i < c.args.size(); ++i) {
      const std::string& word = c.args[i].text;
      size_t eq = word.find('=');
      if (eq == std::string::npos) {
        *error = "expected k=v param: " + word;
        return false;
      }
      if (!ParseLiteralValue(word.substr(eq + 1), &params[word.substr(0, eq)], error)) {
        return false;
      }
    }
    std::string text = source.str();
    return ForEachNode(
        c, [&](NodeHandle& node) { return node.Load(text, params, error); }, error);
  }

  bool Inline(const ScenarioCommand& c, std::string* error) {
    return ForEachNode(
        c, [&](NodeHandle& node) { return node.Load(c.rest, ParamMap(), error); }, error);
  }

  bool Inject(const ScenarioCommand& c, std::string* error) {
    Nodes nodes;
    double at = -1;
    TupleRef tuple;
    if (!Resolve(c.args[0].text, &nodes, error) || !FutureTime(c, "t", &at, error) ||
        !ParseTupleLiteral(c.args[1].text, &tuple, error)) {
      return false;
    }
    for (NodeHandle& node : nodes) {
      // Timed injections are posted onto the node's own shard, so they stay
      // correct under the parallel runtime.
      at < 0 ? node.Inject(tuple) : node.InjectAt(at, tuple);
    }
    return true;
  }

  bool Run(const ScenarioCommand& c, std::string* error) {
    if (!NeedFleet(error)) {
      return false;
    }
    // Multi-process runs exchange the address map once, before any wall-clock
    // pumping: every local node exists by the first `run`, and no tuple has
    // needed a remote socket address yet.
    if (have_rendezvous && !rendezvous_done) {
      UdpDriver* driver = fleet->udp();
      if (driver == nullptr) {
        *error = "rendezvous requires backend=udp";
        return false;
      }
      std::map<std::string, std::string> full;
      if (!RendezvousExchange(rendezvous, driver->LocalMap(), &full, error)) {
        return false;
      }
      for (const auto& [name, addr] : full) {
        fleet->RegisterPeer(name, addr);
      }
      rendezvous_done = true;
    }
    fleet->RunFor(c.args[0].num);
    return true;
  }

  bool Crash(const ScenarioCommand& c, std::string* error) {
    return Fault(c, &NodeHandle::Crash, &NodeHandle::CrashAt, error);
  }

  bool Revive(const ScenarioCommand& c, std::string* error) {
    return Fault(c, &NodeHandle::Revive, &NodeHandle::ReviveAt, error);
  }

  bool Recover(const ScenarioCommand& c, std::string* error) {
    return Fault(c, &NodeHandle::Recover, &NodeHandle::RecoverAt, error);
  }

  bool LinkFault(const ScenarioCommand& c, std::string* error) {
    const std::string& src = c.args[0].text;
    const std::string& dst = c.args[1].text;
    if (!SimOnly(c, error) || !LocalNode(src, error) || !LocalNode(dst, error)) {
      return false;
    }
    if (c.options.empty()) {  // no k=v options clears the link's fault spec
      fleet->ClearLinkFault(src, dst);
      return true;
    }
    Network::LinkFault fault;
    c.Get("loss", &fault.loss);
    c.Get("dup", &fault.dup_rate);
    c.Get("reorder", &fault.reorder_rate);
    c.Get("latency", &fault.extra_latency);
    fleet->SetLinkFault(src, dst, fault);
    return true;
  }

  bool Partition(const ScenarioCommand& c, std::string* error) {
    std::vector<std::string> group_a = Split(c.args[0].text, ',');
    std::vector<std::string> group_b = Split(c.args[1].text, ',');
    if (!SimOnly(c, error) || !NeedFleet(error)) {
      return false;
    }
    for (const std::vector<std::string>* group : {&group_a, &group_b}) {
      for (const std::string& addr : *group) {
        if (!LocalNode(addr, error)) {
          return false;
        }
      }
    }
    fleet->Partition(group_a, group_b);
    return true;
  }

  bool Heal(const ScenarioCommand& c, std::string* error) {
    if (!SimOnly(c, error) || !NeedFleet(error)) {
      return false;
    }
    fleet->Heal();
    return true;
  }

  bool Watchprint(const ScenarioCommand& c, std::string* error) {
    return ForEachNode(c, [this](NodeHandle& node) {
      std::string addr = node.addr();
      node.WatchSink([this, addr](double t, const TupleRef& tuple) {
        Print(StrFormat("[%9.3f] %s: %s\n", t, addr.c_str(), tuple->ToString().c_str()));
      });
      return true;
    }, error);
  }

  bool Dump(const ScenarioCommand& c, std::string* error) {
    const std::string& table = c.args[1].text;
    return ForEachNode(c, [&](NodeHandle& node) {
      std::vector<TupleRef> rows = node.Query(table);
      Print(StrFormat("-- %s %s (%zu rows) --\n", node.addr().c_str(), table.c_str(),
                      rows.size()));
      for (const TupleRef& t : rows) {
        Print("  " + t->ToString() + "\n");
      }
      return true;
    }, error);
  }

  bool Stats(const ScenarioCommand& c, std::string* error) {
    return ForEachNode(c, [this](NodeHandle& node) {
      const NodeStats& s = node.Stats();
      Print(StrFormat(
          "%s: sent=%llu recv=%llu triggers=%llu emitted=%llu dead=%llu busy=%.3fms\n",
          node.addr().c_str(), static_cast<unsigned long long>(s.msgs_sent),
          static_cast<unsigned long long>(s.msgs_received),
          static_cast<unsigned long long>(s.strand_triggers),
          static_cast<unsigned long long>(s.tuples_emitted),
          static_cast<unsigned long long>(s.dead_letters),
          static_cast<double>(s.busy_ns) / 1e6));
      return true;
    }, error);
  }

  bool Expect(const ScenarioCommand& c, std::string* error) {
    Nodes nodes;
    if (!Resolve(c.args[0].text, &nodes, error)) {
      return false;
    }
    if (nodes.empty()) {  // remote node: its own process checks this expectation
      return true;
    }
    size_t want = static_cast<size_t>(c.args[2].u64);
    size_t got = nodes[0].Count(c.args[1].text);
    if (got != want) {
      *error = StrFormat("expect failed: %s.%s has %zu rows, wanted %zu",
                         c.args[0].text.c_str(), c.args[1].text.c_str(), got, want);
      return false;
    }
    ++expectations_passed;
    return true;
  }

  // Enables bounded trace retention (implies trace) on every node created after
  // this line (docs/OBSERVABILITY.md).
  bool Forensics(const ScenarioCommand& c, std::string* /*error*/) {
    ForensicsOptions& fo = node_template.forensics;
    fo = ForensicsOptions();
    fo.enabled = true;
    c.Get("budget", &fo.budget_bytes);
    c.Get("records", &fo.segment_records);
    c.Get("span", &fo.segment_span);
    c.Get("age", &fo.max_age);
    return true;
  }

  // Time-travel query: replays causal chains for tuples matching <key> ("*",
  // "name", or "name/firstarg") in [from, to]; `out` writes a JSONL chain export,
  // `min` fails the script unless at least <n> chains came back (counts as a
  // passed expectation otherwise).
  bool ForensicsQuery(const ScenarioCommand& c, std::string* error) {
    Nodes nodes;
    if (!Resolve(c.args[0].text, &nodes, error)) {
      return false;
    }
    const std::string& key = c.args[1].text;
    const ScenarioValue* from = c.Find("from");
    const ScenarioValue* to = c.Find("to");
    if (from == nullptr || to == nullptr || to->num < from->num) {
      *error = "forensics query needs from=<t1> to=<t2> with t1 <= t2";
      return false;
    }
    std::string out_path;
    c.Get("out", &out_path);
    std::string jsonl;
    size_t total = 0;
    for (NodeHandle& node : nodes) {
      std::vector<CausalChain> chains =
          fleet->ReplayChains(node.addr(), key, from->num, to->num);
      total += chains.size();
      Print(StrFormat("forensics: %s %zu chains for %s in [%g, %g]\n",
                      node.addr().c_str(), chains.size(), key.c_str(), from->num,
                      to->num));
      if (!out_path.empty()) {
        jsonl += ExportChainsJsonl(chains);
      }
    }
    if (!out_path.empty()) {
      std::ofstream f(out_path, std::ios::out | std::ios::trunc);
      if (!f) {
        *error = "cannot open forensics output file: " + out_path;
        return false;
      }
      f << jsonl;
    }
    if (const ScenarioValue* min = c.Find("min")) {
      if (total < min->u64) {
        *error = StrFormat("forensics query returned %zu chains, wanted >= %llu", total,
                           static_cast<unsigned long long>(min->u64));
        return false;
      }
      ++expectations_passed;
    }
    return true;
  }

  // Overload-resilience budgets (docs/ROBUSTNESS.md) for every node created after
  // this line: queue/low cap the admission queues (the best-effort class sheds
  // first), window/backlog bound the reliable sender per channel, reorder bounds
  // the receiver holdback, degrade arms the watchdog (lo and stretch tune its
  // hysteresis exit threshold and degraded-mode slowdown).
  bool Limits(const ScenarioCommand& c, std::string* error) {
    if (c.options.empty()) {
      *error = std::string("usage: ") + c.directive->usage;
      return false;
    }
    // A later limits line replaces an earlier one: every budget it leaves out is
    // back at its default.
    NodeOptions limits;
    limits.forensics = node_template.forensics;
    node_template = limits;
    c.Get("queue", &node_template.queue_cap);
    c.Get("low", &node_template.low_queue_cap);
    c.Get("window", &node_template.rel_window);
    c.Get("backlog", &node_template.rel_backlog);
    c.Get("reorder", &node_template.rel_reorder_cap);
    c.Get("degrade", &node_template.degrade_hi);
    c.Get("lo", &node_template.degrade_lo);
    c.Get("stretch", &node_template.degrade_stretch);
    return true;
  }

  // Installs the paper's monitoring programs (ring checks + Chandy-Lamport
  // snapshots) on the selected Chord nodes. The initiator defaults to the first
  // selected node.
  bool Monitors(const ScenarioCommand& c, std::string* error) {
    Nodes nodes;
    if (!Resolve(c.args[0].text, &nodes, error)) {
      return false;
    }
    std::string initiator;
    if (const ScenarioValue* v = c.Find("initiator")) {
      // The initiator may be hosted by another process (fleetd --procs); only
      // local nodes get initiator=true below.
      if (!KnownNode(v->text)) {
        *error = "unknown node: " + v->text;
        return false;
      }
      initiator = v->text;
    }
    if (nodes.empty()) {
      return true;
    }
    if (initiator.empty()) {
      if (proc_count > 1) {
        // Defaulting per process would elect one initiator per process.
        *error = "monitors needs an explicit initiator= under multi-process "
                 "execution";
        return false;
      }
      initiator = nodes.front().addr();
    }
    SnapshotConfig snap_cfg;
    RingCheckConfig ring_cfg;
    c.Get("snap_period", &snap_cfg.snap_period);
    c.Get("abort", &snap_cfg.abort_timeout);
    c.Get("check", &snap_cfg.abort_check_period);
    c.Get("probe", &ring_cfg.probe_period);
    for (NodeHandle& node : nodes) {
      if (!node.Install(
              [&ring_cfg](Node* n, std::string* e) {
                return InstallRingChecks(n, ring_cfg, e);
              },
              error)) {
        return false;
      }
      SnapshotConfig cfg = snap_cfg;
      cfg.initiator = (node.addr() == initiator);
      if (!node.Install(
              [&cfg](Node* n, std::string* e) { return InstallSnapshot(n, cfg, e); },
              error)) {
        return false;
      }
    }
    return true;
  }
};

const std::vector<ScenarioDirective>& ScenarioDirective::Table() {
  using I = ScenarioRunner::Impl;
  using P = ScenarioParam;
  static const std::vector<ScenarioDirective> table = {
      {"net",
       "net [latency=<secs>] [jitter=<secs>] [loss=<p>] [seed=<n>] [shards=<n>] "
       "[backend=sim|udp] [mtu=<bytes>]",
       {},
       {P::Duration("latency"), P::Duration("jitter"), P::Rate("loss"), P::U64("seed"),
        P::U64("shards", 1, 64), P::Enum("backend", "sim|udp"),
        P::U64("mtu", 512, 65507)},
       &I::Net},
      {"metrics", "metrics <path>", {P::Text("path")}, {}, &I::Metrics},
      {"node",
       "node <addr> [trace] [seed=<n>] [indexes=on|off] [metrics=on|off] "
       "[reliable=on|off]",
       {P::Text("addr")},
       {P::Flag("trace"), P::U64("seed"), P::OnOff("indexes"), P::OnOff("metrics"),
        P::OnOff("reliable")},
       &I::AddNode},
      {"forensics", "forensics budget=<bytes> [records=<n>] [span=<secs>] [age=<secs>]",
       {},
       {P::U64("budget"), P::U64("records", 1), P::Duration("span"), P::Duration("age")},
       &I::Forensics},
      {"forensics query",
       "forensics query <addr|all> <key> from=<t1> to=<t2> [out=<path>] [min=<n>]",
       {P::Text("addr"), P::Text("key")},
       {P::Number("from"), P::Number("to"), P::Text("out"), P::U64("min")},
       &I::ForensicsQuery},
      {"limits",
       "limits [queue=<n>] [low=<n>] [window=<n>] [backlog=<n>] [reorder=<n>] "
       "[degrade=<n>] [lo=<n>] [stretch=<x>]",
       {},
       {P::U64("queue"), P::U64("low"), P::U64("window"), P::U64("backlog"),
        P::U64("reorder"), P::U64("degrade"), P::U64("lo"), P::Number("stretch", 1)},
       &I::Limits},
      {"chord",
       "chord <addr|all> [landmark=<addr>] [stabilize=X] [ping=X] [finger=X] "
       "[timeout=X] [rejoin=X]",
       {P::Text("addr")},
       {P::Text("landmark"), P::Duration("stabilize"), P::Duration("ping"),
        P::Duration("finger"), P::Duration("timeout"), P::Duration("rejoin")},
       &I::Chord},
      {"monitors",
       "monitors <addr|all> [initiator=<addr>] [snap_period=X] [abort=X] [check=X] "
       "[probe=X]",
       {P::Text("addr")},
       {P::Text("initiator"), P::Duration("snap_period"), P::Duration("abort"),
        P::Duration("check"), P::Duration("probe")},
       &I::Monitors},
      {"dht", "dht <addr|all>", {P::Text("addr")}, {}, &I::Dht},
      {"flood", "flood <addr|all>", {P::Text("addr")}, {}, &I::Flood},
      {"put", "put <addr> <key> <value> <reqid>",
       {P::Text("addr"), P::Text("key"), P::Text("value"), P::U64("reqid")}, {}, &I::Put},
      {"get", "get <addr> <key> <reqid>",
       {P::Text("addr"), P::Text("key"), P::U64("reqid")}, {}, &I::Get},
      {"member", "member <addr> <peer>", {P::Text("addr"), P::Text("peer")}, {},
       &I::Member},
      {"publish", "publish <addr> <rumor-id> <payload>",
       {P::Text("addr"), P::U64("rumor-id"), P::Text("payload")}, {}, &I::Publish},
      {"program", "program <addr|all> <file.olg> [k=v ...]",
       {P::Text("addr"), P::Text("file")}, {}, &I::Program, kMoreWords},
      {"inline", "inline <addr|all> <overlog text to end of line>",
       {P::Text("addr"), P::Text("text")}, {}, &I::Inline, kMoreWords},
      {"inject", "inject [t=<secs>] <addr> <name>(v1, v2, ...)",
       {P::Text("addr"), P::Text("tuple")}, {P::Number("t")}, &I::Inject, kOptionsFirst},
      {"run", "run <secs>", {P::Duration("run")}, {}, &I::Run},
      {"crash", "crash <addr|all> [at=<secs>]", {P::Text("addr")}, {P::Number("at")},
       &I::Crash},
      {"revive", "revive <addr|all> [at=<secs>]", {P::Text("addr")}, {P::Number("at")},
       &I::Revive},
      {"recover", "recover <addr|all> [at=<secs>]", {P::Text("addr")},
       {P::Number("at")}, &I::Recover},
      {"linkfault", "linkfault <src> <dst> [loss=X] [dup=X] [reorder=X] [latency=X]",
       {P::Text("src"), P::Text("dst")},
       {P::Rate("loss"), P::Rate("dup"), P::Rate("reorder"), P::Duration("latency")},
       &I::LinkFault},
      {"partition", "partition <a,b,...> <c,d,...>", {P::Text("group"), P::Text("group")},
       {}, &I::Partition},
      {"heal", "heal", {}, {}, &I::Heal},
      {"watchprint", "watchprint <addr|all>", {P::Text("addr")}, {}, &I::Watchprint},
      {"dump", "dump <addr|all> <table>", {P::Text("addr"), P::Text("table")}, {},
       &I::Dump},
      {"stats", "stats <addr|all>", {P::Text("addr")}, {}, &I::Stats},
      {"expect", "expect <addr> <table> <count>",
       {P::Text("addr"), P::Text("table"), P::U64("count")}, {}, &I::Expect},
  };
  return table;
}

const ScenarioValue* ScenarioCommand::Find(const std::string& key) const {
  for (auto it = options.rbegin(); it != options.rend(); ++it) {
    if (it->key == key) {
      return &*it;
    }
  }
  return nullptr;
}

bool ParseScenarioLine(const std::string& line, ScenarioCommand* out,
                       std::string* error) {
  *out = ScenarioCommand();
  std::vector<Word> words = Words(line, &out->comment);
  if (words.empty()) {
    return true;
  }
  size_t i = 2;
  const ScenarioDirective* d =
      words.size() > 1 ? ScenarioDirective::Find(words[0].text + " " + words[1].text)
                       : nullptr;
  if (d == nullptr) {
    i = 1;
    d = ScenarioDirective::Find(words[0].text);
  }
  if (d == nullptr) {
    *error = "unknown command: " + words[0].text;
    return false;
  }
  out->directive = d;
  out->name = d->name;
  auto option = [&](const std::string& word) {
    return ParseOption(d->options, d->name, d->usage, word, out, error);
  };
  if (d->layout == ScenarioDirective::kOptionsFirst) {
    for (; i < words.size(); ++i) {
      const std::string& w = words[i].text;
      size_t eq = w.find('=');
      if (eq == std::string::npos || FindParam(d->options, w.substr(0, eq)) == nullptr) {
        break;
      }
      if (!option(w)) {
        return false;
      }
    }
  }
  for (const ScenarioParam& p : d->args) {
    if (i >= words.size()) {
      *error = std::string("usage: ") + d->usage;
      return false;
    }
    if (out->args.empty()) {
      out->rest = line.substr(words[i].end);
    }
    ScenarioValue v;
    if (!ParseValue(p, words[i++].text, &v, error)) {
      return false;
    }
    out->args.push_back(std::move(v));
  }
  for (; i < words.size(); ++i) {
    if (d->layout == ScenarioDirective::kMoreWords) {
      out->args.push_back({"", words[i].text});
    } else if (d->layout == ScenarioDirective::kOptionsFirst || d->options.empty()) {
      *error = std::string("usage: ") + d->usage;
      return false;
    } else if (!option(words[i].text)) {
      return false;
    }
  }
  return true;
}

bool ParseScenarioOptions(const std::string& text,
                          const std::vector<ScenarioParam>& specs,
                          const std::string& what, ScenarioCommand* out,
                          std::string* error) {
  std::string comment;
  for (const Word& w : Words(text, &comment)) {
    if (!ParseOption(specs, what, nullptr, w.text, out, error)) {
      return false;
    }
  }
  return true;
}

ScenarioRunner::ScenarioRunner(std::function<void(const std::string&)> out)
    : impl_(std::make_unique<Impl>()) {
  impl_->out = std::move(out);
}

ScenarioRunner::~ScenarioRunner() = default;

Fleet* ScenarioRunner::fleet() { return impl_->fleet.get(); }

Network* ScenarioRunner::network() {
  return impl_->fleet == nullptr ? nullptr : &impl_->fleet->network();
}

int ScenarioRunner::expectations_passed() const { return impl_->expectations_passed; }

void ScenarioRunner::SetBackend(FleetBackend backend) {
  impl_->fleet_config.backend = backend;
}

bool ScenarioRunner::ConfigureProcesses(int index, int procs, std::string* error) {
  if (procs < 1 || index < 0 || index >= procs) {
    *error = StrFormat("bad process slot: index %d of %d", index, procs);
    return false;
  }
  if (procs > 1 && impl_->fleet_config.backend != FleetBackend::kUdp) {
    *error = "multi-process execution requires the udp backend";
    return false;
  }
  impl_->proc_index = index;
  impl_->proc_count = procs;
  return true;
}

void ScenarioRunner::SetRendezvous(const RendezvousConfig& config) {
  impl_->rendezvous = config;
  impl_->have_rendezvous = true;
}

bool ScenarioRunner::RunScript(const std::string& script, std::string* error) {
  std::istringstream in(script);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::string line_error;
    if (!RunLine(line, &line_error)) {
      *error = StrFormat("line %d: %s", line_no, line_error.c_str());
      return false;
    }
  }
  return true;
}

bool ScenarioRunner::RunLine(const std::string& line, std::string* error) {
  ScenarioCommand cmd;
  if (!ParseScenarioLine(line, &cmd, error)) {
    return false;
  }
  return cmd.directive == nullptr || (impl_.get()->*cmd.directive->run)(cmd, error);
}

bool ScenarioRunner::SetMetricsOut(const std::string& path, std::string* error) {
  return impl_->SetMetricsOut(path, error);
}

bool RunScenarioFile(const std::string& path, std::string* error,
                     const std::string& metrics_out) {
  std::ifstream f(path);
  if (!f) {
    *error = "cannot open " + path;
    return false;
  }
  std::stringstream ss;
  ss << f.rdbuf();
  ScenarioRunner runner;
  if (!metrics_out.empty() && !runner.SetMetricsOut(metrics_out, error)) {
    return false;
  }
  return runner.RunScript(ss.str(), error);
}

}  // namespace p2
