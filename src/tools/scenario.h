// Scenario interpreter: drives a simulated multi-node deployment from a small script,
// making the engine usable without writing C++ (the moral equivalent of P2's
// runOverLog harness).
//
// Scenario language (one command per line, `#` comments outside "quoted strings").
// The directive table in scenario.cc is the single definition of this grammar:
// ParseScenarioLine checks every line against it for both the interpreter and
// simfuzz's schedule parser. Positional arguments come first, then options
// (`key=value`, or a bare flag such as `trace`) in any order; inject's t= is the one
// option written before its arguments.
//
//   net latency=0.02 jitter=0.01 loss=0 seed=42 shards=1   # before any node; optional
//                                                 # shards>1 = parallel fleet runtime
//                                                 # (needs latency>0; docs/SCALING.md)
//       backend=sim|udp mtu=<bytes>               # udp = real loopback/LAN sockets
//                                                 # (docs/DEPLOYMENT.md); run <secs>
//                                                 # then advances wall-clock time;
//                                                 # mtu bounds batched datagrams;
//                                                 # shards>1, loss, linkfault,
//                                                 # partition, heal are sim-only
//   metrics <path>                                # stream per-sweep telemetry
//                                                 # (.csv -> CSV, else JSONL)
//   node <addr> [trace] [seed=N]                  # create a node (seed derives from
//                                                 # the fleet seed unless given)
//        [indexes=on|off] [metrics=on|off] [reliable=on|off]   # NodeOptions ablations
//   forensics budget=<bytes> [records=<n>] [span=<secs>] [age=<secs>]
//                                                 # bounded trace retention (implies
//                                                 # trace) for nodes created after
//                                                 # this line (docs/OBSERVABILITY.md)
//   forensics query <addr|all> <key> from=<t1> to=<t2> [out=<path>] [min=<n>]
//                                                 # time-travel causal replay; out=
//                                                 # writes a JSONL chain export, min=
//                                                 # is an expectation on chain count
//   limits [queue=<n>] [low=<n>] [window=<n>] [backlog=<n>] [reorder=<n>]
//          [degrade=<n>] [lo=<n>] [stretch=<x>]   # overload budgets for nodes created
//                                                 # after this line; a later limits
//                                                 # line replaces an earlier one
//                                                 # (docs/ROBUSTNESS.md)
//   chord <addr|all> [landmark=<addr>]            # install the built-in Chord overlay
//         [stabilize=X] [ping=X] [finger=X] [timeout=X] [rejoin=X]   # protocol periods
//                                                 # (seconds; paper defaults apply)
//   monitors <addr|all> [initiator=<addr>]        # ring checks + C-L snapshots
//            [snap_period=X] [abort=X] [check=X] [probe=X]     # (needs chord)
//   dht <addr|all>                                # DHT put/get layer (needs chord)
//   put <addr> <key> <value> <reqid>              # DHT operations
//   get <addr> <key> <reqid>
//   flood <addr|all>                              # epidemic dissemination overlay
//   member <addr> <peer>                          # add a flood membership edge
//   publish <addr> <rumor-id> <payload>           # originate a rumor
//   program <addr|all> <file.olg> [k=v ...]       # load an OverLog file with params
//   inline <addr|all> <overlog text to end of line>
//   inject [t=<secs>] <addr> <name>(v1, v2, ...)  # inject a tuple (now or at t)
//   run <secs>                                    # advance virtual time
//   crash|revive|recover <addr|all> [at=<secs>]   # fault injection (at in the future)
//   linkfault <src> <dst> [loss=X] [dup=X] [reorder=X] [latency=X]   # no k=v clears
//   partition <a,b,...> <c,d,...>                 # cut links between the two groups
//   heal                                          # undo all partitions
//   watchprint <addr|all>                         # print watch() hits as they happen
//   dump <addr|all> <table>                       # print a table's rows
//   stats <addr|all>                              # print node counters
//   expect <addr> <table> <count>                 # fail unless the table has N rows
//
// `expect` and `forensics query ... min=` both count toward expectations_passed().
//
// Tuple literal values: numbers (Int/Double), "strings", id:<u64> (Id), true/false,
// and bare identifiers (treated as strings, convenient for addresses).
//
// The parser is strict: unknown directives/options, a wrong argument count, malformed
// numbers, rates outside [0,1], unknown node addresses in fault directives, and
// at=/t= times already in the virtual-time past all fail with a line-numbered error
// (never silently ignored) — simfuzz-generated scenario files round-trip through
// this grammar losslessly.

#ifndef SRC_TOOLS_SCENARIO_H_
#define SRC_TOOLS_SCENARIO_H_

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "src/net/fleet.h"
#include "src/net/rendezvous.h"

namespace p2 {

// One positional argument or option of a directive. kNumber and kU64 values must
// lie in [lo, hi]; a kEnum value must be one of `choices` ("a|b"); a kFlag is a bare
// word with no value.
struct ScenarioParam {
  enum Kind { kText, kNumber, kU64, kEnum, kFlag };
  const char* name;
  Kind kind = kText;
  double lo = -HUGE_VAL;
  double hi = HUGE_VAL;
  const char* choices = nullptr;

  static ScenarioParam Text(const char* name) { return {name}; }
  static ScenarioParam Number(const char* name, double lo = -HUGE_VAL) {
    return {name, kNumber, lo};
  }
  static ScenarioParam Duration(const char* name) { return Number(name, 0); }
  static ScenarioParam Rate(const char* name) { return {name, kNumber, 0, 1}; }
  static ScenarioParam U64(const char* name, double lo = 0, double hi = HUGE_VAL) {
    return {name, kU64, lo, hi};
  }
  static ScenarioParam Enum(const char* name, const char* choices) {
    return {name, kEnum, -HUGE_VAL, HUGE_VAL, choices};
  }
  static ScenarioParam OnOff(const char* name) { return Enum(name, "on|off"); }
  static ScenarioParam Flag(const char* name) { return {name, kFlag}; }
};

// A validated argument or option: the text as written, and its value for the
// numeric kinds.
struct ScenarioValue {
  std::string key;
  std::string text;
  double num = 0;
  uint64_t u64 = 0;
};

struct ScenarioDirective;  // an entry of the directive table (scenario.cc)

// One scenario line as ParseScenarioLine read it.
struct ScenarioCommand {
  const ScenarioDirective* directive = nullptr;  // null for a blank/comment line
  std::string name;                    // the directive ("forensics query")
  std::vector<ScenarioValue> args;     // positional arguments, in order
  std::vector<ScenarioValue> options;  // options and flags, in line order
  std::string rest;                    // the line after its first argument
  std::string comment;                 // the text after an unquoted '#'

  // The last occurrence of option `key`, or null.
  const ScenarioValue* Find(const std::string& key) const;
  // Stores option `key` into *out when present: a number, an unsigned integer, a
  // bool (on|off, or a flag's presence) or the text, by the type of *out.
  template <typename T>
  void Get(const std::string& key, T* out) const {
    const ScenarioValue* v = Find(key);
    if (v == nullptr) {
      return;
    }
    if constexpr (std::is_same_v<T, bool>) {
      *out = v->text != "off";
    } else if constexpr (std::is_same_v<T, std::string>) {
      *out = v->text;
    } else if constexpr (std::is_floating_point_v<T>) {
      *out = v->num;
    } else {
      *out = static_cast<T>(v->u64);
    }
  }
};

// Tokenizes `line` ("quoted strings" and parenthesized tuples stay one word; an
// unquoted '#' starts a comment), looks its directive up in the table, checks the
// argument count (a wrong count fails with the directive's usage) and validates
// every argument and option. Has no side effects; a blank or comment-only line
// parses to a command without a directive.
bool ParseScenarioLine(const std::string& line, ScenarioCommand* out, std::string* error);

// Reads the `key=value` words and flags of `text` against `specs` into
// out->options; `what` names them in errors ("unknown <what> option: ...").
bool ParseScenarioOptions(const std::string& text,
                          const std::vector<ScenarioParam>& specs,
                          const std::string& what, ScenarioCommand* out,
                          std::string* error);

class ScenarioRunner {
 public:
  // `out` receives all printed output (dump/stats/watchprint); defaults to stdout.
  explicit ScenarioRunner(std::function<void(const std::string&)> out = nullptr);
  ~ScenarioRunner();

  ScenarioRunner(const ScenarioRunner&) = delete;
  ScenarioRunner& operator=(const ScenarioRunner&) = delete;

  // Forces the transport backend before the script runs (olgrun --backend=...,
  // fleetd). Existing scenario files run unchanged over real sockets this way; a
  // `net backend=` directive inside the script has the same effect. Must be
  // called before the first `node` line executes.
  void SetBackend(FleetBackend backend);

  // Partitioned multi-process execution (fleetd --index/--procs): this process
  // hosts the k-th `node` directive of the script iff k % procs == index; every
  // other node is recorded as remote, and directives addressing a remote node
  // are skipped (not errors — each process runs the identical profile). `all`
  // resolves to the local nodes. Requires the udp backend; with procs > 1,
  // `chord` needs an explicit landmark= and `monitors` an explicit initiator=
  // (a per-process default would name a different node in every process).
  bool ConfigureProcesses(int index, int procs, std::string* error);

  // Address-map exchange for multi-process runs (docs/DEPLOYMENT.md): performed
  // once, at the first `run` line — every local node exists by then — before any
  // wall-clock pumping. The full map feeds Fleet::RegisterPeer.
  void SetRendezvous(const RendezvousConfig& config);

  // Runs a whole script. Returns false and sets `error` on the first failing line.
  bool RunScript(const std::string& script, std::string* error);

  // Runs one command line (empty lines and comments succeed trivially).
  bool RunLine(const std::string& line, std::string* error);

  // Streams per-sweep telemetry snapshots to `path` (format by extension: ".csv" ->
  // CSV, anything else -> JSONL). May be called before any node exists — the sink
  // attaches when the network is created. Equivalent to the `metrics` scenario
  // directive and olgrun's --metrics-out flag.
  bool SetMetricsOut(const std::string& path, std::string* error);

  // The fleet under interpretation (valid after the first `node` command).
  Fleet* fleet();
  // Its network: host-side counters/faults and test-only node access.
  Network* network();

  // Number of `expect` commands that have passed so far.
  int expectations_passed() const;

 private:
  friend struct ScenarioDirective;  // its handlers are Impl members
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// Loads a scenario file and runs it; convenience for the CLI. A non-empty
// `metrics_out` streams per-sweep telemetry there (see SetMetricsOut).
bool RunScenarioFile(const std::string& path, std::string* error,
                     const std::string& metrics_out = "");

}  // namespace p2

#endif  // SRC_TOOLS_SCENARIO_H_
