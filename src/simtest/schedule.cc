#include "src/simtest/schedule.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/tools/scenario.h"

namespace p2 {
namespace simtest {

namespace {

// Millisecond quantization: every time in a schedule is a multiple of 1 ms, so its
// decimal rendering (<= 3 fraction digits) parses back to the identical double and
// the scenario text is a fixed point of parse-then-render.
double QuantMs(double x) { return std::round(x * 1000.0) / 1000.0; }

// Renders with up to 3 fraction digits, trailing zeros trimmed ("0.200" -> "0.2").
std::string FmtNum(double x) {
  std::string s = StrFormat("%.3f", x);
  while (!s.empty() && s.back() == '0') {
    s.pop_back();
  }
  if (!s.empty() && s.back() == '.') {
    s.pop_back();
  }
  return s;
}

std::string FmtU64(uint64_t v) {
  return StrFormat("%llu", static_cast<unsigned long long>(v));
}

uint64_t NodeSeed(uint64_t seed, int i) { return seed * 100 + i + 1; }

// The canonical partition rendering: the first `split` nodes vs the rest.
std::string PartitionGroups(int split, int num_nodes, bool first_group) {
  std::vector<std::string> addrs;
  int lo = first_group ? 0 : split;
  int hi = first_group ? split : num_nodes;
  for (int i = lo; i < hi; ++i) {
    addrs.push_back(AddrOf(i));
  }
  return Join(addrs, ",");
}

// Index of "n<i>" among the profile's nodes; -1 for any other name.
int IndexOfAddr(const std::string& addr, int num_nodes) {
  for (int i = 0; i < num_nodes; ++i) {
    if (addr == AddrOf(i)) {
      return i;
    }
  }
  return -1;
}

// The `key=value` words of the `# simfuzz`, `# profile` and `# ablation` header
// comments (each introduced by its bare tag), plus the `# events` / `# epilogue`
// section markers.
const std::vector<ScenarioParam>& HeaderParams() {
  using P = ScenarioParam;
  static const std::vector<ScenarioParam> params = {
      P::Flag("simfuzz"), P::U64("seed"),
      P::Flag("profile"), P::U64("nodes"), P::Duration("warmup"),
      P::Duration("duration"), P::Duration("settle"), P::Duration("latency"),
      P::Duration("jitter"), P::Rate("loss"), P::Duration("snap_period"),
      P::Duration("abort"), P::Duration("check"), P::Duration("probe"),
      P::U64("churn"), P::U64("linkfaults"), P::U64("partitions"), P::U64("puts"),
      P::U64("gets"), P::U64("shards"),
      P::Flag("ablation"), P::OnOff("indexes"), P::OnOff("metrics"),
      P::OnOff("reliable"), P::OnOff("forensics"), P::OnOff("limits"),
      P::Flag("events"), P::Flag("epilogue"),
  };
  return params;
}

}  // namespace

std::string AddrOf(int i) { return StrFormat("n%d", i); }

FuzzProfile FuzzProfile::Quiet() {
  FuzzProfile p;
  p.put_events = 3;
  p.get_events = 3;
  return p;
}

FuzzProfile FuzzProfile::Faulty() {
  FuzzProfile p;
  p.churn_events = 2;
  p.linkfault_events = 2;
  p.partition_events = 1;
  p.put_events = 3;
  p.get_events = 3;
  return p;
}

bool ScheduleHasFaults(const Schedule& schedule) {
  if (schedule.profile.loss > 0) {
    return true;
  }
  for (const SimEvent& e : schedule.events) {
    if (e.kind == EvKind::kCrash || e.kind == EvKind::kLinkFault ||
        e.kind == EvKind::kPartition) {
      return true;
    }
  }
  return false;
}

Schedule GenerateSchedule(uint64_t seed, const FuzzProfile& profile) {
  Schedule s;
  s.seed = seed;
  s.profile = profile;
  Rng rng(seed ^ 0x5117f0dd);  // decouple schedule draws from net/node seeds
  const int n = profile.num_nodes;
  const double window = profile.duration;
  auto when = [&](double frac_lo, double frac_hi) {
    double t = window * (frac_lo + (frac_hi - frac_lo) * rng.NextDouble());
    return QuantMs(std::min(t, window));
  };
  for (int i = 0; i < profile.churn_events; ++i) {
    SimEvent crash;
    crash.kind = EvKind::kCrash;
    crash.a = 1 + static_cast<int>(rng.NextBelow(n - 1));  // n0 is landmark+initiator
    crash.at = when(0, 0.6);
    SimEvent recover = crash;
    recover.kind = EvKind::kRecover;
    recover.at = QuantMs(std::min(crash.at + 3 + 0.25 * window * rng.NextDouble(),
                                  window));
    s.events.push_back(crash);
    s.events.push_back(recover);
  }
  for (int i = 0; i < profile.linkfault_events; ++i) {
    SimEvent f;
    f.kind = EvKind::kLinkFault;
    f.a = static_cast<int>(rng.NextBelow(n));
    f.b = static_cast<int>(rng.NextBelow(n - 1));
    if (f.b >= f.a) {
      ++f.b;  // distinct dst
    }
    switch (rng.NextBelow(4)) {
      case 0:
        f.loss = 0.2;
        break;
      case 1:
        f.dup = 0.3;
        break;
      case 2:
        f.reorder = 0.5;
        break;
      default:
        f.loss = 0.2;
        f.dup = 0.2;
        f.reorder = 0.2;
        f.latency = 0.1;
        break;
    }
    f.at = when(0, 0.7);
    SimEvent clear;
    clear.kind = EvKind::kLinkClear;
    clear.a = f.a;
    clear.b = f.b;
    clear.at = QuantMs(std::min(f.at + 5 + 10 * rng.NextDouble(), window));
    s.events.push_back(f);
    s.events.push_back(clear);
  }
  for (int i = 0; i < profile.partition_events; ++i) {
    SimEvent p;
    p.kind = EvKind::kPartition;
    p.b = 1 + static_cast<int>(rng.NextBelow(n - 1));  // split point
    p.at = when(0, 0.7);
    SimEvent heal;
    heal.kind = EvKind::kHeal;
    heal.at = QuantMs(std::min(p.at + 3 + 7 * rng.NextDouble(), window));
    s.events.push_back(p);
    s.events.push_back(heal);
  }
  for (int i = 0; i < profile.put_events; ++i) {
    SimEvent p;
    p.kind = EvKind::kPut;
    p.a = static_cast<int>(rng.NextBelow(n));
    p.key = StrFormat("k%d", i);
    p.value = StrFormat("v%d", i);
    p.req = 1000 + i;
    p.at = when(0, 1.0);
    s.events.push_back(p);
  }
  for (int i = 0; i < profile.get_events; ++i) {
    SimEvent g;
    g.kind = EvKind::kGet;
    g.a = static_cast<int>(rng.NextBelow(n));
    g.key = StrFormat("k%d", profile.put_events > 0
                                ? static_cast<int>(rng.NextBelow(profile.put_events))
                                : i);
    g.req = 2000 + i;
    g.at = when(0.2, 1.0);  // give puts a head start on average
    s.events.push_back(g);
  }
  std::stable_sort(s.events.begin(), s.events.end(),
                   [](const SimEvent& x, const SimEvent& y) { return x.at < y.at; });
  return s;
}

std::string ScheduleToScenario(const Schedule& s, const Ablation& ablation) {
  const FuzzProfile& p = s.profile;
  std::ostringstream out;
  out << "# simfuzz seed=" << FmtU64(s.seed) << "\n";
  out << "# profile nodes=" << p.num_nodes << " warmup=" << FmtNum(p.warmup)
      << " duration=" << FmtNum(p.duration) << " settle=" << FmtNum(p.settle)
      << " latency=" << FmtNum(p.latency) << " jitter=" << FmtNum(p.jitter)
      << " loss=" << FmtNum(p.loss) << " snap_period=" << FmtNum(p.snap_period)
      << " abort=" << FmtNum(p.snap_abort) << " check=" << FmtNum(p.snap_check)
      << " probe=" << FmtNum(p.probe_period) << " churn=" << p.churn_events
      << " linkfaults=" << p.linkfault_events << " partitions=" << p.partition_events
      << " puts=" << p.put_events << " gets=" << p.get_events
      << " shards=" << p.shards << "\n";
  out << "# ablation indexes=" << (ablation.use_join_indexes ? "on" : "off")
      << " metrics=" << (ablation.metrics ? "on" : "off")
      << " reliable=" << (ablation.reliable_transport ? "on" : "off")
      << " forensics=" << (ablation.forensics ? "on" : "off");
  if (ablation.overload_limits) {
    // Appended only when on so pre-existing scenario files round-trip unchanged.
    out << " limits=on";
  }
  out << "\n";
  out << "net latency=" << FmtNum(p.latency) << " jitter=" << FmtNum(p.jitter)
      << " loss=" << FmtNum(p.loss) << " seed=" << FmtU64(s.seed)
      << " shards=" << p.shards << "\n";
  if (ablation.forensics) {
    // Generous budget: fuzz runs must not drop segments, so the
    // retention-consistency oracle compares complete histories.
    out << "forensics budget=8388608 span=5\n";
  }
  if (ablation.overload_limits) {
    out << kFuzzLimitsLine;
  }
  for (int i = 0; i < p.num_nodes; ++i) {
    out << "node " << AddrOf(i) << " trace seed=" << FmtU64(NodeSeed(s.seed, i));
    if (!ablation.use_join_indexes) {
      out << " indexes=off";
    }
    if (!ablation.metrics) {
      out << " metrics=off";
    }
    if (!ablation.reliable_transport) {
      out << " reliable=off";
    }
    out << "\n";
  }
  out << "chord all landmark=n0\n";
  out << "monitors all initiator=n0 snap_period=" << FmtNum(p.snap_period)
      << " abort=" << FmtNum(p.snap_abort) << " check=" << FmtNum(p.snap_check)
      << " probe=" << FmtNum(p.probe_period) << "\n";
  out << "dht all\n";
  out << "run " << FmtNum(p.warmup) << "\n";
  out << "# events\n";
  double cursor = 0;  // seconds since the fault window opened
  std::vector<std::pair<int, int>> faulted_links;
  for (const SimEvent& e : s.events) {
    if (e.at > cursor) {
      out << "run " << FmtNum(QuantMs(e.at - cursor)) << "\n";
      cursor = e.at;
    }
    switch (e.kind) {
      case EvKind::kCrash:
        out << "crash " << AddrOf(e.a) << "\n";
        break;
      case EvKind::kRecover:
        out << "recover " << AddrOf(e.a) << "\n";
        break;
      case EvKind::kLinkFault: {
        out << "linkfault " << AddrOf(e.a) << " " << AddrOf(e.b);
        if (e.loss > 0) {
          out << " loss=" << FmtNum(e.loss);
        }
        if (e.dup > 0) {
          out << " dup=" << FmtNum(e.dup);
        }
        if (e.reorder > 0) {
          out << " reorder=" << FmtNum(e.reorder);
        }
        if (e.latency > 0) {
          out << " latency=" << FmtNum(e.latency);
        }
        out << "\n";
        std::pair<int, int> link{e.a, e.b};
        if (std::find(faulted_links.begin(), faulted_links.end(), link) ==
            faulted_links.end()) {
          faulted_links.push_back(link);
        }
        break;
      }
      case EvKind::kLinkClear:
        out << "linkfault " << AddrOf(e.a) << " " << AddrOf(e.b) << "\n";
        break;
      case EvKind::kPartition:
        out << "partition " << PartitionGroups(e.b, p.num_nodes, true) << " "
            << PartitionGroups(e.b, p.num_nodes, false) << "\n";
        break;
      case EvKind::kHeal:
        out << "heal\n";
        break;
      case EvKind::kPut:
        out << "put " << AddrOf(e.a) << " " << e.key << " " << e.value << " "
            << FmtU64(e.req) << "\n";
        break;
      case EvKind::kGet:
        out << "get " << AddrOf(e.a) << " " << e.key << " " << FmtU64(e.req) << "\n";
        break;
    }
  }
  if (cursor < p.duration) {
    out << "run " << FmtNum(QuantMs(p.duration - cursor)) << "\n";
  }
  out << "# epilogue\n";
  out << "heal\n";
  for (const auto& [a, b] : faulted_links) {
    out << "linkfault " << AddrOf(a) << " " << AddrOf(b) << "\n";
  }
  out << "recover all\n";
  out << "run " << FmtNum(p.settle) << "\n";
  return out.str();
}

bool ScenarioToSchedule(const std::string& text, Schedule* out, std::string* error,
                        Ablation* ablation_out) {
  Schedule s;
  Ablation ablation;
  bool saw_seed = false;
  bool saw_profile = false;
  bool in_events = false;
  double cursor = 0;  // absolute virtual time implied by `run` lines
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    auto fail = [&](const std::string& msg) {
      *error = StrFormat("line %d: %s", line_no, msg.c_str());
      return false;
    };
    ScenarioCommand cmd;
    std::string line_error;
    if (!ParseScenarioLine(line, &cmd, &line_error)) {
      return fail(line_error);
    }
    if (cmd.directive == nullptr) {
      ScenarioCommand header;
      if (!ParseScenarioOptions(cmd.comment, HeaderParams(), "header", &header,
                                &line_error)) {
        return fail("scenario is not in canonical simfuzz form (" + line_error + ")");
      }
      if (header.Find("simfuzz") != nullptr) {
        header.Get("seed", &s.seed);
        saw_seed = true;
      }
      if (header.Find("profile") != nullptr) {
        FuzzProfile& p = s.profile;
        header.Get("nodes", &p.num_nodes);
        header.Get("warmup", &p.warmup);
        header.Get("duration", &p.duration);
        header.Get("settle", &p.settle);
        header.Get("latency", &p.latency);
        header.Get("jitter", &p.jitter);
        header.Get("loss", &p.loss);
        header.Get("snap_period", &p.snap_period);
        header.Get("abort", &p.snap_abort);
        header.Get("check", &p.snap_check);
        header.Get("probe", &p.probe_period);
        header.Get("churn", &p.churn_events);
        header.Get("linkfaults", &p.linkfault_events);
        header.Get("partitions", &p.partition_events);
        header.Get("puts", &p.put_events);
        header.Get("gets", &p.get_events);
        header.Get("shards", &p.shards);
        saw_profile = true;
      }
      header.Get("indexes", &ablation.use_join_indexes);
      header.Get("metrics", &ablation.metrics);
      header.Get("reliable", &ablation.reliable_transport);
      header.Get("forensics", &ablation.forensics);
      header.Get("limits", &ablation.overload_limits);  // absent in older files
      if (header.Find("events") != nullptr) {
        in_events = true;
        cursor = s.profile.warmup;
      }
      if (header.Find("epilogue") != nullptr) {
        in_events = false;
      }
      continue;
    }
    if (cmd.name == "run") {
      cursor += cmd.args[0].num;
      continue;
    }
    if (!in_events) {
      // Setup and epilogue directives are regenerated from the profile; the
      // fixed-point check below rejects any that differ from the canonical ones.
      continue;
    }
    // A partition is read as its split point alone: the fixed-point check below
    // rejects any grouping but the canonical one.
    const int n = s.profile.num_nodes;
    SimEvent e;
    e.at = QuantMs(cursor - s.profile.warmup);
    if (cmd.name == "crash" || cmd.name == "recover") {
      e.kind = cmd.name == "crash" ? EvKind::kCrash : EvKind::kRecover;
      e.a = IndexOfAddr(cmd.args[0].text, n);
    } else if (cmd.name == "linkfault") {
      e.kind = cmd.options.empty() ? EvKind::kLinkClear : EvKind::kLinkFault;
      e.a = IndexOfAddr(cmd.args[0].text, n);
      e.b = IndexOfAddr(cmd.args[1].text, n);
      cmd.Get("loss", &e.loss);
      cmd.Get("dup", &e.dup);
      cmd.Get("reorder", &e.reorder);
      cmd.Get("latency", &e.latency);
    } else if (cmd.name == "partition") {
      e.kind = EvKind::kPartition;
      e.b = static_cast<int>(Split(cmd.args[0].text, ',').size());
    } else if (cmd.name == "heal") {
      e.kind = EvKind::kHeal;
    } else if (cmd.name == "put") {
      e.kind = EvKind::kPut;
      e.a = IndexOfAddr(cmd.args[0].text, n);
      e.key = cmd.args[1].text;
      e.value = cmd.args[2].text;
      e.req = cmd.args[3].u64;
    } else if (cmd.name == "get") {
      e.kind = EvKind::kGet;
      e.a = IndexOfAddr(cmd.args[0].text, n);
      e.key = cmd.args[1].text;
      e.req = cmd.args[2].u64;
    } else {
      return fail("unknown event directive: " + cmd.name);
    }
    if (e.a < 0 || e.b < 0) {
      return fail(cmd.name + " names a node outside n0..n" + std::to_string(n - 1));
    }
    s.events.push_back(std::move(e));
  }
  if (!saw_seed || !saw_profile) {
    *error = "not a simfuzz scenario (missing # simfuzz / # profile header)";
    return false;
  }
  // Verify the fixed point: rendering the parse must reproduce the input.
  std::string rendered = ScheduleToScenario(s, ablation);
  if (rendered != text) {
    *error = "scenario is not in canonical simfuzz form (render mismatch)";
    return false;
  }
  *out = std::move(s);
  if (ablation_out != nullptr) {
    *ablation_out = ablation;
  }
  return true;
}

}  // namespace simtest
}  // namespace p2
