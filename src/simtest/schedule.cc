#include "src/simtest/schedule.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <utility>

#include "src/common/rng.h"
#include "src/common/strings.h"

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

bool ParseKvNum(const std::map<std::string, std::string>& kv, const std::string& key,
                double* out, std::string* error) {
  auto it = kv.find(key);
  if (it == kv.end()) {
    *error = "missing " + key;
    return false;
  }
  *out = std::strtod(it->second.c_str(), nullptr);
  return true;
}

std::map<std::string, std::string> KvPairs(const std::vector<std::string>& words,
                                           size_t from) {
  std::map<std::string, std::string> kv;
  for (size_t i = from; i < words.size(); ++i) {
    size_t eq = words[i].find('=');
    if (eq != std::string::npos) {
      kv[words[i].substr(0, eq)] = words[i].substr(eq + 1);
    }
  }
  return kv;
}

// Splits on runs of spaces (scenario lines never quote spaces in simfuzz output).
std::vector<std::string> SplitWords(const std::string& line) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : line) {
    if (c == ' ' || c == '\t') {
      if (!cur.empty()) {
        out.push_back(cur);
        cur.clear();
      }
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) {
    out.push_back(cur);
  }
  return out;
}

// Parses "n<i>" back to i; returns -1 on anything else.
int IndexOfAddr(const std::string& addr) {
  if (addr.size() < 2 || addr[0] != 'n' ||
      addr.find_first_not_of("0123456789", 1) != std::string::npos) {
    return -1;
  }
  return static_cast<int>(std::strtol(addr.c_str() + 1, nullptr, 10));
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

bool ScenarioToSchedule(const std::string& text, Schedule* out, std::string* error) {
  Schedule s;
  Ablation ablation;
  bool saw_seed = false;
  bool saw_profile = false;
  bool in_events = false;
  bool in_epilogue = false;
  double cursor = 0;  // absolute virtual time implied by `run` lines
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::vector<std::string> words = SplitWords(line);
    if (words.empty()) {
      continue;
    }
    auto fail = [&](const std::string& msg) {
      *error = StrFormat("line %d: %s", line_no, msg.c_str());
      return false;
    };
    if (words[0] == "#") {
      if (words.size() >= 2 && words[1] == "simfuzz") {
        std::map<std::string, std::string> kv = KvPairs(words, 2);
        auto it = kv.find("seed");
        if (it == kv.end()) {
          return fail("simfuzz header missing seed");
        }
        s.seed = std::strtoull(it->second.c_str(), nullptr, 10);
        saw_seed = true;
      } else if (words.size() >= 2 && words[1] == "profile") {
        std::map<std::string, std::string> kv = KvPairs(words, 2);
        FuzzProfile& p = s.profile;
        double v = 0;
        struct Field {
          const char* key;
          double* dval;
          int* ival;
        };
        Field fields[] = {
            {"nodes", nullptr, &p.num_nodes},
            {"warmup", &p.warmup, nullptr},
            {"duration", &p.duration, nullptr},
            {"settle", &p.settle, nullptr},
            {"latency", &p.latency, nullptr},
            {"jitter", &p.jitter, nullptr},
            {"loss", &p.loss, nullptr},
            {"snap_period", &p.snap_period, nullptr},
            {"abort", &p.snap_abort, nullptr},
            {"check", &p.snap_check, nullptr},
            {"probe", &p.probe_period, nullptr},
            {"churn", nullptr, &p.churn_events},
            {"linkfaults", nullptr, &p.linkfault_events},
            {"partitions", nullptr, &p.partition_events},
            {"puts", nullptr, &p.put_events},
            {"gets", nullptr, &p.get_events},
            {"shards", nullptr, &p.shards},
        };
        for (const Field& f : fields) {
          if (!ParseKvNum(kv, f.key, &v, error)) {
            return fail(*error);
          }
          if (f.dval != nullptr) {
            *f.dval = v;
          } else {
            *f.ival = static_cast<int>(v);
          }
        }
        saw_profile = true;
      } else if (words.size() >= 2 && words[1] == "ablation") {
        std::map<std::string, std::string> kv = KvPairs(words, 2);
        ablation.use_join_indexes = kv["indexes"] != "off";
        ablation.metrics = kv["metrics"] != "off";
        ablation.reliable_transport = kv["reliable"] != "off";
        ablation.forensics = kv["forensics"] != "off";
        ablation.overload_limits = kv["limits"] == "on";  // absent in older files
      } else if (words.size() >= 2 && words[1] == "events") {
        in_events = true;
        cursor = s.profile.warmup;
      } else if (words.size() >= 2 && words[1] == "epilogue") {
        in_epilogue = true;
        in_events = false;
      }
      continue;
    }
    if (words[0] == "run") {
      if (words.size() != 2) {
        return fail("run <secs>");
      }
      cursor += std::strtod(words[1].c_str(), nullptr);
      continue;
    }
    if (!in_events) {
      // Setup and epilogue directives are regenerated from the profile; accept the
      // known shapes and ignore them.
      if (words[0] == "net" || words[0] == "node" || words[0] == "chord" ||
          words[0] == "monitors" || words[0] == "dht" || words[0] == "forensics" ||
          words[0] == "limits" ||
          (in_epilogue && (words[0] == "heal" || words[0] == "linkfault" ||
                           words[0] == "recover"))) {
        continue;
      }
      return fail("unexpected directive outside the event window: " + words[0]);
    }
    SimEvent e;
    e.at = QuantMs(cursor - s.profile.warmup);
    if (words[0] == "crash" || words[0] == "recover") {
      if (words.size() != 2 || IndexOfAddr(words[1]) < 0) {
        return fail(words[0] + " <n-addr>");
      }
      e.kind = words[0] == "crash" ? EvKind::kCrash : EvKind::kRecover;
      e.a = IndexOfAddr(words[1]);
    } else if (words[0] == "linkfault") {
      if (words.size() < 3 || IndexOfAddr(words[1]) < 0 || IndexOfAddr(words[2]) < 0) {
        return fail("linkfault <src> <dst> [k=v ...]");
      }
      e.a = IndexOfAddr(words[1]);
      e.b = IndexOfAddr(words[2]);
      if (words.size() == 3) {
        e.kind = EvKind::kLinkClear;
      } else {
        e.kind = EvKind::kLinkFault;
        std::map<std::string, std::string> kv = KvPairs(words, 3);
        e.loss = std::strtod(kv["loss"].c_str(), nullptr);
        e.dup = std::strtod(kv["dup"].c_str(), nullptr);
        e.reorder = std::strtod(kv["reorder"].c_str(), nullptr);
        e.latency = std::strtod(kv["latency"].c_str(), nullptr);
      }
    } else if (words[0] == "partition") {
      if (words.size() != 3) {
        return fail("partition <group> <group>");
      }
      std::vector<std::string> group_a = Split(words[1], ',');
      std::vector<std::string> group_b = Split(words[2], ',');
      e.kind = EvKind::kPartition;
      e.b = static_cast<int>(group_a.size());
      // Only the canonical prefix/suffix split round-trips.
      if (static_cast<int>(group_a.size() + group_b.size()) != s.profile.num_nodes) {
        return fail("non-canonical partition groups");
      }
      for (int i = 0; i < s.profile.num_nodes; ++i) {
        const std::string& got = i < e.b ? group_a[i] : group_b[i - e.b];
        if (got != AddrOf(i)) {
          return fail("non-canonical partition groups");
        }
      }
    } else if (words[0] == "heal") {
      e.kind = EvKind::kHeal;
    } else if (words[0] == "put") {
      if (words.size() != 5 || IndexOfAddr(words[1]) < 0) {
        return fail("put <n-addr> <key> <value> <reqid>");
      }
      e.kind = EvKind::kPut;
      e.a = IndexOfAddr(words[1]);
      e.key = words[2];
      e.value = words[3];
      e.req = std::strtoull(words[4].c_str(), nullptr, 10);
    } else if (words[0] == "get") {
      if (words.size() != 4 || IndexOfAddr(words[1]) < 0) {
        return fail("get <n-addr> <key> <reqid>");
      }
      e.kind = EvKind::kGet;
      e.a = IndexOfAddr(words[1]);
      e.key = words[2];
      e.req = std::strtoull(words[3].c_str(), nullptr, 10);
    } else {
      return fail("unknown event directive: " + words[0]);
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
  return true;
}

}  // namespace simtest
}  // namespace p2
