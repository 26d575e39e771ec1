// Differential test: seeded random operation sequences run against Table and against a
// small reference model with the straightforward linear semantics (every expiry,
// eviction, delete and key lookup scans the whole row list). The two runs must yield
// identical observation logs: listener events (kind, tuple, order), operation
// results, counters and a Scan after every step.

#include <cmath>
#include <limits>
#include <list>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/runtime/table.h"

namespace p2 {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Linear reference model of Table's contract.
class ModelTable {
 public:
  explicit ModelTable(TableSpec spec) : spec_(std::move(spec)) {}

  void AddListener(Table::Listener fn) { listeners_.push_back(std::move(fn)); }
  const TableCounters& counters() const { return counters_; }

  InsertOutcome Insert(const TupleRef& t, double now) {
    ExpireStale(now);
    double expires = std::isinf(spec_.lifetime_secs) ? kInf : now + spec_.lifetime_secs;
    ValueList key = KeyOf(*t);
    for (Row& row : rows_) {
      if (row.dead || !SameValues(KeyOf(*row.tuple), key)) {
        continue;
      }
      row.expires_at = expires;
      if (*row.tuple == *t) {
        ++counters_.refreshes;
        return InsertOutcome::kRefreshed;
      }
      row.tuple = t;
      ++counters_.inserts;
      Notify(TableChange::kInsert, t);
      return InsertOutcome::kReplaced;
    }
    rows_.push_back(Row{t, expires, next_seq_++, false});
    EvictOverflow();
    ++counters_.inserts;
    Notify(TableChange::kInsert, t);
    return InsertOutcome::kNew;
  }

  size_t DeleteMatching(const ValueList& pattern, const std::vector<bool>& bound,
                        double now) {
    ExpireStale(now);
    size_t deleted = 0;
    for (auto it = rows_.begin(); it != rows_.end();) {
      bool match = it->expires_at > now;
      const Tuple& t = *it->tuple;
      for (size_t i = 0; match && i < pattern.size() && i < t.arity(); ++i) {
        match = !(i < bound.size() && bound[i]) || pattern[i] == t.field(i);
      }
      if (!match) {
        ++it;
        continue;
      }
      TupleRef victim = it->tuple;
      if (iter_depth_ > 0) {
        it->dead = true;
        it->expires_at = -kInf;
        ++it;
      } else {
        it = rows_.erase(it);
      }
      ++deleted;
      ++counters_.deletes;
      Notify(TableChange::kDelete, victim);
    }
    return deleted;
  }

  size_t ExpireStale(double now) {
    if (iter_depth_ > 0) {
      return 0;
    }
    size_t expired = 0;
    for (auto it = rows_.begin(); it != rows_.end();) {
      if (it->expires_at > now) {
        ++it;
        continue;
      }
      TupleRef victim = it->tuple;
      it = rows_.erase(it);
      ++expired;
      ++counters_.expires;
      Notify(TableChange::kExpire, victim);
    }
    return expired;
  }

  std::vector<TupleRef> Scan(double now) {
    ExpireStale(now);
    std::vector<TupleRef> out;
    for (const Row& row : rows_) {
      if (row.expires_at > now) {
        out.push_back(row.tuple);
      }
    }
    return out;
  }

  template <typename Fn>
  size_t ForEachLive(double now, Fn&& fn) {
    ExpireStale(now);
    ++iter_depth_;
    uint64_t seq_bound = next_seq_;
    size_t yielded = 0;
    for (const Row& row : rows_) {
      if (row.seq >= seq_bound) {
        break;
      }
      if (row.expires_at <= now) {
        continue;
      }
      ++yielded;
      if (!fn(row.tuple)) {
        break;
      }
    }
    if (--iter_depth_ == 0) {
      for (auto it = rows_.begin(); it != rows_.end();) {
        it = it->dead ? rows_.erase(it) : std::next(it);
      }
      EvictOverflow();
    }
    return yielded;
  }

  TupleRef FindByKey(const ValueList& key_values, double now) {
    ExpireStale(now);
    for (const Row& row : rows_) {
      if (!row.dead && row.expires_at > now && SameValues(KeyOf(*row.tuple), key_values)) {
        return row.tuple;
      }
    }
    return nullptr;
  }

  size_t Size(double now) {
    ExpireStale(now);
    size_t live = 0;
    for (const Row& row : rows_) {
      live += row.expires_at > now ? 1 : 0;
    }
    return live;
  }

 private:
  struct Row {
    TupleRef tuple;
    double expires_at;
    uint64_t seq;
    bool dead;
  };

  ValueList KeyOf(const Tuple& t) const {
    if (spec_.key_fields.empty()) {
      return t.fields();
    }
    ValueList key;
    for (size_t pos : spec_.key_fields) {
      key.push_back(pos < t.arity() ? t.field(pos) : Value::Null());
    }
    return key;
  }

  static bool SameValues(const ValueList& a, const ValueList& b) {
    if (a.size() != b.size()) {
      return false;
    }
    for (size_t i = 0; i < a.size(); ++i) {
      if (!(a[i] == b[i])) {
        return false;
      }
    }
    return true;
  }

  void EvictOverflow() {
    if (iter_depth_ > 0) {
      return;
    }
    while (rows_.size() > spec_.max_size) {
      auto victim = rows_.begin();
      for (auto it = rows_.begin(); it != rows_.end(); ++it) {
        if (it->expires_at < victim->expires_at) {
          victim = it;  // nearest expiry; ties keep the earliest inserted
        }
      }
      TupleRef t = victim->tuple;
      rows_.erase(victim);
      ++counters_.evictions;
      Notify(TableChange::kEvict, t);
    }
  }

  void Notify(TableChange change, const TupleRef& t) {
    for (const auto& fn : listeners_) {
      fn(change, t);
    }
  }

  TableSpec spec_;
  TableCounters counters_;
  std::list<Row> rows_;
  std::vector<Table::Listener> listeners_;
  uint64_t next_seq_ = 0;
  int iter_depth_ = 0;
};

// xorshift64*: the same seed gives both runs the same operation sequence for as long
// as their observations agree.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ULL + 1) {}
  uint64_t Next() {
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    return state_ * 0x2545F4914F6CDD1DULL;
  }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }
  bool Chance(size_t percent) { return Below(100) < percent; }

 private:
  uint64_t state_;
};

TableSpec SpecFor(uint64_t seed) {
  TableSpec spec;
  spec.name = "t";
  switch (seed % 5) {
    case 0:  // tupleTable-like: one key field, finite lifetime, bounded
      spec.lifetime_secs = 5;
      spec.max_size = 4;
      spec.key_fields = {1};
      break;
    case 1:  // ruleExec-like: whole-tuple key
      spec.lifetime_secs = 3;
      spec.max_size = 12;
      break;
    case 2:  // infinite lifetime: every eviction is an expiry tie
      spec.max_size = 6;
      spec.key_fields = {0, 1};
      break;
    case 3:  // key reaching past short (arity-2) rows
      spec.lifetime_secs = 4;
      spec.max_size = 10;
      spec.key_fields = {1, 2};
      break;
    default:  // unbounded
      spec.lifetime_secs = 2.5;
      spec.key_fields = {1};
      break;
  }
  return spec;
}

Value SmallNumber(Rng& rng, size_t n) {
  int64_t v = static_cast<int64_t>(rng.Below(n));
  // Id and Int compare (and hash) equal by numeric value; mix them.
  return rng.Chance(20) ? Value::Id(static_cast<uint64_t>(v)) : Value::Int(v);
}

TupleRef RandomTuple(Rng& rng) {
  ValueList fields = {Value::Str(rng.Chance(80) ? "n" : "m"), SmallNumber(rng, 6)};
  if (rng.Chance(90)) {
    fields.push_back(SmallNumber(rng, 3));
  }
  return Tuple::Make("t", std::move(fields));
}

// Runs one random program against `table`, appending every observation to `log`.
template <typename T>
class Driver {
 public:
  Driver(T& table, const TableSpec& spec, uint64_t seed, std::vector<std::string>& log)
      : table_(table), spec_(spec), rng_(seed), log_(log) {
    table_.AddListener([this](TableChange change, const TupleRef& t) {
      log_.push_back("event " + std::to_string(static_cast<int>(change)) + " " +
                     t->ToString());
    });
  }

  void Run(int steps) {
    for (int step = 0; step < steps; ++step) {
      log_.push_back("step " + std::to_string(step));
      if (rng_.Chance(40)) {
        now_ += 0.5 * static_cast<double>(rng_.Below(5));  // many equal instants
      }
      Op(0);
      const TableCounters& c = table_.counters();
      std::string line = "counters " + std::to_string(c.inserts) + "/" +
                         std::to_string(c.refreshes) + "/" + std::to_string(c.expires) +
                         "/" + std::to_string(c.deletes) + "/" +
                         std::to_string(c.evictions) + " scan";
      for (const TupleRef& t : table_.Scan(now_)) {
        line += " " + t->ToString();
      }
      log_.push_back(line);
    }
  }

 private:
  void Op(int depth) {
    switch (rng_.Below(9)) {
      case 0:
      case 1:
      case 2: {
        TupleRef t = RandomTuple(rng_);
        int outcome = static_cast<int>(table_.Insert(t, now_));
        log_.push_back("insert " + t->ToString() + " -> " + std::to_string(outcome));
        break;
      }
      case 3: {  // binds every key field (when there are any), maybe more
        ValueList pattern = RandomTuple(rng_)->fields();
        std::vector<bool> bound(pattern.size(), false);
        for (size_t pos : spec_.key_fields) {
          if (pos < bound.size()) {
            bound[pos] = true;
          }
        }
        for (size_t i = 0; i < bound.size(); ++i) {
          bound[i] = bound[i] || rng_.Chance(25);
        }
        Delete(pattern, bound);
        break;
      }
      case 4: {  // wildcards anywhere
        ValueList pattern = RandomTuple(rng_)->fields();
        std::vector<bool> bound(pattern.size(), false);
        for (size_t i = 0; i < bound.size(); ++i) {
          bound[i] = rng_.Chance(40);
        }
        Delete(pattern, bound);
        break;
      }
      case 5:
        log_.push_back("expire " + std::to_string(table_.ExpireStale(now_)));
        break;
      case 6: {
        ValueList key;
        if (spec_.key_fields.empty()) {
          key = RandomTuple(rng_)->fields();
        } else {
          for (size_t pos : spec_.key_fields) {
            key.push_back(pos == 0 ? Value::Str("n") : SmallNumber(rng_, pos == 1 ? 6 : 3));
          }
        }
        TupleRef hit = table_.FindByKey(key, now_);
        log_.push_back("find " + (hit == nullptr ? std::string("-") : hit->ToString()));
        break;
      }
      case 7:
        log_.push_back("size " + std::to_string(table_.Size(now_)));
        break;
      default:
        Walk(depth);
        break;
    }
  }

  void Delete(const ValueList& pattern, const std::vector<bool>& bound) {
    std::string line = "delete";
    for (size_t i = 0; i < pattern.size(); ++i) {
      line += bound[i] ? " " + pattern[i].ToString() : std::string(" _");
    }
    log_.push_back(line + " -> " +
                   std::to_string(table_.DeleteMatching(pattern, bound, now_)));
  }

  // Walks the table, running nested operations (inserts, deletes, inner walks...)
  // from the callback.
  void Walk(int depth) {
    log_.push_back("walk " + std::to_string(depth) + " begin");
    size_t yielded = table_.ForEachLive(now_, [&](const TupleRef& t) {
      log_.push_back("yield " + t->ToString());
      if (depth < 2 && rng_.Chance(50)) {
        Op(depth + 1);
      }
      return !rng_.Chance(10);
    });
    log_.push_back("walk " + std::to_string(depth) + " end " + std::to_string(yielded));
  }

  T& table_;
  const TableSpec& spec_;
  Rng rng_;
  std::vector<std::string>& log_;
  double now_ = 0;
};

template <typename T>
std::vector<std::string> RunProgram(uint64_t seed, int steps) {
  TableSpec spec = SpecFor(seed);
  T table(spec);
  std::vector<std::string> log;
  Driver<T>(table, spec, seed, log).Run(steps);
  return log;
}

TEST(TableModelTest, MatchesLinearModelOnRandomPrograms) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    std::vector<std::string> got = RunProgram<Table>(seed, 300);
    std::vector<std::string> want = RunProgram<ModelTable>(seed, 300);
    size_t n = std::min(got.size(), want.size());
    size_t first_diff = 0;
    while (first_diff < n && got[first_diff] == want[first_diff]) {
      ++first_diff;
    }
    if (first_diff == n && got.size() == want.size()) {
      continue;
    }
    std::string context;
    for (size_t i = first_diff >= 8 ? first_diff - 8 : 0; i < first_diff; ++i) {
      context += "  " + got[i] + "\n";
    }
    ADD_FAILURE() << "seed " << seed << " diverges at log line " << first_diff
                  << "\ncommon prefix tail:\n"
                  << context << "table: " << (first_diff < got.size() ? got[first_diff] : "<end>")
                  << "\nmodel: " << (first_diff < want.size() ? want[first_diff] : "<end>");
    return;
  }
}

TEST(TableModelTest, ProgramsExerciseEveryChangeKind) {
  // Guards the generator: a differential run that never expires, evicts or deletes
  // would compare nothing.
  TableCounters total;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    TableSpec spec = SpecFor(seed);
    Table table(spec);
    std::vector<std::string> log;
    Driver<Table>(table, spec, seed, log).Run(300);
    total.refreshes += table.counters().refreshes;
    total.expires += table.counters().expires;
    total.deletes += table.counters().deletes;
    total.evictions += table.counters().evictions;
  }
  EXPECT_GT(total.refreshes, 100u);
  EXPECT_GT(total.expires, 100u);
  EXPECT_GT(total.deletes, 100u);
  EXPECT_GT(total.evictions, 100u);
}

}  // namespace
}  // namespace p2
