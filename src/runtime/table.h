// Table: soft-state storage for materialized tuples (paper §2, `materialize`).
//
// A table is declared with a maximum tuple lifetime, a maximum size, and a primary key
// (a subset of field positions). Inserting a tuple whose key already exists replaces the
// old row; inserting an identical tuple merely refreshes its lifetime (and does NOT count
// as a delta — this is what keeps recursive rule sets like the path-vector example from
// deriving forever). When the table exceeds its maximum size, the row nearest expiry is
// evicted (ties: the earliest inserted).
//
// Maintenance costs O(rows touched), not O(rows in table): rows are threaded on an
// expiry-ordered list, so expiry and eviction pop its head; the primary index maps a
// key hash to its row (no key copy is stored) and also serves deletes whose pattern
// binds the whole key.
//
// Listeners observe changes; the planner uses them to drive table-delta rule strands and
// continuous aggregate re-evaluation, and the tracer uses them for ruleExec GC.
//
// Secondary indexes (EnsureIndex / ForEachMatch): hash indexes over arbitrary field
// subsets, requested by the planner for join probes that bind only part of (or none
// of) the primary key. They are maintained inline across every mutation — insert,
// replace, refresh, delete, expire, evict — and probed allocation-free. The index
// consistency contract is documented in docs/INTERNALS.md.

#ifndef SRC_RUNTIME_TABLE_H_
#define SRC_RUNTIME_TABLE_H_

#include <algorithm>
#include <functional>
#include <limits>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/runtime/tuple.h"

namespace p2 {

// Declaration of a materialized table, as written in a `materialize(...)` statement.
struct TableSpec {
  std::string name;
  // Seconds a tuple stays alive after its last insert/refresh; infinity allowed.
  double lifetime_secs = std::numeric_limits<double>::infinity();
  // Maximum number of rows; the row nearest expiry is evicted beyond this.
  // SIZE_MAX = unbounded.
  size_t max_size = std::numeric_limits<size_t>::max();
  // 0-based field positions forming the primary key. Empty means the whole tuple.
  std::vector<size_t> key_fields;
};

// Cumulative change counts for one table, updated inline on every mutation (plain
// integer adds — cheap enough to stay always-on). `expires` counts both sweep-driven
// and lazy (access-time) expiries. Surfaced through sysTableStat and metrics sinks.
struct TableCounters {
  uint64_t inserts = 0;    // kNew + kReplaced outcomes
  uint64_t refreshes = 0;  // identical re-insert, lifetime extended only
  uint64_t expires = 0;
  uint64_t deletes = 0;
  uint64_t evictions = 0;
};

// What happened on an Insert.
enum class InsertOutcome {
  kNew,       // no row with this key existed
  kReplaced,  // a row with this key but different contents was replaced
  kRefreshed  // an identical row existed; only its lifetime was extended
};

// Kinds of change reported to listeners.
enum class TableChange {
  kInsert,  // a new or replacing row (a "delta" in rule-evaluation terms)
  kDelete,  // explicitly deleted by a `delete` rule
  kExpire,  // lifetime ran out
  kEvict    // displaced by the size bound
};

class Table {
 public:
  // A listener is called synchronously after each change; it must not mutate tables
  // directly (enqueue follow-up work instead).
  using Listener = std::function<void(TableChange, const TupleRef&)>;

  explicit Table(TableSpec spec);
  // Rows link to each other through rows_.end(), which moves with the list object.
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const TableSpec& spec() const { return spec_; }
  const std::string& name() const { return spec_.name; }

  // Inserts `t` at time `now`. Expired rows are purged first.
  InsertOutcome Insert(const TupleRef& t, double now);

  // Deletes all rows matching `pattern`: a row matches when every bound pattern
  // position equals the corresponding field. Returns the number of rows deleted.
  // Positions beyond the row's arity are ignored. A pattern that binds every declared
  // key field is answered by one primary-index probe; any other pattern scans.
  size_t DeleteMatching(const ValueList& pattern,
                        const std::vector<bool>& bound, double now);

  // Purges rows whose lifetime has passed; fires kExpire for each, in insertion order.
  // Returns count. O(1) when nothing is due.
  size_t ExpireStale(double now);

  // Returns the current rows (after purging expired ones), in insertion order.
  // Materializes a copy — hot paths should use ForEachLive instead.
  std::vector<TupleRef> Scan(double now);

  // Allocation-free iteration over live rows in insertion order. `fn` is called as
  // fn(const TupleRef&) -> bool; returning false stops early. Returns the number of
  // rows yielded.
  //
  // Iteration-safe with snapshot semantics: while any walk over this table is in
  // flight, row erasure (expiry, delete, eviction) is deferred — stale/deleted rows
  // are filtered per row instead and purged when the outermost walk ends — and rows
  // inserted by a callback are not visited (the walk stops at the sequence number
  // current when it started). This makes nested probes of the same table (self-joins)
  // and callbacks that insert into the table (a traced strand joining ruleExec writes
  // ruleExec rows as it emits) both safe and equivalent to iterating a Scan copy.
  template <typename Fn>
  size_t ForEachLive(double now, Fn&& fn) {
    ExpireStale(now);
    IterGuard guard(this);
    const uint64_t seq_bound = next_seq_;  // rows_ is seq-ordered
    size_t yielded = 0;
    for (const Row& row : rows_) {
      if (row.seq >= seq_bound) {
        break;  // inserted by a callback after this walk started
      }
      if (row.expires_at <= now) {
        continue;  // expired/deleted but not yet purged (erasure deferred)
      }
      ++yielded;
      if (!fn(row.tuple)) {
        break;
      }
    }
    return yielded;
  }

  // Builds (or reuses) a secondary hash index over `positions` (0-based field
  // positions, in probe order). Existing rows are indexed immediately; subsequent
  // mutations keep the index consistent inline. Returns a stable index id for
  // ForEachMatch. Requesting the same position set twice returns the same id.
  size_t EnsureIndex(std::vector<size_t> positions);

  size_t NumIndexes() const { return secondary_.size(); }

  // Probes index `index_id` with one value per indexed position (in the order given
  // to EnsureIndex) and iterates the matching live rows in insertion order — the
  // same order a scan would visit them, so an indexed join explores its branches
  // exactly like the scan it replaces. The index matches on the hash of the indexed
  // fields, so `fn` may see false positives under hash collision — callers re-verify
  // each row (strand execution does so via MatchPredicate). Same
  // callback/early-exit/iteration-safety contract as ForEachLive. Returns rows
  // yielded.
  template <typename Fn>
  size_t ForEachMatch(size_t index_id, const ValueList& key_values, double now,
                      Fn&& fn) {
    ExpireStale(now);
    SecondaryIndex& index = *secondary_[index_id];
    ++index.probes;
    IterGuard guard(this);
    size_t yielded = 0;
    auto bucket = index.map.find(HashValues(key_values));
    if (bucket != index.map.end()) {
      // Snapshot the bucket before invoking callbacks: a callback may insert into
      // this table, rehashing the index maps under a live bucket iterator. Row
      // erasure is deferred while the IterGuard is held, so the copied row
      // iterators stay valid throughout. Sorting by seq restores insertion order.
      std::vector<std::pair<uint64_t, RowIt>> matches(bucket->second.begin(),
                                                      bucket->second.end());
      std::sort(matches.begin(), matches.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      for (const auto& [seq, it] : matches) {
        if (it->expires_at <= now) {
          continue;  // expired/deleted but not yet purged (erasure deferred)
        }
        ++yielded;
        if (!fn(it->tuple)) {
          break;
        }
      }
    }
    index.rows_yielded += yielded;
    return yielded;
  }

  // Cumulative per-index telemetry, surfaced through sysIndexStat.
  struct IndexStats {
    std::vector<size_t> positions;
    uint64_t probes = 0;        // ForEachMatch calls
    uint64_t rows_yielded = 0;  // rows handed to probe callbacks
    size_t entries = 0;         // rows currently indexed
  };
  std::vector<IndexStats> IndexStatsSnapshot() const;

  // Point lookup by primary-key values (one Value per declared key field, in
  // declaration order). Returns nullptr when absent. Only valid when the table has
  // explicit key fields; the planner uses this to turn joins that bind the whole key
  // into O(1) probes instead of scans.
  TupleRef FindByKey(const ValueList& key_values, double now);

  // Number of live rows at `now`.
  size_t Size(double now);

  // Approximate bytes held by live rows.
  size_t ByteSize() const;

  void AddListener(Listener fn) { listeners_.push_back(std::move(fn)); }

  // Cumulative mutation counts since creation.
  const TableCounters& counters() const { return counters_; }

 private:
  struct Row;
  using RowIt = std::list<Row>::iterator;
  struct Row {
    TupleRef tuple;
    double expires_at;  // -infinity once deleted mid-walk (purge pending)
    uint64_t seq;       // monotonically increasing insert order
    // Neighbours on the expiry list, ordered by (expires_at, seq); rows_.end() marks
    // either end. A row deleted mid-walk is unlinked and waits in dead_rows_.
    RowIt exp_prev;
    RowIt exp_next;
  };

  // noexcept, so hash tables keyed by it do not store the hash a second time.
  struct IdentityHash {
    size_t operator()(size_t h) const noexcept { return h; }
  };

  // One secondary index: hash of the indexed fields -> (row seq -> row). The inner
  // map makes per-row removal O(1) even when many rows share an indexed value (a
  // low-selectivity index would otherwise turn bulk expiry quadratic).
  struct SecondaryIndex {
    std::vector<size_t> positions;
    std::unordered_map<size_t, std::unordered_map<uint64_t, RowIt>, IdentityHash> map;
    uint64_t probes = 0;
    uint64_t rows_yielded = 0;
    size_t entries = 0;
  };

  // Defers row erasure while rows are being walked (see ForEachLive); when the
  // outermost walk ends, applies the deferred structural work.
  struct IterGuard {
    explicit IterGuard(Table* t) : table(t) { ++table->iter_depth_; }
    ~IterGuard() {
      if (--table->iter_depth_ == 0) {
        table->EndIterMaintenance();
      }
    }
    Table* table;
  };
  friend struct IterGuard;

  // FNV-1a over Value::Hash — shared by the primary key and every secondary index,
  // so cross-kind numeric equality (Int(7) == Id(7)) probes consistently. Positions
  // beyond `vals` hash as Null.
  static size_t HashValues(const ValueList& vals);
  static size_t HashAt(const ValueList& vals, const std::vector<size_t>& positions);

  // Primary key of a tuple: the declared key fields (Null beyond its arity), or every
  // field when none are declared.
  size_t KeySize(const Tuple& t) const;
  const Value& KeyField(const Tuple& t, size_t i) const;
  size_t KeyHash(const Tuple& t) const;
  bool SameKey(const Tuple& a, const Tuple& b) const;
  bool HasKey(const Tuple& t, const ValueList& key_values) const;
  // True when `t` lacks some declared key field (its key holds a Null there).
  bool ShortOfKey(const Tuple& t) const { return t.arity() < key_arity_; }
  // The first row under `hash` in the primary index satisfying `pred(row)`, else
  // rows_.end().
  template <typename Pred>
  RowIt FindRow(size_t hash, Pred pred);
  // True when a DeleteMatching pattern can be answered by a primary-index probe.
  bool BindsKey(const ValueList& pattern, const std::vector<bool>& bound) const;

  void ExpiryLink(RowIt it);
  void ExpiryUnlink(RowIt it);
  void SetExpiry(RowIt it, double expires);
  void SecondaryAdd(RowIt it);
  void SecondaryRemove(RowIt it);
  // Unlinks `it` from every index and the expiry list, erases it (or, mid-walk,
  // leaves it dead in dead_rows_), counts `change` and notifies.
  void Remove(RowIt it, TableChange change);
  void Notify(TableChange change, const TupleRef& t);
  void EvictOverflow();
  void EndIterMaintenance();

  TableSpec spec_;
  size_t key_arity_ = 0;  // 1 + the largest declared key field; 0 for whole-tuple keys
  TableCounters counters_;
  std::list<Row> rows_;  // insertion order
  RowIt exp_head_;       // soonest to expire; rows_.end() when empty
  RowIt exp_tail_;
  // Primary index: key hash -> row. Entries hold no key copy; probes compare against
  // the row's own fields.
  std::unordered_multimap<size_t, RowIt, IdentityHash> index_;
  size_t short_rows_ = 0;  // indexed rows for which ShortOfKey holds
  std::vector<std::unique_ptr<SecondaryIndex>> secondary_;
  std::vector<Listener> listeners_;
  uint64_t next_seq_ = 0;
  int iter_depth_ = 0;            // >0 while ForEachLive/ForEachMatch walk rows
  std::vector<RowIt> dead_rows_;  // deleted mid-walk, erased by EndIterMaintenance
  std::vector<RowIt> due_;        // ExpireStale's batch, kept to reuse its capacity
};

}  // namespace p2

#endif  // SRC_RUNTIME_TABLE_H_
