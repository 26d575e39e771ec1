#include "src/runtime/table.h"

#include <cmath>
#include <iterator>

namespace p2 {

Table::Table(TableSpec spec)
    : spec_(std::move(spec)), exp_head_(rows_.end()), exp_tail_(rows_.end()) {
  for (size_t pos : spec_.key_fields) {
    key_arity_ = std::max(key_arity_, pos + 1);
  }
}

size_t Table::HashValues(const ValueList& vals) {
  size_t h = 1469598103934665603ULL;
  for (const Value& v : vals) {
    h = h * 1099511628211ULL ^ v.Hash();
  }
  return h;
}

size_t Table::HashAt(const ValueList& vals, const std::vector<size_t>& positions) {
  size_t h = 1469598103934665603ULL;
  for (size_t pos : positions) {
    h = h * 1099511628211ULL ^ (pos < vals.size() ? vals[pos] : Value::Null()).Hash();
  }
  return h;
}

size_t Table::KeySize(const Tuple& t) const {
  return spec_.key_fields.empty() ? t.arity() : spec_.key_fields.size();
}

const Value& Table::KeyField(const Tuple& t, size_t i) const {
  static const Value kNull = Value::Null();
  if (spec_.key_fields.empty()) {
    return t.field(i);
  }
  size_t pos = spec_.key_fields[i];
  return pos < t.arity() ? t.field(pos) : kNull;
}

size_t Table::KeyHash(const Tuple& t) const {
  return spec_.key_fields.empty() ? HashValues(t.fields())
                                  : HashAt(t.fields(), spec_.key_fields);
}

bool Table::SameKey(const Tuple& a, const Tuple& b) const {
  size_t n = KeySize(a);
  if (n != KeySize(b)) {
    return false;
  }
  for (size_t i = 0; i < n; ++i) {
    if (!(KeyField(a, i) == KeyField(b, i))) {
      return false;
    }
  }
  return true;
}

bool Table::HasKey(const Tuple& t, const ValueList& key_values) const {
  size_t n = KeySize(t);
  if (n != key_values.size()) {
    return false;
  }
  for (size_t i = 0; i < n; ++i) {
    if (!(KeyField(t, i) == key_values[i])) {
      return false;
    }
  }
  return true;
}

template <typename Pred>
Table::RowIt Table::FindRow(size_t hash, Pred pred) {
  // Walks the hash's bucket instead of equal_range(hash), which reads on past the
  // last entry under the hash; here the walk stops at the (usually first) hit.
  size_t bucket = index_.bucket(hash);
  for (auto entry = index_.begin(bucket); entry != index_.end(bucket); ++entry) {
    if (entry->first == hash && pred(*entry->second)) {
      return entry->second;
    }
  }
  return rows_.end();
}

size_t Table::EnsureIndex(std::vector<size_t> positions) {
  for (size_t i = 0; i < secondary_.size(); ++i) {
    if (secondary_[i]->positions == positions) {
      return i;
    }
  }
  auto index = std::make_unique<SecondaryIndex>();
  index->positions = std::move(positions);
  for (auto it = rows_.begin(); it != rows_.end(); ++it) {
    index->map[HashAt(it->tuple->fields(), index->positions)].emplace(it->seq, it);
    ++index->entries;
  }
  secondary_.push_back(std::move(index));
  return secondary_.size() - 1;
}

void Table::SecondaryAdd(RowIt it) {
  for (auto& index : secondary_) {
    index->map[HashAt(it->tuple->fields(), index->positions)].emplace(it->seq, it);
    ++index->entries;
  }
}

void Table::SecondaryRemove(RowIt it) {
  for (auto& index : secondary_) {
    auto bucket = index->map.find(HashAt(it->tuple->fields(), index->positions));
    if (bucket == index->map.end()) {
      continue;
    }
    if (bucket->second.erase(it->seq) > 0) {
      --index->entries;
    }
    if (bucket->second.empty()) {
      index->map.erase(bucket);
    }
  }
}

std::vector<Table::IndexStats> Table::IndexStatsSnapshot() const {
  std::vector<IndexStats> out;
  out.reserve(secondary_.size());
  for (const auto& index : secondary_) {
    out.push_back({index->positions, index->probes, index->rows_yielded, index->entries});
  }
  return out;
}

void Table::Notify(TableChange change, const TupleRef& t) {
  for (const Listener& fn : listeners_) {
    fn(change, t);
  }
}

void Table::ExpiryLink(RowIt it) {
  // Walk back from the tail: a row (re)linked at the current time expires no earlier
  // than the rows linked before it, so this is O(1) while time is monotone.
  RowIt prev = exp_tail_;
  while (prev != rows_.end() &&
         (it->expires_at < prev->expires_at ||
          (it->expires_at == prev->expires_at && it->seq < prev->seq))) {
    prev = prev->exp_prev;
  }
  RowIt next = prev == rows_.end() ? exp_head_ : prev->exp_next;
  it->exp_prev = prev;
  it->exp_next = next;
  (prev == rows_.end() ? exp_head_ : prev->exp_next) = it;
  (next == rows_.end() ? exp_tail_ : next->exp_prev) = it;
}

void Table::ExpiryUnlink(RowIt it) {
  (it->exp_prev == rows_.end() ? exp_head_ : it->exp_prev->exp_next) = it->exp_next;
  (it->exp_next == rows_.end() ? exp_tail_ : it->exp_next->exp_prev) = it->exp_prev;
}

void Table::SetExpiry(RowIt it, double expires) {
  if (expires == it->expires_at) {
    return;  // same list position (e.g. infinite lifetime)
  }
  ExpiryUnlink(it);
  it->expires_at = expires;
  ExpiryLink(it);
}

InsertOutcome Table::Insert(const TupleRef& t, double now) {
  ExpireStale(now);
  double expires = std::isinf(spec_.lifetime_secs)
                       ? std::numeric_limits<double>::infinity()
                       : now + spec_.lifetime_secs;
  size_t hash = KeyHash(*t);
  RowIt it = FindRow(hash, [&](const Row& row) { return SameKey(*row.tuple, *t); });
  if (it != rows_.end()) {
    if (*it->tuple == *t) {
      SetExpiry(it, expires);  // identical: refresh lifetime only, no delta
      ++counters_.refreshes;
      return InsertOutcome::kRefreshed;
    }
    SecondaryRemove(it);  // indexed field values may change with the payload
    short_rows_ -= ShortOfKey(*it->tuple);
    short_rows_ += ShortOfKey(*t);
    it->tuple = t;
    SetExpiry(it, expires);
    SecondaryAdd(it);
    ++counters_.inserts;
    Notify(TableChange::kInsert, t);
    return InsertOutcome::kReplaced;
  }
  rows_.push_back(Row{t, expires, next_seq_++, rows_.end(), rows_.end()});
  it = std::prev(rows_.end());
  ExpiryLink(it);
  index_.emplace(hash, it);
  short_rows_ += ShortOfKey(*t);
  SecondaryAdd(it);
  EvictOverflow();
  ++counters_.inserts;
  Notify(TableChange::kInsert, t);
  return InsertOutcome::kNew;
}

void Table::Remove(RowIt it, TableChange change) {
  ExpiryUnlink(it);
  auto entry = index_.equal_range(KeyHash(*it->tuple)).first;
  while (entry->second != it) {
    ++entry;
  }
  index_.erase(entry);
  short_rows_ -= ShortOfKey(*it->tuple);
  SecondaryRemove(it);
  TupleRef victim = it->tuple;
  if (iter_depth_ > 0) {
    // A walk is in flight (only deletes get here: e.g. tracer GC firing mid-join):
    // erasing would invalidate it. The row is unlinked from everything; hide it from
    // every access and leave the corpse for EndIterMaintenance.
    it->expires_at = -std::numeric_limits<double>::infinity();
    dead_rows_.push_back(it);
  } else {
    rows_.erase(it);
  }
  switch (change) {
    case TableChange::kDelete:
      ++counters_.deletes;
      break;
    case TableChange::kExpire:
      ++counters_.expires;
      break;
    case TableChange::kEvict:
      ++counters_.evictions;
      break;
    case TableChange::kInsert:
      break;
  }
  Notify(change, victim);
}

void Table::EvictOverflow() {
  if (iter_depth_ > 0) {
    // A walk is in flight: erasing would invalidate it. EndIterMaintenance
    // re-checks the size bound once the outermost walk ends.
    return;
  }
  while (rows_.size() > spec_.max_size) {
    // Evict the row closest to expiry: capacity pressure accelerates the aging the
    // table would do anyway. Refreshes push a row's expiry out, so soft state that
    // is still being maintained (e.g. a Chord node's own best successor) survives
    // while once-gossiped entries go first. Ties (notably infinite-lifetime tables)
    // fall back to insertion order. Both are the expiry list's order.
    Remove(exp_head_, TableChange::kEvict);
  }
}

bool Table::BindsKey(const ValueList& pattern, const std::vector<bool>& bound) const {
  // A row shorter than some key field matches on its remaining fields alone, so the
  // probe (which compares whole keys) is exact only while no such row exists.
  if (spec_.key_fields.empty() || short_rows_ > 0) {
    return false;
  }
  for (size_t pos : spec_.key_fields) {
    if (pos >= pattern.size() || pos >= bound.size() || !bound[pos]) {
      return false;
    }
  }
  return true;
}

size_t Table::DeleteMatching(const ValueList& pattern,
                             const std::vector<bool>& bound, double now) {
  ExpireStale(now);
  auto matches = [&](const Row& row) {
    if (row.expires_at <= now) {
      return false;  // expired or already deleted; purge was deferred by a walk
    }
    const Tuple& t = *row.tuple;
    for (size_t i = 0; i < pattern.size() && i < t.arity(); ++i) {
      if (i < bound.size() && bound[i] && !(pattern[i] == t.field(i))) {
        return false;
      }
    }
    return true;
  };
  if (BindsKey(pattern, bound)) {
    // Every match carries the pattern's key, and keys are unique: at most one row.
    RowIt it = FindRow(HashAt(pattern, spec_.key_fields), matches);
    if (it == rows_.end()) {
      return 0;
    }
    Remove(it, TableChange::kDelete);
    return 1;
  }
  size_t deleted = 0;
  for (auto it = rows_.begin(); it != rows_.end();) {
    RowIt row = it++;
    if (matches(*row)) {
      Remove(row, TableChange::kDelete);
      ++deleted;
    }
  }
  return deleted;
}

void Table::EndIterMaintenance() {
  // Counters and listeners already fired at mark time; just drop the corpses.
  for (RowIt it : dead_rows_) {
    rows_.erase(it);
  }
  dead_rows_.clear();
  if (rows_.size() > spec_.max_size) {
    EvictOverflow();  // inserts mid-walk skipped the size bound
  }
}

size_t Table::ExpireStale(double now) {
  if (exp_head_ == rows_.end() || exp_head_->expires_at > now) {
    return 0;  // nothing due
  }
  if (iter_depth_ > 0) {
    // Rows are being walked (possibly by this very caller, re-entering through a
    // nested self-join probe): erasing would invalidate the walk. Iterations filter
    // stale rows per row; the purge happens on the next non-nested access.
    return 0;
  }
  // The due rows are a prefix of the expiry list; purge them in insertion order.
  due_.clear();
  for (RowIt it = exp_head_; it != rows_.end() && it->expires_at <= now;
       it = it->exp_next) {
    due_.push_back(it);
  }
  std::sort(due_.begin(), due_.end(),
            [](RowIt a, RowIt b) { return a->seq < b->seq; });
  for (RowIt it : due_) {
    Remove(it, TableChange::kExpire);
  }
  return due_.size();
}

TupleRef Table::FindByKey(const ValueList& key_values, double now) {
  ExpireStale(now);
  RowIt it = FindRow(HashValues(key_values),
                     [&](const Row& row) { return HasKey(*row.tuple, key_values); });
  if (it == rows_.end() || it->expires_at <= now) {
    return nullptr;  // stale rows survive the (possibly deferred) purge; never match
  }
  return it->tuple;
}

std::vector<TupleRef> Table::Scan(double now) {
  ExpireStale(now);
  std::vector<TupleRef> out;
  out.reserve(rows_.size());
  for (const Row& row : rows_) {
    if (row.expires_at <= now) {
      continue;  // purge was deferred by an in-flight iteration
    }
    out.push_back(row.tuple);
  }
  return out;
}

size_t Table::Size(double now) {
  ExpireStale(now);
  // Mid-walk, deleted rows and due rows still await their purge: leave them out.
  size_t pending = dead_rows_.size();
  for (RowIt it = exp_head_; it != rows_.end() && it->expires_at <= now;
       it = it->exp_next) {
    ++pending;
  }
  return rows_.size() - pending;
}

size_t Table::ByteSize() const {
  size_t bytes = 0;
  for (const Row& row : rows_) {
    bytes += row.tuple->ByteSize();
  }
  return bytes;
}

}  // namespace p2
