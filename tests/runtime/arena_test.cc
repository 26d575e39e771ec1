// Arena lifetime-safety tests (docs/SCALING.md "Memory model & hot paths").
// The tuple arena is a recycler, not an owner: payload lifetime is carried
// entirely by shared_ptr refcounts, and these tests pin the invariants that
// make that safe — recycling is exact (same size class round-trips with no
// fresh heap traffic), a block keeps its size class through parking, reuse and
// release, rows evicted or deleted mid-iteration stay readable through the
// IterGuard snapshot, tracer/forensics payloads survive arena reuse after their
// source row is gone, and crash/recover cycles neither leak tuples nor alias
// recycled storage. The suite runs under the ASan+UBSan
// CI job, which turns any violation into a hard failure; there the arena also
// poisons parked blocks, so touching recycled storage aborts.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/net/network.h"
#include "src/runtime/arena.h"
#include "src/runtime/table.h"
#include "src/runtime/tuple.h"
#include "src/runtime/value.h"

namespace p2 {
namespace {

TEST(TupleArenaTest, RecyclesSameSizeClassWithoutFreshHeapTraffic) {
  void* p = TupleArena::Allocate(100);
  ASSERT_NE(p, nullptr);
  TupleArena::Deallocate(p, 100);
  uint64_t fresh_before = TupleArena::FreshBytes();
  uint64_t recycled_before = TupleArena::RecycledBlocks();
  // Any size in the same 64-byte class must pop the block just pushed.
  void* q = TupleArena::Allocate(97);
  EXPECT_EQ(TupleArena::FreshBytes(), fresh_before);
  EXPECT_EQ(TupleArena::RecycledBlocks(), recycled_before + 1);
  TupleArena::Deallocate(q, 97);
}

TEST(TupleArenaTest, FreshBytesCountsOnlyHeapTraffic) {
  TupleArena::TrimThreadCache();
  // A cold class: both live allocations come from the heap, class-rounded.
  uint64_t fresh0 = TupleArena::FreshBytes();
  uint64_t recycled0 = TupleArena::RecycledBlocks();
  void* a = TupleArena::Allocate(32);
  void* b = TupleArena::Allocate(32);
  EXPECT_EQ(TupleArena::FreshBytes() - fresh0, 2 * 64u);
  EXPECT_EQ(TupleArena::RecycledBlocks(), recycled0);
  TupleArena::Deallocate(a, 32);
  TupleArena::Deallocate(b, 32);
  // Warm: repeats are served from the free list and add no fresh bytes.
  uint64_t fresh1 = TupleArena::FreshBytes();
  void* c = TupleArena::Allocate(32);
  TupleArena::Deallocate(c, 32);
  EXPECT_EQ(TupleArena::FreshBytes(), fresh1);
  EXPECT_EQ(TupleArena::RecycledBlocks(), recycled0 + 1);
}

TEST(TupleArenaTest, TrimReturnsParkedBlocksToTheHeap) {
  TupleArena::TrimThreadCache();
  EXPECT_EQ(TupleArena::ThreadCachedBlocks(), 0u);
  // A parked block is reusable for any size in its class.
  void* a = TupleArena::Allocate(200);
  TupleArena::Deallocate(a, 200);
  EXPECT_EQ(TupleArena::ThreadCachedBlocks(), 1u);
  void* b = TupleArena::Allocate(193);  // same 256-byte class as 200
  EXPECT_EQ(b, a);
  EXPECT_EQ(TupleArena::ThreadCachedBlocks(), 0u);
  TupleArena::Deallocate(b, 193);
  // Trimming hands the block back to the heap (ASan checks it is released
  // whole), so the next allocation of the class is fresh again.
  TupleArena::TrimThreadCache();
  EXPECT_EQ(TupleArena::ThreadCachedBlocks(), 0u);
  uint64_t fresh0 = TupleArena::FreshBytes();
  void* c = TupleArena::Allocate(200);
  EXPECT_EQ(TupleArena::FreshBytes() - fresh0, 256u);
  TupleArena::Deallocate(c, 200);
}

TEST(TupleArenaTest, OversizeAllocationsBypassTheFreeLists) {
  uint64_t recycled0 = TupleArena::RecycledBlocks();
  uint64_t fresh0 = TupleArena::FreshBytes();
  void* big = TupleArena::Allocate(1 << 16);
  TupleArena::Deallocate(big, 1 << 16);
  void* big2 = TupleArena::Allocate(1 << 16);
  TupleArena::Deallocate(big2, 1 << 16);
  // Both allocations hit the heap; neither came from a free list.
  EXPECT_EQ(TupleArena::RecycledBlocks(), recycled0);
  EXPECT_GE(TupleArena::FreshBytes() - fresh0, 2u << 16);
}

TEST(TupleArenaTest, SteadyStateTupleChurnIsFreshAllocationFree) {
  auto make = [] {
    return Tuple::Make("ev", {Value::Str("n1"), Value::Int(7), Value::Int(9)});
  };
  // Warm the free lists: the first tuple populates every size class this shape
  // touches (field vector, shared tuple block).
  { TupleRef warm = make(); }
  uint64_t fresh0 = TupleArena::FreshBytes();
  for (int i = 0; i < 100; ++i) {
    TupleRef t = make();
    ASSERT_EQ(t->arity(), 3u);
  }
  // Every iteration frees exactly what it allocates, so the recycler satisfies
  // the whole loop: zero fresh heap bytes.
  EXPECT_EQ(TupleArena::FreshBytes(), fresh0);
}

#if defined(__SANITIZE_ADDRESS__)
// Recycled storage is poisoned while parked: writing through a dangling
// reference into a freed tuple's field vector must abort, exactly as it would
// for plain heap memory. Field 1 lies past the block's free-list link word.
TEST(TupleArenaDeathTest, WriteToFreedTupleFieldsAborts) {
  auto write_after_free = [] {
    TupleRef t = Tuple::Make("ev", {Value::Int(1), Value::Int(2), Value::Int(3)});
    Value* field = const_cast<Value*>(&t->field(1));
    t.reset();
    *field = Value::Int(4);
  };
  EXPECT_DEATH(write_after_free(), "use-after-poison");
}
#endif

// Rows evicted by the size bound stay alive for any holder of their TupleRef,
// even while the arena reuses the table's internal storage for new rows.
TEST(ArenaLifetimeTest, EvictedRowSurvivesArenaReuse) {
  TableSpec spec;
  spec.name = "small";
  spec.max_size = 2;
  spec.key_fields = {0};
  Table table(spec);
  table.Insert(Tuple::Make("small", {Value::Int(1), Value::Str("first")}), 0.0);
  TupleRef held = table.Scan(0.0)[0];
  // Evict the held row, then churn the arena hard enough to reuse its classes.
  for (int i = 2; i < 50; ++i) {
    table.Insert(
        Tuple::Make("small", {Value::Int(i), Value::Str("filler-" +
                                                        std::to_string(i))}),
        0.0);
  }
  EXPECT_EQ(table.Size(0.0), 2u);
  ASSERT_EQ(held->arity(), 2u);
  EXPECT_EQ(held->field(0), Value::Int(1));
  EXPECT_EQ(held->field(1), Value::Str("first"));
}

// Deleting and replacing rows from inside an iteration defers erasure
// (IterGuard): the walk still sees a consistent snapshot and every yielded
// TupleRef stays readable for the whole walk.
TEST(ArenaLifetimeTest, DeleteAndReplaceMidIterationKeepRowsReadable) {
  TableSpec spec;
  spec.name = "t";
  spec.key_fields = {0};
  Table table(spec);
  for (int i = 0; i < 8; ++i) {
    table.Insert(Tuple::Make("t", {Value::Int(i), Value::Str("payload")}), 0.0);
  }
  std::vector<TupleRef> seen;
  size_t yielded = table.ForEachLive(0.0, [&](const TupleRef& t) {
    seen.push_back(t);
    // Delete the row we are standing on and replace another one mid-walk.
    ValueList pattern = {t->field(0)};
    std::vector<bool> bound = {true};
    table.DeleteMatching(pattern, bound, 0.0);
    table.Insert(Tuple::Make("t", {Value::Int(3), Value::Str("replaced")}), 0.0);
    return true;
  });
  EXPECT_EQ(yielded, 8u);
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i]->field(0), Value::Int(static_cast<int64_t>(i)));
    // Key 3 was replaced before the walk reached its slot, so the walk yields
    // the replacement there; every yielded payload must still read cleanly
    // even though the arena has recycled the deleted rows' storage.
    EXPECT_EQ(seen[i]->field(1),
              i == 3 ? Value::Str("replaced") : Value::Str("payload"));
  }
}

// Tracer provenance (the tupleTable memo store) holds payload references of its
// own: evicting every source row and churning the arena must leave the memoized
// tuples intact and readable.
TEST(ArenaLifetimeTest, TracerPayloadsSurviveSourceEviction) {
  NodeOptions opts;
  opts.tracing = true;
  opts.introspection = false;
  Network net(NetworkConfig{0.01, 0.0, 0.0, 42});
  Node* node = net.AddNode("n1", opts);
  std::string error;
  ASSERT_TRUE(node->LoadProgram(
      "materialize(ev, infinity, 2, keys(1,2)).\n"
      "r1 out@N(X) :- ev@N(X).",
      &error))
      << error;
  for (int i = 0; i < 12; ++i) {
    node->InjectEvent(Tuple::Make("ev", {Value::Str("n1"), Value::Int(i)}));
    net.RunFor(0.05);
  }
  // The ev table kept only the last 2 rows; the memo store still resolves the
  // cause of every ruleExec record, including those whose source was evicted.
  size_t resolved = 0;
  for (const TupleRef& rec : node->TableContents("ruleExec")) {
    TupleRef cause = node->store().Lookup(rec->field(2).AsId());
    if (cause != nullptr) {
      ASSERT_GE(cause->arity(), 2u);
      EXPECT_EQ(cause->name(), "ev");
      EXPECT_EQ(cause->field(0), Value::Str("n1"));
      ++resolved;
    }
  }
  EXPECT_GT(resolved, 0u);
}

// Crash drops the node's queues and Recover restarts it: repeated cycles must
// not leak tuples (the refcounts release everything the queues held) and the
// recovered node must keep deriving correctly over recycled storage.
TEST(ArenaLifetimeTest, CrashRecoverCyclesNeitherLeakNorAlias) {
  NodeOptions opts;
  opts.introspection = false;
  Network net(NetworkConfig{0.01, 0.0, 0.0, 7});
  Node* node = net.AddNode("n1", opts);
  std::string error;
  ASSERT_TRUE(node->LoadProgram(
      "materialize(kv, infinity, 100, keys(1,2)).\n"
      "r1 kv@N(K, K) :- ev@N(K).",
      &error))
      << error;
  uint64_t live_after_first_cycle = 0;
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (int i = 0; i < 20; ++i) {
      node->InjectEvent(Tuple::Make("ev", {Value::Str("n1"), Value::Int(i)}));
    }
    net.RunFor(0.2);
    node->Crash();
    net.RunFor(0.2);
    node->Recover();
    net.RunFor(0.2);
    if (cycle == 0) {
      live_after_first_cycle = Tuple::LiveCount();
    }
  }
  // Steady state: later cycles allocate only what they release, so the live
  // tuple population cannot grow cycle over cycle.
  EXPECT_LE(Tuple::LiveCount(), live_after_first_cycle);
  // The recovered node still derives over (recycled) arena storage.
  node->InjectEvent(Tuple::Make("ev", {Value::Str("n1"), Value::Int(99)}));
  net.RunFor(0.2);
  bool found = false;
  for (const TupleRef& t : node->TableContents("kv")) {
    if (t->field(1) == Value::Int(99)) {
      found = true;
      EXPECT_EQ(t->field(2), Value::Int(99));
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace p2
