// Wire-decode robustness against a pinned corpus (docs/SCALING.md "Pinned golden
// digests"). Every input the suite feeds DecodeEnvelope — a hand-built case per
// value kind and flag combination, a seeded random property sweep over
// deep/nested tuples, every truncation of each valid envelope, and the
// malformed-input family (oversized length prefixes, bad tags, trailing
// garbage, byte soup, single-byte mutations) — contributes its accept/reject
// verdict and, when accepted, its envelope re-encoded to one FNV-1a digest per
// test. The digests were recorded while a second, layered decoder still
// existed and agreed with this one on every input; now the decoder must
// reproduce them. Rejection must also be clean, with no out-of-bounds reads
// (the ASan+UBSan CI job enforces that part).

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/net/wire.h"
#include "tests/golden_digests.h"

namespace p2 {
namespace {

// Structural envelope equality (WireEnvelope has no operator==).
void ExpectSameEnvelope(const WireEnvelope& a, const WireEnvelope& b) {
  EXPECT_EQ(a.src_addr, b.src_addr);
  EXPECT_EQ(a.src_tuple_id, b.src_tuple_id);
  EXPECT_EQ(a.is_delete, b.is_delete);
  EXPECT_EQ(a.bound_mask, b.bound_mask);
  EXPECT_EQ(a.reliable, b.reliable);
  EXPECT_EQ(a.is_ack, b.is_ack);
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.seq, b.seq);
  EXPECT_EQ(a.ack_seq, b.ack_seq);
  ASSERT_EQ(a.tuple == nullptr, b.tuple == nullptr);
  if (a.tuple != nullptr) {
    EXPECT_TRUE(*a.tuple == *b.tuple) << a.tuple->ToString() << " vs "
                                      << b.tuple->ToString();
  }
}

// The pinned decode corpus: every input's accept/reject verdict and, for each
// accepted input, its envelope re-encoded, folded into one FNV-1a digest.
struct Corpus {
  uint64_t digest = golden::kFnvOffset;

  bool Decode(const std::string& bytes, WireEnvelope* out) {
    bool accepted = DecodeEnvelope(bytes, out);
    digest = golden::Fnv1a(accepted ? "A" : "R", digest);
    if (accepted) {
      digest = golden::Fnv1a(EncodeEnvelope(*out), digest);
    }
    return accepted;
  }
  bool Decode(const std::string& bytes) {
    WireEnvelope out;
    return Decode(bytes, &out);
  }
};

// Round-trips `env` and additionally checks truncation at every prefix length:
// no prefix of a valid envelope is itself valid (every field is fixed-width or
// length-prefixed), and the decoder may not read past the prefix it was given.
void ExerciseEnvelope(const WireEnvelope& env, Corpus* corpus) {
  std::string bytes = EncodeEnvelope(env);
  WireEnvelope decoded;
  ASSERT_TRUE(corpus->Decode(bytes, &decoded));
  ExpectSameEnvelope(env, decoded);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(corpus->Decode(bytes.substr(0, cut))) << "cut=" << cut;
  }
  // Trailing garbage must be rejected.
  EXPECT_FALSE(corpus->Decode(bytes + std::string(1, '\0')));
  EXPECT_FALSE(corpus->Decode(bytes + "xyzzy"));
}

WireEnvelope DataEnvelope(TupleRef tuple) {
  WireEnvelope env;
  env.src_addr = "n12";
  env.src_tuple_id = 420000000017ULL;
  env.tuple = std::move(tuple);
  return env;
}

TEST(WireDecodeEquivalenceTest, EveryValueKindRoundTrips) {
  Corpus corpus;
  ExerciseEnvelope(DataEnvelope(Tuple::Make(
      "allKinds",
      {Value::Null(), Value::Bool(true), Value::Bool(false),
       Value::Int(-987654321098765LL), Value::Id(~0ULL),
       Value::Double(2.718281828e-9), Value::Str(""), Value::Str("short"),
       Value::Str(std::string(300, 'q')),
       Value::List({Value::Int(1), Value::Str("x"),
                    Value::List({Value::Id(7), Value::Null()})})})),
                   &corpus);
  EXPECT_GOLDEN(corpus.digest, kDecodeEveryValueKind);
}

TEST(WireDecodeEquivalenceTest, FlagCombinationsRoundTrip) {
  Corpus corpus;
  TupleRef t = Tuple::Make("ping", {Value::Str("n1"), Value::Id(5)});
  // Best-effort data.
  ExerciseEnvelope(DataEnvelope(t), &corpus);
  // Delete request with a partial bound mask.
  {
    WireEnvelope env = DataEnvelope(t);
    env.is_delete = true;
    env.bound_mask = 0b101;
    ExerciseEnvelope(env, &corpus);
  }
  // Reliable data (epoch + seq on the wire).
  {
    WireEnvelope env = DataEnvelope(t);
    env.reliable = true;
    env.epoch = 3;
    env.seq = 1234567;
    ExerciseEnvelope(env, &corpus);
  }
  // Reliable delete.
  {
    WireEnvelope env = DataEnvelope(t);
    env.reliable = true;
    env.is_delete = true;
    env.epoch = 9;
    env.seq = 2;
    ExerciseEnvelope(env, &corpus);
  }
  // Pure ack (no tuple at all).
  {
    WireEnvelope env;
    env.src_addr = "n7";
    env.is_ack = true;
    env.epoch = 11;
    env.ack_seq = 99;
    ExerciseEnvelope(env, &corpus);
  }
  EXPECT_GOLDEN(corpus.digest, kDecodeFlagCombinations);
}

TEST(WireDecodeEquivalenceTest, EmptyNameAndZeroArityRoundTrip) {
  Corpus corpus;
  ExerciseEnvelope(DataEnvelope(Tuple::Make("", {})), &corpus);
  ExerciseEnvelope(DataEnvelope(Tuple::Make("unit", {})), &corpus);
  EXPECT_GOLDEN(corpus.digest, kDecodeEmptyNameZeroArity);
}

// Seeded property sweep: random tuples (nested lists, all kinds, long strings)
// under random flag combinations. Every generated envelope is also truncated at
// every byte, so this sweeps several thousand decoder calls.
TEST(WireDecodeEquivalenceTest, RandomizedPropertySweep) {
  Corpus corpus;
  Rng rng(20260809);
  auto rand_string = [&](size_t max_len) {
    std::string s;
    size_t len = rng.NextBelow(max_len + 1);
    for (size_t i = 0; i < len; ++i) {
      s.push_back(static_cast<char>(rng.NextBelow(256)));
    }
    return s;
  };
  // depth bounds the list nesting so generation terminates.
  std::function<Value(int)> rand_value = [&](int depth) -> Value {
    switch (rng.NextBelow(depth > 0 ? 7 : 6)) {
      case 0:
        return Value::Null();
      case 1:
        return Value::Bool(rng.NextBelow(2) == 1);
      case 2:
        return Value::Int(static_cast<int64_t>(rng.NextBelow(~0ULL)));
      case 3:
        return Value::Id(rng.NextBelow(~0ULL));
      case 4:
        return Value::Double(rng.NextDouble() * 1e12 - 5e11);
      case 5:
        return Value::Str(rand_string(40));
      default: {
        ValueList items;
        size_t n = rng.NextBelow(4);
        for (size_t i = 0; i < n; ++i) {
          items.push_back(rand_value(depth - 1));
        }
        return Value::List(std::move(items));
      }
    }
  };
  for (int iter = 0; iter < 60; ++iter) {
    ValueList fields;
    size_t arity = rng.NextBelow(6);
    for (size_t i = 0; i < arity; ++i) {
      fields.push_back(rand_value(2));
    }
    WireEnvelope env;
    env.src_addr = rand_string(12);
    env.src_tuple_id = rng.NextBelow(~0ULL);
    env.bound_mask = rng.NextBelow(~0ULL);
    switch (rng.NextBelow(4)) {
      case 0:
        break;  // best-effort data
      case 1:
        env.is_delete = true;
        break;
      case 2:
        env.reliable = true;
        env.epoch = rng.NextBelow(100);
        env.seq = rng.NextBelow(1 << 20);
        break;
      default:
        env.is_ack = true;
        env.epoch = rng.NextBelow(100);
        env.ack_seq = rng.NextBelow(1 << 20);
        break;
    }
    if (!env.is_ack) {
      env.tuple = Tuple::Make(rand_string(10), std::move(fields));
    }
    ExerciseEnvelope(env, &corpus);
  }
  EXPECT_GOLDEN(corpus.digest, kDecodeRandomizedSweep);
}

// Malformed inputs with plausible-looking structure: each must be rejected
// without reading out of bounds.
TEST(WireDecodeEquivalenceTest, MalformedInputsRejectCleanly) {
  Corpus corpus;
  std::string valid = EncodeEnvelope(
      DataEnvelope(Tuple::Make("succ", {Value::Str("n2"), Value::Id(5)})));

  // Empty and sub-header-size inputs.
  EXPECT_FALSE(corpus.Decode(""));
  EXPECT_FALSE(corpus.Decode(std::string(1, '\0')));
  EXPECT_FALSE(corpus.Decode(std::string(16, '\0')));

  // Oversized src_addr length prefix: claims 4 GB of address.
  {
    std::string b = valid;
    b[17] = '\xff';
    b[18] = '\xff';
    b[19] = '\xff';
    b[20] = '\xff';
    EXPECT_FALSE(corpus.Decode(b));
  }

  // Oversized tuple-name length prefix (first field after the 3-byte addr).
  {
    std::string b = valid;
    size_t name_len_at = 1 + 8 + 8 + 4 + 3;  // flags, id, mask, addr len+bytes
    b[name_len_at] = '\xf0';
    b[name_len_at + 3] = '\x7f';
    EXPECT_FALSE(corpus.Decode(b));
  }

  // Arity cap: claims 2^20 fields.
  {
    std::string b = valid;
    size_t arity_at = 1 + 8 + 8 + 4 + 3 + 4 + 4;  // ... name len + "succ"
    b[arity_at] = '\x00';
    b[arity_at + 1] = '\x00';
    b[arity_at + 2] = '\x10';
    b[arity_at + 3] = '\x00';
    EXPECT_FALSE(corpus.Decode(b));
  }

  // Bad value tag: no Value::Kind has tag 0x6e.
  {
    std::string b = valid;
    size_t first_tag_at = 1 + 8 + 8 + 4 + 3 + 4 + 4 + 4;
    b[first_tag_at] = '\x6e';
    EXPECT_FALSE(corpus.Decode(b));
  }

  // Oversized list length inside a value: a list claiming 2^24 elements.
  {
    WireEnvelope env = DataEnvelope(
        Tuple::Make("l", {Value::List({Value::Int(1), Value::Int(2)})}));
    std::string b = EncodeEnvelope(env);
    size_t list_len_at = b.size() - (2 * 9 + 4);  // two int values + list count
    b[list_len_at] = '\x00';
    b[list_len_at + 1] = '\x00';
    b[list_len_at + 2] = '\x00';
    b[list_len_at + 3] = '\x01';
    EXPECT_FALSE(corpus.Decode(b));
  }

  // Random byte soup and single-byte corruption: whatever the verdict, it is
  // pinned by the corpus digest.
  Rng rng(77);
  for (int i = 0; i < 200; ++i) {
    std::string soup;
    size_t len = rng.NextBelow(80);
    for (size_t j = 0; j < len; ++j) {
      soup.push_back(static_cast<char>(rng.NextBelow(256)));
    }
    corpus.Decode(soup);
  }
  for (int i = 0; i < 300; ++i) {
    std::string b = valid;
    size_t at = rng.NextBelow(b.size());
    b[at] = static_cast<char>(rng.NextBelow(256));
    corpus.Decode(b);
  }
  EXPECT_GOLDEN(corpus.digest, kDecodeMalformedInputs);
}

}  // namespace
}  // namespace p2
