#include "src/net/wire.h"

#include <gtest/gtest.h>

namespace p2 {
namespace {

void RoundTripValue(const Value& v) {
  std::string bytes;
  EncodeValue(v, &bytes);
  size_t pos = 0;
  Value out;
  ASSERT_TRUE(DecodeValue(bytes, &pos, &out)) << v.ToString();
  EXPECT_EQ(pos, bytes.size());
  EXPECT_EQ(out.kind(), v.kind());
  EXPECT_EQ(out, v);
}

TEST(WireTest, ValueRoundTrips) {
  RoundTripValue(Value::Null());
  RoundTripValue(Value::Bool(true));
  RoundTripValue(Value::Bool(false));
  RoundTripValue(Value::Int(-1234567890123));
  RoundTripValue(Value::Id(~0ULL));
  RoundTripValue(Value::Double(3.14159e-7));
  RoundTripValue(Value::Str(""));
  RoundTripValue(Value::Str("hello \"world\"\n"));
  RoundTripValue(Value::List({Value::Int(1), Value::Str("x"),
                              Value::List({Value::Id(7)})}));
}

TEST(WireTest, TupleRoundTrips) {
  TupleRef t = Tuple::Make(
      "lookupResults", {Value::Str("n3"), Value::Id(42), Value::Id(17),
                        Value::Str("n5"), Value::Id(999), Value::Str("n9")});
  std::string bytes;
  EncodeTuple(*t, &bytes);
  size_t pos = 0;
  TupleRef out;
  ASSERT_TRUE(DecodeTuple(bytes, &pos, &out));
  EXPECT_TRUE(*out == *t);
}

TEST(WireTest, EnvelopeRoundTrips) {
  WireEnvelope env;
  env.src_addr = "n1";
  env.src_tuple_id = 77;
  env.is_delete = true;
  env.bound_mask = 0b1011;
  env.tuple = Tuple::Make("succ", {Value::Str("n2"), Value::Id(5), Value::Str("n3")});
  std::string bytes = EncodeEnvelope(env);
  WireEnvelope out;
  ASSERT_TRUE(DecodeEnvelope(bytes, &out));
  EXPECT_EQ(out.src_addr, "n1");
  EXPECT_EQ(out.src_tuple_id, 77u);
  EXPECT_TRUE(out.is_delete);
  EXPECT_EQ(out.bound_mask, 0b1011u);
  EXPECT_TRUE(*out.tuple == *env.tuple);
}

TEST(WireTest, ReliableEnvelopeRoundTrips) {
  WireEnvelope env;
  env.src_addr = "n1";
  env.reliable = true;
  env.epoch = 3;
  env.seq = 41;
  env.tuple = Tuple::Make("marker", {Value::Str("n2"), Value::Int(7)});
  std::string bytes = EncodeEnvelope(env);
  WireEnvelope out;
  ASSERT_TRUE(DecodeEnvelope(bytes, &out));
  EXPECT_TRUE(out.reliable);
  EXPECT_FALSE(out.is_ack);
  EXPECT_EQ(out.epoch, 3u);
  EXPECT_EQ(out.seq, 41u);
  EXPECT_TRUE(*out.tuple == *env.tuple);
}

TEST(WireTest, AckEnvelopeRoundTripsWithoutTuple) {
  WireEnvelope env;
  env.src_addr = "n1";
  env.is_ack = true;
  env.epoch = 2;
  env.ack_seq = 17;
  std::string bytes = EncodeEnvelope(env);
  WireEnvelope out;
  ASSERT_TRUE(DecodeEnvelope(bytes, &out));
  EXPECT_TRUE(out.is_ack);
  EXPECT_FALSE(out.reliable);
  EXPECT_EQ(out.epoch, 2u);
  EXPECT_EQ(out.ack_seq, 17u);
  EXPECT_EQ(out.tuple, TupleRef());
}

TEST(WireTest, BestEffortEncodingIsUnchangedByReliableFields) {
  // A plain envelope must stay byte-identical to the pre-reliable-transport wire
  // format (flags byte 0, no epoch/seq), so faults-off byte counters match
  // historical baselines. A reliable one costs exactly epoch + seq (16 bytes).
  WireEnvelope plain;
  plain.src_addr = "n1";
  plain.tuple = Tuple::Make("x", {Value::Str("n2"), Value::Int(1)});
  std::string plain_bytes = EncodeEnvelope(plain);
  EXPECT_EQ(plain_bytes[0], 0);  // no flag bits set

  WireEnvelope rel = plain;
  rel.reliable = true;
  rel.epoch = 1;
  rel.seq = 1;
  EXPECT_EQ(EncodeEnvelope(rel).size(), plain_bytes.size() + 16);
}

TEST(WireTest, TruncatedReliableAndAckInputRejected) {
  WireEnvelope env;
  env.src_addr = "n1";
  env.reliable = true;
  env.epoch = 1;
  env.seq = 2;
  env.tuple = Tuple::Make("x", {Value::Str("n2")});
  std::string bytes = EncodeEnvelope(env);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    WireEnvelope out;
    EXPECT_FALSE(DecodeEnvelope(bytes.substr(0, cut), &out)) << cut;
  }
  WireEnvelope ack;
  ack.src_addr = "n1";
  ack.is_ack = true;
  ack.epoch = 1;
  ack.ack_seq = 2;
  bytes = EncodeEnvelope(ack);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    WireEnvelope out;
    EXPECT_FALSE(DecodeEnvelope(bytes.substr(0, cut), &out)) << cut;
  }
}

TEST(WireTest, TruncatedInputRejected) {
  WireEnvelope env;
  env.src_addr = "n1";
  env.tuple = Tuple::Make("x", {Value::Str("n2"), Value::Int(1)});
  std::string bytes = EncodeEnvelope(env);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    WireEnvelope out;
    EXPECT_FALSE(DecodeEnvelope(bytes.substr(0, cut), &out)) << cut;
  }
}

TEST(WireTest, TrailingGarbageRejected) {
  WireEnvelope env;
  env.src_addr = "n1";
  env.tuple = Tuple::Make("x", {Value::Str("n2")});
  std::string bytes = EncodeEnvelope(env) + "zz";
  WireEnvelope out;
  EXPECT_FALSE(DecodeEnvelope(bytes, &out));
}

TEST(WireTest, MalformedTagRejected) {
  std::string bytes = "\xFF";
  size_t pos = 0;
  Value out;
  EXPECT_FALSE(DecodeValue(bytes, &pos, &out));
}

TEST(WireTest, OversizedListLengthRejected) {
  // kind=kList with a huge count but no payload.
  std::string bytes;
  bytes.push_back(6);  // Kind::kList
  uint32_t huge = 0x7fffffff;
  bytes.append(reinterpret_cast<const char*>(&huge), 4);
  size_t pos = 0;
  Value out;
  EXPECT_FALSE(DecodeValue(bytes, &pos, &out));
}

// ---- batched wire frames (docs/DEPLOYMENT.md) ----

std::vector<std::string> SampleEnvelopes(int n) {
  std::vector<std::string> out;
  for (int i = 0; i < n; ++i) {
    WireEnvelope env;
    env.src_addr = "n" + std::to_string(i);
    if (i % 3 == 1) {
      env.reliable = true;
      env.epoch = 4;
      env.seq = static_cast<uint64_t>(i);
    } else if (i % 3 == 2) {
      env.is_ack = true;
      env.epoch = 4;
      env.ack_seq = static_cast<uint64_t>(i);
    }
    if (!env.is_ack) {
      env.tuple = Tuple::Make("x", {Value::Str("dst"), Value::Int(i)});
    }
    out.push_back(EncodeEnvelope(env));
  }
  return out;
}

TEST(WireTest, BatchFrameRoundTripsByteExact) {
  // N envelopes (plain, reliable, and ack mixed) -> one datagram -> the same N
  // byte strings, in order. Sub-envelopes are opaque to the frame, so reliable
  // seq/ack metadata rides along untouched.
  std::vector<std::string> envs = SampleEnvelopes(7);
  std::string frame = EncodeBatchFrame(envs);
  ASSERT_TRUE(IsBatchFrame(frame));
  std::vector<std::string> out;
  ASSERT_TRUE(DecodeBatchFrame(frame, &out));
  ASSERT_EQ(out.size(), envs.size());
  for (size_t i = 0; i < envs.size(); ++i) {
    EXPECT_EQ(out[i], envs[i]) << "sub-envelope " << i << " not byte-exact";
  }
}

TEST(WireTest, BatchFrameBuilderMatchesEncode) {
  std::vector<std::string> envs = SampleEnvelopes(5);
  BatchFrameBuilder builder;
  size_t expect_size = 6;  // magic + version + count
  for (const std::string& e : envs) {
    expect_size += BatchFrameBuilder::CostOf(e);
    builder.Add(e);
  }
  EXPECT_EQ(builder.count(), envs.size());
  EXPECT_EQ(builder.frame_size(), expect_size);
  std::string frame = builder.Take();
  EXPECT_EQ(frame, EncodeBatchFrame(envs));
  EXPECT_TRUE(builder.empty());  // Take resets the builder for reuse
}

TEST(WireTest, BatchFrameFirstByteNeverCollidesWithEnvelopes) {
  // Receivers accept only framed datagrams: a bare envelope starts with a flags
  // byte in [0, 8), so it can never pass for the 0xB7 frame magic.
  for (const std::string& e : SampleEnvelopes(6)) {
    EXPECT_FALSE(IsBatchFrame(e));
    EXPECT_LT(static_cast<uint8_t>(e[0]), 8);
  }
  EXPECT_TRUE(IsBatchFrame(EncodeBatchFrame(SampleEnvelopes(1))));
}

TEST(WireTest, TruncatedBatchFrameRejected) {
  std::string frame = EncodeBatchFrame(SampleEnvelopes(3));
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    std::vector<std::string> out;
    EXPECT_FALSE(DecodeBatchFrame(frame.substr(0, cut), &out)) << cut;
    EXPECT_TRUE(out.empty()) << "failed decode must not leak partial results";
  }
}

TEST(WireTest, BatchFrameTrailingBytesRejected) {
  std::string frame = EncodeBatchFrame(SampleEnvelopes(2)) + "z";
  std::vector<std::string> out;
  EXPECT_FALSE(DecodeBatchFrame(frame, &out));
}

TEST(WireTest, BatchFrameVersionMismatchRejected) {
  std::string frame = EncodeBatchFrame(SampleEnvelopes(2));
  frame[1] = static_cast<char>(kBatchFrameVersion + 1);
  std::vector<std::string> out;
  EXPECT_FALSE(DecodeBatchFrame(frame, &out));
}

TEST(WireTest, BatchFrameCorruptCountRejected) {
  std::string frame = EncodeBatchFrame(SampleEnvelopes(2));
  // Claim far more records than the payload can hold.
  frame[2] = '\xff';
  frame[3] = '\xff';
  frame[4] = '\xff';
  frame[5] = '\x7f';
  std::vector<std::string> out;
  EXPECT_FALSE(DecodeBatchFrame(frame, &out));
}

TEST(WireTest, EmptyBatchFrameRoundTrips) {
  std::string frame = EncodeBatchFrame({});
  std::vector<std::string> out{"sentinel"};
  ASSERT_TRUE(DecodeBatchFrame(frame, &out));
  EXPECT_TRUE(out.empty());
}

}  // namespace
}  // namespace p2
