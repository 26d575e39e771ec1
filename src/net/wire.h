// Wire format for inter-node tuple transport.
//
// Tuples crossing the (simulated) network are genuinely serialized and deserialized —
// this is the "marshal / unmarshal" stage of P2's dataflow pre/postamble — so the
// benchmark message and byte counts reflect a real encoding, and the codec is testable
// for round-trip fidelity.
//
// Envelope layout (little-endian):
//   u8  flags (bit 0: delete request; bit 1: reliable data; bit 2: ack)
//   u64 source tuple id         (for tupleTable memoization at the receiver)
//   u64 delete bound mask       (bit i set: field i is a bound pattern position)
//   str source address
//   if reliable or ack: u64 channel epoch
//   if reliable:        u64 sequence number
//   if ack:             u64 cumulative ack (highest in-order sequence received)
//   unless ack:         tuple: str name, u32 arity, values
// Value: u8 kind tag + payload (varint-free, fixed-width for simplicity).
//
// Best-effort envelopes (flags bits 1-2 clear) encode byte-identically to the
// pre-reliability format, so fault-free best-effort traffic costs exactly what it
// always did (the Figure 4/5 overhead numbers are unchanged).

#ifndef SRC_NET_WIRE_H_
#define SRC_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/runtime/tuple.h"
#include "src/runtime/value.h"

namespace p2 {

// A message as it travels between nodes.
//
// `reliable` tuples carry a per-(src,dst) channel epoch and sequence number; the
// receiver delivers them in order exactly once per epoch and responds with cumulative
// acks (`is_ack` envelopes, which carry no tuple). Best-effort tuples leave all of
// that zero and encode exactly as before.
struct WireEnvelope {
  std::string src_addr;
  uint64_t src_tuple_id = 0;
  bool is_delete = false;
  uint64_t bound_mask = ~0ULL;
  bool reliable = false;   // data message on a reliable channel (epoch + seq valid)
  bool is_ack = false;     // pure ack: epoch + ack_seq valid, no tuple
  uint64_t epoch = 0;      // sender's channel epoch (bumped on failure/recovery)
  uint64_t seq = 0;        // per-channel sequence number (reliable data only)
  uint64_t ack_seq = 0;    // highest in-order sequence received (acks only)
  TupleRef tuple;
};

// Low-level codecs. DecodeValue / DecodeTuple read at `*pos` and advance it past
// what they consumed; on failure `*pos` is left unchanged. Snapshot export and
// forensics retention decode their stored tuples through these.
void EncodeValue(const Value& v, std::string* out);
bool DecodeValue(const std::string& in, size_t* pos, Value* out);
void EncodeTuple(const Tuple& t, std::string* out);
bool DecodeTuple(const std::string& in, size_t* pos, TupleRef* out);

// Envelope codec. Decode returns false on any malformed input, including
// trailing bytes. It is a single raw-pointer pass that materializes the tuple's
// name and fields straight into their final, arena-backed storage (the same
// storage the receiver's table row will share), copying each string payload
// exactly once from the wire buffer.
std::string EncodeEnvelope(const WireEnvelope& env);
bool DecodeEnvelope(const std::string& bytes, WireEnvelope* out);

// ---- batched datagram frames (real-socket transport, src/net/udp_driver.h) ----
//
// A batch frame coalesces every envelope bound for one destination within a pump
// iteration into a single datagram, cutting syscall and per-datagram header
// overhead on gossip-heavy monitors:
//
//   u8  magic    (kBatchFrameMagic)
//   u8  version  (kBatchFrameVersion)
//   u32 envelope count
//   count x { u32 length | envelope bytes (EncodeEnvelope output, verbatim) }
//
// Every real-socket sender frames its datagrams, even a lone envelope, so a
// receiver accepts only datagrams that pass IsBatchFrame and counts the rest as
// frame decode errors. A bare envelope starts with its flags byte, which only
// uses bits 0-2 (values 0..7), so it can never pass for the magic byte (>= 8).
// Sub-envelopes keep their exact per-envelope encoding — reliable/ack metadata
// rides along untouched, so the reliable transport is batching-agnostic. The
// simulated Network never frames (its per-message delivery is the determinism
// contract); only real-socket drivers do.
//
// DecodeBatchFrame is strict: wrong magic or version, a truncated or oversized
// sub-envelope length, a count mismatch, and trailing bytes all fail.

inline constexpr uint8_t kBatchFrameMagic = 0xB7;
inline constexpr uint8_t kBatchFrameVersion = 1;

// True if `bytes` begins with the batch-frame magic (cheap receive dispatch).
bool IsBatchFrame(const std::string& bytes);

// Accumulates encoded envelopes bound for one destination into a single frame.
class BatchFrameBuilder {
 public:
  void Add(const std::string& envelope);
  size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  // Size of the datagram Take() would produce now (header included).
  size_t frame_size() const;
  // Bytes Add(envelope) would grow the frame by.
  static size_t CostOf(const std::string& envelope) { return 4 + envelope.size(); }
  // Returns the completed frame and resets the builder for reuse.
  std::string Take();

 private:
  std::string payload_;  // concatenated { u32 length | bytes } records
  uint32_t count_ = 0;
};

// One-shot encoder (tests, simple senders).
std::string EncodeBatchFrame(const std::vector<std::string>& envelopes);

// Splits a frame back into envelope byte strings. Returns false on any
// malformed input; `envelopes` is left empty in that case.
bool DecodeBatchFrame(const std::string& frame, std::vector<std::string>* envelopes);

}  // namespace p2

#endif  // SRC_NET_WIRE_H_
