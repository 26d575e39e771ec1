#include "src/net/wire.h"

#include <cstring>

namespace p2 {

namespace {

void PutU8(uint8_t v, std::string* out) { out->push_back(static_cast<char>(v)); }

void PutU32(uint32_t v, std::string* out) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void PutU64(uint64_t v, std::string* out) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

void PutF64(double v, std::string* out) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

void PutStr(const std::string& s, std::string* out) {
  PutU32(static_cast<uint32_t>(s.size()), out);
  out->append(s);
}

// Decoding runs over a raw [p, end) cursor: each read checks the remaining span
// once, and decoded values are built in place in their final storage.
struct Cursor {
  const char* p;
  const char* end;
  size_t remaining() const { return static_cast<size_t>(end - p); }
};

bool ReadU8(Cursor* c, uint8_t* v) {
  if (c->remaining() < 1) {
    return false;
  }
  *v = static_cast<uint8_t>(*c->p);
  c->p += 1;
  return true;
}

bool ReadU32(Cursor* c, uint32_t* v) {
  if (c->remaining() < 4) {
    return false;
  }
  std::memcpy(v, c->p, 4);
  c->p += 4;
  return true;
}

bool ReadU64(Cursor* c, uint64_t* v) {
  if (c->remaining() < 8) {
    return false;
  }
  std::memcpy(v, c->p, 8);
  c->p += 8;
  return true;
}

bool ReadF64(Cursor* c, double* v) {
  if (c->remaining() < 8) {
    return false;
  }
  std::memcpy(v, c->p, 8);
  c->p += 8;
  return true;
}

bool ReadStr(Cursor* c, std::string* s) {
  uint32_t len = 0;
  if (!ReadU32(c, &len) || c->remaining() < len) {
    return false;
  }
  s->assign(c->p, len);
  c->p += len;
  return true;
}

// Decodes one value directly into `out` (typically a freshly default-constructed
// element already sitting in the tuple's field vector).
bool ReadValue(Cursor* c, Value* out) {
  uint8_t tag = 0;
  if (!ReadU8(c, &tag)) {
    return false;
  }
  switch (static_cast<Value::Kind>(tag)) {
    case Value::Kind::kNull:
      *out = Value::Null();
      return true;
    case Value::Kind::kBool: {
      uint8_t b = 0;
      if (!ReadU8(c, &b)) {
        return false;
      }
      *out = Value::Bool(b != 0);
      return true;
    }
    case Value::Kind::kInt: {
      uint64_t u = 0;
      if (!ReadU64(c, &u)) {
        return false;
      }
      *out = Value::Int(static_cast<int64_t>(u));
      return true;
    }
    case Value::Kind::kId: {
      uint64_t u = 0;
      if (!ReadU64(c, &u)) {
        return false;
      }
      *out = Value::Id(u);
      return true;
    }
    case Value::Kind::kDouble: {
      double d = 0;
      if (!ReadF64(c, &d)) {
        return false;
      }
      *out = Value::Double(d);
      return true;
    }
    case Value::Kind::kString: {
      std::string str;
      if (!ReadStr(c, &str)) {
        return false;
      }
      *out = Value::Str(std::move(str));
      return true;
    }
    case Value::Kind::kList: {
      uint32_t n = 0;
      if (!ReadU32(c, &n)) {
        return false;
      }
      // Cap list size against malformed lengths.
      if (n > 1u << 20) {
        return false;
      }
      ValueList items;
      items.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        items.emplace_back();
        if (!ReadValue(c, &items.back())) {
          return false;
        }
      }
      *out = Value::List(std::move(items));
      return true;
    }
  }
  return false;
}

bool ReadTuple(Cursor* c, TupleRef* out) {
  std::string name;
  uint32_t arity = 0;
  if (!ReadStr(c, &name) || !ReadU32(c, &arity) || arity > 1u << 16) {
    return false;
  }
  // Exact reserve: this vector is the row payload the receiver's table (and
  // the tracer's memo) will share — it is never re-grown or copied again.
  ValueList fields;
  fields.reserve(arity);
  for (uint32_t i = 0; i < arity; ++i) {
    fields.emplace_back();
    if (!ReadValue(c, &fields.back())) {
      return false;
    }
  }
  *out = Tuple::Make(std::move(name), std::move(fields));
  return true;
}

// Runs `read` on a cursor over in[*pos, end) and advances *pos past what it
// consumed on success.
template <typename Fn>
bool ReadAt(const std::string& in, size_t* pos, Fn read) {
  if (*pos > in.size()) {
    return false;
  }
  Cursor c{in.data() + *pos, in.data() + in.size()};
  if (!read(&c)) {
    return false;
  }
  *pos = static_cast<size_t>(c.p - in.data());
  return true;
}

}  // namespace

void EncodeValue(const Value& v, std::string* out) {
  PutU8(static_cast<uint8_t>(v.kind()), out);
  switch (v.kind()) {
    case Value::Kind::kNull:
      break;
    case Value::Kind::kBool:
      PutU8(v.AsBool() ? 1 : 0, out);
      break;
    case Value::Kind::kInt:
      PutU64(static_cast<uint64_t>(v.AsInt()), out);
      break;
    case Value::Kind::kId:
      PutU64(v.AsId(), out);
      break;
    case Value::Kind::kDouble:
      PutF64(v.AsDouble(), out);
      break;
    case Value::Kind::kString:
      PutStr(v.AsString(), out);
      break;
    case Value::Kind::kList: {
      const ValueList& items = v.AsList();
      PutU32(static_cast<uint32_t>(items.size()), out);
      for (const Value& item : items) {
        EncodeValue(item, out);
      }
      break;
    }
  }
}

bool DecodeValue(const std::string& in, size_t* pos, Value* out) {
  return ReadAt(in, pos, [out](Cursor* c) { return ReadValue(c, out); });
}

void EncodeTuple(const Tuple& t, std::string* out) {
  // ByteSize() over-approximates the encoded size, making the appends below
  // reallocation-free. Grow at least geometrically so loops encoding many tuples
  // into one buffer (snapshot export) stay amortized O(n).
  size_t need = out->size() + t.ByteSize() + 8;
  if (out->capacity() < need) {
    out->reserve(std::max(need, out->capacity() * 2));
  }
  PutStr(t.name(), out);
  PutU32(static_cast<uint32_t>(t.arity()), out);
  for (const Value& v : t.fields()) {
    EncodeValue(v, out);
  }
}

bool DecodeTuple(const std::string& in, size_t* pos, TupleRef* out) {
  return ReadAt(in, pos, [out](Cursor* c) { return ReadTuple(c, out); });
}

std::string EncodeEnvelope(const WireEnvelope& env) {
  std::string out;
  size_t tuple_size = env.is_ack ? 0 : env.tuple->ByteSize();
  out.reserve(1 + 8 + 8 + 4 + env.src_addr.size() + tuple_size + 32);
  uint8_t flags = 0;
  if (env.is_delete) {
    flags |= 1;
  }
  if (env.reliable) {
    flags |= 2;
  }
  if (env.is_ack) {
    flags |= 4;
  }
  PutU8(flags, &out);
  PutU64(env.src_tuple_id, &out);
  PutU64(env.bound_mask, &out);
  PutStr(env.src_addr, &out);
  if (env.reliable || env.is_ack) {
    PutU64(env.epoch, &out);
  }
  if (env.reliable) {
    PutU64(env.seq, &out);
  }
  if (env.is_ack) {
    PutU64(env.ack_seq, &out);
  } else {
    EncodeTuple(*env.tuple, &out);
  }
  return out;
}

bool DecodeEnvelope(const std::string& bytes, WireEnvelope* out) {
  Cursor c{bytes.data(), bytes.data() + bytes.size()};
  uint8_t flags = 0;
  if (!ReadU8(&c, &flags) || !ReadU64(&c, &out->src_tuple_id) ||
      !ReadU64(&c, &out->bound_mask) || !ReadStr(&c, &out->src_addr)) {
    return false;
  }
  out->is_delete = (flags & 1) != 0;
  out->reliable = (flags & 2) != 0;
  out->is_ack = (flags & 4) != 0;
  if ((out->reliable || out->is_ack) && !ReadU64(&c, &out->epoch)) {
    return false;
  }
  if (out->reliable && !ReadU64(&c, &out->seq)) {
    return false;
  }
  if (out->is_ack) {
    if (!ReadU64(&c, &out->ack_seq)) {
      return false;
    }
    out->tuple = TupleRef();
  } else if (!ReadTuple(&c, &out->tuple)) {
    return false;
  }
  return c.p == c.end;  // trailing bytes: corrupt
}

// ---- batched datagram frames ----

bool IsBatchFrame(const std::string& bytes) {
  return !bytes.empty() && static_cast<uint8_t>(bytes[0]) == kBatchFrameMagic;
}

void BatchFrameBuilder::Add(const std::string& envelope) {
  PutU32(static_cast<uint32_t>(envelope.size()), &payload_);
  payload_.append(envelope);
  ++count_;
}

size_t BatchFrameBuilder::frame_size() const {
  return 1 /*magic*/ + 1 /*version*/ + 4 /*count*/ + payload_.size();
}

std::string BatchFrameBuilder::Take() {
  std::string frame;
  frame.reserve(frame_size());
  PutU8(kBatchFrameMagic, &frame);
  PutU8(kBatchFrameVersion, &frame);
  PutU32(count_, &frame);
  frame.append(payload_);
  payload_.clear();
  count_ = 0;
  return frame;
}

std::string EncodeBatchFrame(const std::vector<std::string>& envelopes) {
  BatchFrameBuilder builder;
  for (const std::string& env : envelopes) {
    builder.Add(env);
  }
  return builder.Take();
}

bool DecodeBatchFrame(const std::string& frame, std::vector<std::string>* envelopes) {
  envelopes->clear();
  Cursor c{frame.data(), frame.data() + frame.size()};
  uint8_t magic = 0;
  uint8_t version = 0;
  uint32_t count = 0;
  if (!ReadU8(&c, &magic) || magic != kBatchFrameMagic || !ReadU8(&c, &version) ||
      version != kBatchFrameVersion || !ReadU32(&c, &count)) {
    return false;
  }
  // Each record costs at least its 4-byte length prefix; an impossible count is
  // rejected before any allocation.
  if (count > c.remaining() / 4) {
    return false;
  }
  envelopes->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::string env;
    if (!ReadStr(&c, &env)) {
      envelopes->clear();
      return false;
    }
    envelopes->push_back(std::move(env));
  }
  if (c.p != c.end) {  // trailing bytes: corrupt
    envelopes->clear();
    return false;
  }
  return true;
}

}  // namespace p2
