#include "storage/serde.h"

#include <cstring>

namespace ccdb {

namespace {

// Integers in [-kShortBound, kShortBound) take the short form: their
// zigzag code is below 2^63, so it still fits a u64 shifted left once.
constexpr int64_t kShortBound = int64_t{1} << 62;

}  // namespace

void Writer::PutU16(uint16_t v) {
  PutU8(static_cast<uint8_t>(v & 0xff));
  PutU8(static_cast<uint8_t>(v >> 8));
}

void Writer::PutU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) PutU8(static_cast<uint8_t>((v >> (8 * i)) & 0xff));
}

void Writer::PutU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) PutU8(static_cast<uint8_t>((v >> (8 * i)) & 0xff));
}

void Writer::PutVarint(uint64_t v) {
  while (v >= 0x80) {
    PutU8(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  PutU8(static_cast<uint8_t>(v));
}

void Writer::PutString(const std::string& s) {
  PutU32(static_cast<uint32_t>(s.size()));
  PutBytes(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

void Writer::PutVarString(const std::string& s) {
  PutVarint(s.size());
  PutBytes(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

void Writer::PutInteger(const BigInt& v) {
  Result<int64_t> small = v.ToInt64();
  if (small.ok() && *small >= -kShortBound && *small < kShortBound) {
    const uint64_t zigzag = (static_cast<uint64_t>(*small) << 1) ^
                            static_cast<uint64_t>(*small >> 63);
    PutVarint(zigzag << 1);
    return;
  }
  const std::vector<uint32_t> limbs = v.MagnitudeLimbs();
  PutVarint(uint64_t{limbs.size()} << 2 | (v.IsNegative() ? 2 : 0) | 1);
  for (uint32_t limb : limbs) PutU32(limb);
}

void Writer::PutRational(const Rational& r) {
  PutInteger(r.numerator());
  PutInteger(r.denominator());
}

void Writer::PutBytes(const uint8_t* data, size_t len) {
  buf_.insert(buf_.end(), data, data + len);
}

void Writer::PatchU32(size_t offset, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_[offset + i] = static_cast<uint8_t>((v >> (8 * i)) & 0xff);
  }
}

Status Reader::Need(size_t n) const {
  if (n > len_ - pos_) {
    return Status::IoError("record truncated: need " + std::to_string(n) +
                           " bytes, have " + std::to_string(len_ - pos_));
  }
  return Status::OK();
}

Result<uint8_t> Reader::GetU8() {
  CCDB_RETURN_IF_ERROR(Need(1));
  return data_[pos_++];
}

Result<uint16_t> Reader::GetU16() {
  CCDB_RETURN_IF_ERROR(Need(2));
  uint16_t v = static_cast<uint16_t>(data_[pos_]) |
               static_cast<uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

Result<uint32_t> Reader::GetU32() {
  CCDB_RETURN_IF_ERROR(Need(4));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

Result<uint64_t> Reader::GetU64() {
  CCDB_RETURN_IF_ERROR(Need(8));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

Result<uint64_t> Reader::GetVarint() {
  uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    CCDB_RETURN_IF_ERROR(Need(1));
    const uint8_t byte = data_[pos_++];
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) != 0) continue;
    if (shift > 0 && byte == 0) return Status::IoError("overlong varint");
    if (shift == 63 && byte > 1) {
      return Status::IoError("varint exceeds 64 bits");
    }
    return v;
  }
  return Status::IoError("varint longer than 10 bytes");
}

Result<std::string> Reader::GetString() {
  CCDB_ASSIGN_OR_RETURN(uint32_t len, GetU32());
  CCDB_RETURN_IF_ERROR(Need(len));
  std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return s;
}

Result<std::string> Reader::GetVarString() {
  CCDB_ASSIGN_OR_RETURN(uint64_t len, GetVarint());
  CCDB_RETURN_IF_ERROR(Need(len));
  std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return s;
}

Result<BigInt> Reader::GetInteger() {
  CCDB_ASSIGN_OR_RETURN(uint64_t head, GetVarint());
  if ((head & 1) == 0) {
    const uint64_t zigzag = head >> 1;
    return BigInt(static_cast<int64_t>(zigzag >> 1) ^
                  -static_cast<int64_t>(zigzag & 1));
  }
  const bool negative = (head & 2) != 0;
  const uint64_t n = head >> 2;
  // The short form holds everything below 2^62 in magnitude: two limbs
  // at least.
  if (n < 2 || n > remaining() / 4) {
    return Status::IoError("corrupt integer: " + std::to_string(n) + " limbs");
  }
  std::vector<uint32_t> limbs(n);
  for (uint32_t& limb : limbs) {
    CCDB_ASSIGN_OR_RETURN(limb, GetU32());
  }
  const uint64_t low = limbs[0] | uint64_t{limbs[1]} << 32;
  if (limbs.back() == 0 ||
      (n == 2 && (low < uint64_t{kShortBound} ||
                  (negative && low == uint64_t{kShortBound})))) {
    return Status::IoError("corrupt integer: escaped a short value");
  }
  return BigInt::FromLimbs(negative, std::move(limbs));
}

Result<Rational> Reader::GetRational() {
  CCDB_ASSIGN_OR_RETURN(BigInt n, GetInteger());
  CCDB_ASSIGN_OR_RETURN(BigInt d, GetInteger());
  if (d.Sign() <= 0 || !BigInt::Gcd(n, d).IsOne()) {
    return Status::IoError("corrupt rational: " + n.ToString() + "/" +
                           d.ToString() +
                           " is not over a positive, coprime denominator");
  }
  return Rational(std::move(n), std::move(d));
}

Result<Reader> Reader::GetView(size_t len) {
  CCDB_RETURN_IF_ERROR(Need(len));
  Reader view(data_ + pos_, len);
  pos_ += len;
  return view;
}

namespace {

// Value tags. Null is never stored: a tuple holds no entry for it.
constexpr uint8_t kValueString = 0;
constexpr uint8_t kValueNumber = 1;

void PutValue(Writer* w, const Value& v) {
  if (v.IsString()) {
    w->PutU8(kValueString);
    w->PutVarString(v.AsString());
  } else {
    w->PutU8(kValueNumber);
    w->PutRational(v.AsNumber());
  }
}

Result<Value> GetValue(Reader* r) {
  CCDB_ASSIGN_OR_RETURN(uint8_t tag, r->GetU8());
  switch (tag) {
    case kValueString: {
      CCDB_ASSIGN_OR_RETURN(std::string s, r->GetVarString());
      return Value::String(std::move(s));
    }
    case kValueNumber: {
      CCDB_ASSIGN_OR_RETURN(Rational q, r->GetRational());
      return Value::Number(std::move(q));
    }
    default:
      return Status::IoError("corrupt value tag " + std::to_string(tag));
  }
}

void PutConstraint(Writer* w, const Constraint& c) {
  w->PutU8(static_cast<uint8_t>(c.op()));
  w->PutVarint(c.expr().terms().size());
  for (const auto& [var, coeff] : c.expr().terms()) {
    w->PutVarString(var);
    w->PutInteger(coeff.numerator());
  }
  w->PutInteger(c.expr().constant().numerator());
}

Result<Constraint> GetConstraint(Reader* r) {
  CCDB_ASSIGN_OR_RETURN(uint8_t op, r->GetU8());
  if (op > static_cast<uint8_t>(ConstraintOp::kLt)) {
    return Status::IoError("corrupt constraint op " + std::to_string(op));
  }
  CCDB_ASSIGN_OR_RETURN(uint64_t nterms, r->GetVarint());
  LinearExpr expr;
  for (uint64_t i = 0; i < nterms; ++i) {
    CCDB_ASSIGN_OR_RETURN(std::string var, r->GetVarString());
    CCDB_ASSIGN_OR_RETURN(BigInt coeff, r->GetInteger());
    if (!expr.AppendTerm(std::move(var), Rational(std::move(coeff)))) {
      return Status::IoError(
          "corrupt constraint: a zero coefficient or an out-of-order name");
    }
  }
  CCDB_ASSIGN_OR_RETURN(BigInt constant, r->GetInteger());
  expr.SetConstant(Rational(std::move(constant)));
  Result<Constraint> c =
      Constraint::FromCanonical(std::move(expr), static_cast<ConstraintOp>(op));
  if (!c.ok()) {
    return Status::IoError("corrupt constraint: " + c.status().message());
  }
  return c;
}

}  // namespace

void PutTuple(Writer* w, const Tuple& tuple) {
  w->PutVarint(tuple.values().size());
  for (const auto& [name, value] : tuple.values()) {
    w->PutVarString(name);
    PutValue(w, value);
  }
  w->PutU8(tuple.constraints().IsKnownFalse() ? 1 : 0);
  w->PutVarint(tuple.constraints().constraints().size());
  for (const Constraint& c : tuple.constraints().constraints()) {
    PutConstraint(w, c);
  }
}

std::vector<uint8_t> SerializeTuple(const Tuple& tuple) {
  Writer w;
  PutTuple(&w, tuple);
  return w.TakeBuffer();
}

Result<Tuple> DeserializeTuple(Reader record) {
  Tuple tuple;
  CCDB_ASSIGN_OR_RETURN(uint64_t nvalues, record.GetVarint());
  for (uint64_t i = 0; i < nvalues; ++i) {
    CCDB_ASSIGN_OR_RETURN(std::string name, record.GetVarString());
    if (!tuple.values().empty() && !(tuple.values().rbegin()->first < name)) {
      return Status::IoError("corrupt tuple: value names out of order");
    }
    CCDB_ASSIGN_OR_RETURN(Value value, GetValue(&record));
    tuple.SetValue(name, std::move(value));
  }
  CCDB_ASSIGN_OR_RETURN(uint8_t known_false, record.GetU8());
  CCDB_ASSIGN_OR_RETURN(uint64_t nconstraints, record.GetVarint());
  if (known_false > 1 || (known_false == 1 && nconstraints != 0)) {
    return Status::IoError("corrupt tuple: bad known-false flag");
  }
  if (known_false) tuple.SetConstraints(Conjunction::False());
  // A store is written in store order and holds one bound per side, so
  // `Add` keeps each member and places it last: the member sorts strictly
  // after the last one, and the store grew by one (no bound was dropped or
  // replaced).
  const std::vector<Constraint>& members = tuple.constraints().constraints();
  for (uint64_t i = 0; i < nconstraints; ++i) {
    CCDB_ASSIGN_OR_RETURN(Constraint c, GetConstraint(&record));
    const bool after = members.empty() || members.back() < c;
    tuple.AddConstraint(std::move(c));
    if (!after || members.size() != i + 1) {
      return Status::IoError(
          "corrupt tuple: a constraint out of store order, repeated, or "
          "implied by another bound");
    }
  }
  if (!record.AtEnd()) {
    return Status::IoError("corrupt tuple: " +
                           std::to_string(record.remaining()) +
                           " bytes past its end");
  }
  return tuple;
}

Result<Tuple> DeserializeTuple(const std::vector<uint8_t>& bytes) {
  return DeserializeTuple(Reader(bytes));
}

void PutSchema(Writer* w, const Schema& schema) {
  w->PutVarint(schema.arity());
  for (const Attribute& attr : schema.attributes()) {
    w->PutVarString(attr.name);
    w->PutU8(static_cast<uint8_t>(attr.domain));
    w->PutU8(static_cast<uint8_t>(attr.kind));
  }
}

Result<Schema> GetSchema(Reader* r) {
  CCDB_ASSIGN_OR_RETURN(uint64_t arity, r->GetVarint());
  std::vector<Attribute> attrs;
  for (uint64_t i = 0; i < arity; ++i) {
    Attribute attr;
    CCDB_ASSIGN_OR_RETURN(attr.name, r->GetVarString());
    CCDB_ASSIGN_OR_RETURN(uint8_t domain, r->GetU8());
    CCDB_ASSIGN_OR_RETURN(uint8_t kind, r->GetU8());
    if (domain > static_cast<uint8_t>(AttributeDomain::kRational) ||
        kind > static_cast<uint8_t>(AttributeKind::kConstraint)) {
      return Status::IoError("corrupt schema attribute");
    }
    attr.domain = static_cast<AttributeDomain>(domain);
    attr.kind = static_cast<AttributeKind>(kind);
    attrs.push_back(std::move(attr));
  }
  return Schema::Make(std::move(attrs));
}

std::vector<uint8_t> SerializeSchema(const Schema& schema) {
  Writer w;
  PutSchema(&w, schema);
  return w.TakeBuffer();
}

Result<Schema> DeserializeSchema(const std::vector<uint8_t>& bytes) {
  Reader r(bytes);
  CCDB_ASSIGN_OR_RETURN(Schema schema, GetSchema(&r));
  if (!r.AtEnd()) return Status::IoError("corrupt schema: trailing bytes");
  return schema;
}

}  // namespace ccdb
