#ifndef CCDB_STORAGE_SERDE_H_
#define CCDB_STORAGE_SERDE_H_

/// \file serde.h
/// Binary serialization primitives plus tuple/schema codecs.
///
/// Fixed-width fields are little-endian. Counts and the lengths of names
/// and string values are LEB128 varints. An integer is exact at any
/// magnitude (FM grows coefficients past every fixed width, and the
/// closure principle needs them back unchanged): one varint holding its
/// zigzag code shifted left once when it lies in [-2^62, 2^62), else a
/// varint with the escape bit 0 set, the sign in bit 1 and the limb count
/// above, followed by the magnitude's little-endian u32 limbs. A rational
/// is an integer numerator and an integer denominator.
///
/// A tuple record is
///
///     varint n_values, n_values x (name, u8 tag, string | rational)
///     u8 known_false
///     varint n_constraints, n_constraints x
///         (u8 op, varint n_terms, n_terms x (name, integer), integer)
///
/// with names and string values as varint length + bytes. Every stored
/// constraint is canonical, so its coefficients and constant are written
/// as integers and the decoder checks that form
/// (`Constraint::FromCanonical`) instead of recomputing it. Constraints
/// are written in store order and a store keeps one bound per side
/// (`Conjunction::Add`), so each member must sort strictly after the one
/// before it and `Add` must keep it. Anything `SerializeTuple` would not
/// write, including any non-canonical constraint, a member out of order
/// or implied by another bound, and any byte left over, is refused with
/// kIoError.

#include <cstdint>
#include <string>
#include <vector>

#include "data/relation.h"
#include "util/status.h"

namespace ccdb {

/// Append-only byte sink.
class Writer {
 public:
  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU16(uint16_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutVarint(uint64_t v);              // LEB128, 1 to 10 bytes
  void PutString(const std::string& s);    // u32 length + bytes
  void PutVarString(const std::string& s); // varint length + bytes
  void PutInteger(const BigInt& v);        // see the file comment
  void PutRational(const Rational& r);     // numerator + denominator
  void PutBytes(const uint8_t* data, size_t len);

  /// Overwrites the u32 at `offset`, e.g. a length written before its body.
  void PatchU32(size_t offset, uint32_t v);

  const std::vector<uint8_t>& buffer() const { return buf_; }
  std::vector<uint8_t> TakeBuffer() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  std::vector<uint8_t> buf_;
};

/// Bounds-checked byte source. Every getter fails with kIoError on
/// truncated or malformed input.
class Reader {
 public:
  Reader(const uint8_t* data, size_t len) : data_(data), len_(len) {}
  explicit Reader(const std::vector<uint8_t>& buf)
      : Reader(buf.data(), buf.size()) {}

  Result<uint8_t> GetU8();
  Result<uint16_t> GetU16();
  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  /// Refuses varints over 10 bytes, past 64 bits, or with a zero last
  /// byte after the first (an overlong encoding).
  Result<uint64_t> GetVarint();
  Result<std::string> GetString();
  Result<std::string> GetVarString();
  /// Refuses an escaped integer that the short form holds, or whose top
  /// limb is zero: each value has one encoding.
  Result<BigInt> GetInteger();
  /// Refuses a denominator that is not positive or shares a factor with
  /// the numerator.
  Result<Rational> GetRational();

  /// The next `len` bytes as a reader of their own; this one skips them.
  Result<Reader> GetView(size_t len);

  size_t remaining() const { return len_ - pos_; }
  bool AtEnd() const { return pos_ == len_; }

 private:
  Status Need(size_t n) const;

  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
};

/// Appends one tuple record (layout in the file comment).
void PutTuple(Writer* w, const Tuple& tuple);
/// One tuple record as its own buffer.
std::vector<uint8_t> SerializeTuple(const Tuple& tuple);
/// Inverse of PutTuple over a whole record: the reader must end where the
/// record does.
Result<Tuple> DeserializeTuple(Reader record);
Result<Tuple> DeserializeTuple(const std::vector<uint8_t>& bytes);

/// Schema codec (catalog records and relations on the wire): varint
/// arity, then per attribute its name, u8 domain and u8 kind.
void PutSchema(Writer* w, const Schema& schema);
Result<Schema> GetSchema(Reader* r);
std::vector<uint8_t> SerializeSchema(const Schema& schema);
Result<Schema> DeserializeSchema(const std::vector<uint8_t>& bytes);

}  // namespace ccdb

#endif  // CCDB_STORAGE_SERDE_H_
