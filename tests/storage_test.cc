#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/heap_file.h"
#include "storage/pager.h"
#include "storage/serde.h"
#include "util/random.h"

namespace ccdb {
namespace {

// --- PageManager ----------------------------------------------------------------

TEST(PageManagerTest, AllocateReadWrite) {
  PageManager pm;
  PageId a = pm.Allocate();
  PageId b = pm.Allocate();
  EXPECT_NE(a, b);
  EXPECT_EQ(pm.num_pages(), 2u);

  Page page;
  page.bytes()[0] = 0xAB;
  ASSERT_TRUE(pm.Write(a, page).ok());
  Page read;
  ASSERT_TRUE(pm.Read(a, &read).ok());
  EXPECT_EQ(read.bytes()[0], 0xAB);
  Page fresh;
  ASSERT_TRUE(pm.Read(b, &fresh).ok());
  EXPECT_EQ(fresh.bytes()[0], 0) << "new pages are zeroed";
}

TEST(PageManagerTest, CountsAccesses) {
  PageManager pm;
  PageId a = pm.Allocate();
  Page page;
  ASSERT_TRUE(pm.Read(a, &page).ok());
  ASSERT_TRUE(pm.Read(a, &page).ok());
  ASSERT_TRUE(pm.Write(a, page).ok());
  EXPECT_EQ(pm.stats().reads, 2u);
  EXPECT_EQ(pm.stats().writes, 1u);
  EXPECT_EQ(pm.stats().allocations, 1u);
  pm.ResetStats();
  EXPECT_EQ(pm.stats().total_accesses(), 0u);
}

TEST(PageManagerTest, RejectsUnallocatedAccess) {
  PageManager pm;
  Page page;
  EXPECT_FALSE(pm.Read(0, &page).ok());
  EXPECT_FALSE(pm.Write(5, page).ok());
}

// --- BufferPool -----------------------------------------------------------------

TEST(BufferPoolTest, PassThroughWhenCapacityZero) {
  PageManager pm;
  BufferPool pool(&pm, 0);
  PageId a = pm.Allocate();
  Page page;
  ASSERT_TRUE(pool.Get(a, &page).ok());
  ASSERT_TRUE(pool.Get(a, &page).ok());
  EXPECT_EQ(pm.stats().reads, 2u) << "no caching at capacity 0";
  EXPECT_EQ(pool.stats().misses, 2u);
  EXPECT_EQ(pool.stats().hits, 0u);
}

TEST(BufferPoolTest, CachesAndEvictsLru) {
  PageManager pm;
  BufferPool pool(&pm, 2);
  PageId a = pm.Allocate(), b = pm.Allocate(), c = pm.Allocate();
  Page page;
  ASSERT_TRUE(pool.Get(a, &page).ok());  // miss
  ASSERT_TRUE(pool.Get(a, &page).ok());  // hit
  ASSERT_TRUE(pool.Get(b, &page).ok());  // miss
  ASSERT_TRUE(pool.Get(c, &page).ok());  // miss, evicts a (LRU)
  ASSERT_TRUE(pool.Get(b, &page).ok());  // hit
  ASSERT_TRUE(pool.Get(a, &page).ok());  // miss again
  EXPECT_EQ(pool.stats().hits, 2u);
  EXPECT_EQ(pool.stats().misses, 4u);
  EXPECT_EQ(pm.stats().reads, 4u);
}

TEST(BufferPoolTest, WriteThroughKeepsCacheCoherent) {
  PageManager pm;
  BufferPool pool(&pm, 4);
  PageId a = pm.Allocate();
  Page page;
  ASSERT_TRUE(pool.Get(a, &page).ok());
  page.bytes()[7] = 42;
  ASSERT_TRUE(pool.Put(a, page).ok());
  EXPECT_EQ(pm.stats().writes, 1u) << "write-through hits the disk";
  Page reread;
  ASSERT_TRUE(pool.Get(a, &reread).ok());
  EXPECT_EQ(reread.bytes()[7], 42);
  EXPECT_EQ(pm.stats().reads, 1u) << "second read served from cache";
}

// --- Serde ----------------------------------------------------------------------

TEST(SerdeTest, PrimitivesRoundTrip) {
  Writer w;
  w.PutU8(7);
  w.PutU16(65535);
  w.PutU32(123456789);
  w.PutU64(0xDEADBEEFCAFEBABEULL);
  w.PutString("hello");
  w.PutRational(Rational(-22, 7));
  w.PutVarint(300);
  w.PutVarint(~uint64_t{0});
  w.PutVarString("vari");

  Reader r(w.buffer());
  EXPECT_EQ(r.GetU8().value(), 7);
  EXPECT_EQ(r.GetU16().value(), 65535);
  EXPECT_EQ(r.GetU32().value(), 123456789u);
  EXPECT_EQ(r.GetU64().value(), 0xDEADBEEFCAFEBABEULL);
  EXPECT_EQ(r.GetString().value(), "hello");
  EXPECT_EQ(r.GetRational().value(), Rational(-22, 7));
  EXPECT_EQ(r.GetVarint().value(), 300u);
  EXPECT_EQ(r.GetVarint().value(), ~uint64_t{0});
  EXPECT_EQ(r.GetVarString().value(), "vari");
  EXPECT_TRUE(r.AtEnd());
}

std::string Hex(const std::vector<uint8_t>& bytes) {
  std::string hex;
  for (uint8_t byte : bytes) {
    hex += "0123456789abcdef"[byte >> 4];
    hex += "0123456789abcdef"[byte & 0xf];
  }
  return hex;
}

TEST(SerdeTest, IntegersTakeTheShortFormBelowTwoToThe62) {
  // Short: the zigzag code shifted left once. Escaped: bit 0 set, the
  // sign in bit 1, the limb count above, then little-endian u32 limbs.
  const BigInt two62 = BigInt::Pow(BigInt(2), 62);
  const BigInt two63 = BigInt::Pow(BigInt(2), 63);
  const struct {
    BigInt value;
    std::string hex;
  } cases[] = {
      {BigInt(0), "00"},
      {BigInt(-1), "02"},
      {BigInt(1), "04"},
      {BigInt(-64), "fe01"},
      {two62 - BigInt(1), "fcffffffffffffffff01"},
      {-(two62 - BigInt(1)), "faffffffffffffffff01"},
      {-two62, "feffffffffffffffff01"},
      {two62, "090000000000000040"},
      {-two62 - BigInt(1), "0b0100000000000040"},
      {two63, "090000000000000080"},
      {-two63, "0b0000000000000080"},
      {BigInt::Pow(BigInt(10), 30), "1100000040eaed7446d09c2c9f0c000000"},
      {-BigInt::Pow(BigInt(10), 30), "1300000040eaed7446d09c2c9f0c000000"},
  };
  for (const auto& c : cases) {
    Writer w;
    w.PutInteger(c.value);
    EXPECT_EQ(Hex(w.buffer()), c.hex) << c.value;
    Reader r(w.buffer());
    auto back = r.GetInteger();
    ASSERT_TRUE(back.ok()) << c.value << ": " << back.status().ToString();
    EXPECT_EQ(*back, c.value);
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(SerdeTest, ReaderRefusesNonCanonicalNumbers) {
  auto integer = [](std::vector<uint8_t> bytes) {
    Reader r(bytes);
    return r.GetInteger().status().code();
  };
  // 2^62 - 1 escaped instead of short, and a zero top limb.
  EXPECT_EQ(integer({0x09, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x3f}),
            StatusCode::kIoError);
  EXPECT_EQ(integer({0x0d, 0, 0, 0, 0, 0, 0, 0, 0x40, 0, 0, 0, 0}),
            StatusCode::kIoError);
  // -2^62 escaped; one limb.
  EXPECT_EQ(integer({0x0b, 0, 0, 0, 0, 0, 0, 0, 0x40}), StatusCode::kIoError);
  EXPECT_EQ(integer({0x05, 1, 0, 0, 0}), StatusCode::kIoError);
  // An overlong varint (zero after a continuation byte).
  EXPECT_EQ(integer({0x84, 0x00}), StatusCode::kIoError);
  // Rationals: a zero or negative denominator, or not in lowest terms.
  auto rational = [](int64_t n, int64_t d) {
    Writer w;
    w.PutInteger(BigInt(n));
    w.PutInteger(BigInt(d));
    Reader r(w.buffer());
    return r.GetRational().status().code();
  };
  EXPECT_EQ(rational(1, 0), StatusCode::kIoError);
  EXPECT_EQ(rational(1, -2), StatusCode::kIoError);
  EXPECT_EQ(rational(2, 4), StatusCode::kIoError);
  EXPECT_EQ(rational(0, 3), StatusCode::kIoError);
  EXPECT_EQ(rational(-3, 4), StatusCode::kOk);
}

TEST(SerdeTest, ReaderRejectsTruncation) {
  Writer w;
  w.PutU32(100);  // claims a 100-byte string follows
  Reader r(w.buffer());
  EXPECT_FALSE(r.GetString().ok());
  Reader r2(w.buffer().data(), 2);
  EXPECT_FALSE(r2.GetU32().ok());
}

TEST(SerdeTest, TupleRoundTripsExactly) {
  Tuple t;
  t.SetValue("name", Value::String("Khalid"));
  t.SetValue("score", Value::Number(Rational(-7, 3)));
  t.AddConstraint(Constraint::Le(
      LinearExpr::Term("x", Rational(2)) + LinearExpr::Variable("y"),
      LinearExpr::Constant(Rational(5, 2))));
  t.AddConstraint(Constraint::Eq(LinearExpr::Variable("t"),
                                 LinearExpr::Constant(Rational(4))));

  auto bytes = SerializeTuple(t);
  auto back = DeserializeTuple(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, t);
}

TEST(SerdeTest, TupleWithHugeCoefficientsRoundTrips) {
  // BigInt coefficients beyond 64 bits must survive storage exactly.
  Rational huge(BigInt::FromString("123456789012345678901234567890").value(),
                BigInt::FromString("98765432109876543210987").value());
  Tuple t;
  t.AddConstraint(Constraint::Le(LinearExpr::Term("x", huge),
                                 LinearExpr::Constant(Rational(1))));
  auto back = DeserializeTuple(SerializeTuple(t));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, t);
}

TEST(SerdeTest, KnownFalseTupleRoundTrips) {
  Tuple t;
  t.SetConstraints(Conjunction::False());
  auto back = DeserializeTuple(SerializeTuple(t));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->constraints().IsKnownFalse());
}

TEST(SerdeTest, SchemaRoundTrips) {
  Schema s = Schema::Make({Schema::RelationalString("landId"),
                           Schema::ConstraintRational("x"),
                           Schema::RelationalRational("pop")})
                 .value();
  auto back = DeserializeSchema(SerializeSchema(s));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, s);
}

TEST(SerdeTest, BoxTupleBytesArePinned) {
  // 3 <= x <= 7, 2 <= y <= 5, owner "A": one value (name, string tag 0,
  // string), then the known-false flag and four `<=` constraints in store
  // order, each op, term count, name, coefficient and constant, with
  // integers as shifted zigzag varints (-1 -> 02, 1 -> 04, 3 -> 0c).
  Tuple t;
  t.SetValue("id", Value::String("A"));
  t.AddConstraint(Constraint::Ge(LinearExpr::Variable("x"),
                                 LinearExpr::Constant(Rational(3))));
  t.AddConstraint(Constraint::Le(LinearExpr::Variable("x"),
                                 LinearExpr::Constant(Rational(7))));
  t.AddConstraint(Constraint::Ge(LinearExpr::Variable("y"),
                                 LinearExpr::Constant(Rational(2))));
  t.AddConstraint(Constraint::Le(LinearExpr::Variable("y"),
                                 LinearExpr::Constant(Rational(5))));
  EXPECT_EQ(Hex(SerializeTuple(t)),
            "01" "026964" "00" "0141"  // id = "A"
            "00" "04"                  // not known false, 4 constraints
            "01" "01" "0178" "02" "0c"  // -x + 3 <= 0
            "01" "01" "0178" "04" "1a"  // x - 7 <= 0
            "01" "01" "0179" "02" "08"  // -y + 2 <= 0
            "01" "01" "0179" "04" "12"  // y - 5 <= 0
  );
}

/// One constraint built by hand: op, (name, coefficient) terms, constant.
struct RawConstraint {
  ConstraintOp op;
  std::vector<std::pair<std::string, int64_t>> terms;
  int64_t constant;
};

/// A tuple record of no values holding `members` in the order given: for
/// each, op, term count, (name, coefficient) terms, then the constant.
std::vector<uint8_t> StoreRecord(const std::vector<RawConstraint>& members) {
  Writer w;
  w.PutVarint(0);
  w.PutU8(0);
  w.PutVarint(members.size());
  for (const RawConstraint& m : members) {
    w.PutU8(static_cast<uint8_t>(m.op));
    w.PutVarint(m.terms.size());
    for (const auto& [name, coeff] : m.terms) {
      w.PutVarString(name);
      w.PutInteger(BigInt(coeff));
    }
    w.PutInteger(BigInt(m.constant));
  }
  return w.TakeBuffer();
}

/// A tuple record of no values holding one constraint built by hand.
std::vector<uint8_t> ConstraintRecord(
    ConstraintOp op, const std::vector<std::pair<std::string, int64_t>>& terms,
    int64_t constant) {
  return StoreRecord({{op, terms, constant}});
}

TEST(SerdeTest, RejectsNonCanonicalConstraints) {
  // The canonical record decodes: x + 2y - 3 <= 0 and x - y = 0.
  EXPECT_TRUE(DeserializeTuple(ConstraintRecord(ConstraintOp::kLe,
                                                {{"x", 1}, {"y", 2}}, -3))
                  .ok());
  EXPECT_TRUE(DeserializeTuple(ConstraintRecord(ConstraintOp::kEq,
                                                {{"x", 1}, {"y", -1}}, 0))
                  .ok());
  const struct {
    const char* what;
    std::vector<uint8_t> record;
  } cases[] = {
      {"gcd 2", ConstraintRecord(ConstraintOp::kLe, {{"x", 2}, {"y", 4}}, -6)},
      {"negative leading = coefficient",
       ConstraintRecord(ConstraintOp::kEq, {{"x", -1}, {"y", 1}}, 0)},
      {"zero coefficient",
       ConstraintRecord(ConstraintOp::kLe, {{"x", 1}, {"y", 0}}, -3)},
      {"unsorted names",
       ConstraintRecord(ConstraintOp::kLe, {{"y", 1}, {"x", 1}}, -3)},
      {"repeated name",
       ConstraintRecord(ConstraintOp::kLe, {{"x", 1}, {"x", 1}}, -3)},
      {"zero terms", ConstraintRecord(ConstraintOp::kLe, {}, -1)},
      {"term count of an 11-byte varint",
       [] {
         std::vector<uint8_t> record = {0x00, 0x00, 0x01, 0x01};
         record.insert(record.end(), 10, 0x80);
         record.push_back(0x01);
         return record;
       }()},
  };
  for (const auto& c : cases) {
    auto back = DeserializeTuple(c.record);
    EXPECT_EQ(back.status().code(), StatusCode::kIoError) << c.what;
  }
}

TEST(SerdeTest, RejectsStoresTheBoundRuleWouldChange) {
  // Store order puts x - 5 <= 0 before x - 3 <= 0 (constants compare
  // last), and a box decodes when each member sorts after the one before
  // it and no bound implies another.
  const RawConstraint x_ge_0{ConstraintOp::kLe, {{"x", -1}}, 0};
  const RawConstraint x_le_3{ConstraintOp::kLe, {{"x", 1}}, -3};
  const RawConstraint x_le_5{ConstraintOp::kLe, {{"x", 1}}, -5};
  const RawConstraint y_le_1{ConstraintOp::kLe, {{"y", 1}}, -1};
  const RawConstraint x_lt_3{ConstraintOp::kLt, {{"x", 1}}, -3};
  const RawConstraint y_lt_1{ConstraintOp::kLt, {{"y", 1}}, -1};
  auto box = DeserializeTuple(StoreRecord({x_ge_0, x_le_3, y_lt_1}));
  ASSERT_TRUE(box.ok()) << box.status().ToString();
  EXPECT_EQ(box->constraints().ToString(), "-x <= 0 AND x <= 3 AND y < 1");
  const struct {
    const char* what;
    std::vector<uint8_t> record;
  } cases[] = {
      {"x <= 3 with x <= 5, in store order", StoreRecord({x_le_5, x_le_3})},
      {"x < 3 replacing x <= 5 across another member",
       StoreRecord({x_le_5, y_le_1, x_lt_3})},
      {"a repeated member", StoreRecord({x_le_3, x_le_3})},
      {"two members out of order", StoreRecord({x_le_3, x_ge_0})},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(DeserializeTuple(c.record).status().code(),
              StatusCode::kIoError)
        << c.what;
  }
}

TEST(SerdeTest, RejectsCorruptTags) {
  auto decode = [](std::vector<uint8_t> record) {
    return DeserializeTuple(record).status().code();
  };
  // One value named "a" whose tag is 99; with tag 0, the string "b".
  EXPECT_EQ(decode({0x01, 0x01, 'a', 99, 0x00, 0x00}), StatusCode::kIoError);
  EXPECT_EQ(decode({0x01, 0x01, 'a', 0x00, 0x01, 'b', 0x00, 0x00}),
            StatusCode::kOk);
  // A known-false flag of 2; constraint op 3 (past `<`).
  EXPECT_EQ(decode({0x00, 0x02, 0x00}), StatusCode::kIoError);
  std::vector<uint8_t> bad_op =
      ConstraintRecord(ConstraintOp::kLe, {{"x", 1}}, -3);
  bad_op[3] = 3;
  EXPECT_EQ(decode(bad_op), StatusCode::kIoError);
  // A byte past the record's end.
  std::vector<uint8_t> trailing =
      ConstraintRecord(ConstraintOp::kLe, {{"x", 1}}, -3);
  trailing.push_back(0);
  EXPECT_EQ(decode(trailing), StatusCode::kIoError);
}

// --- HeapFile -------------------------------------------------------------------

TEST(HeapFileTest, AppendReadRoundTrip) {
  PageManager pm;
  BufferPool pool(&pm, 8);
  HeapFile heap(&pool);
  std::vector<uint8_t> rec1{1, 2, 3};
  std::vector<uint8_t> rec2{9, 8, 7, 6};
  auto id1 = heap.Append(rec1);
  auto id2 = heap.Append(rec2);
  ASSERT_TRUE(id1.ok() && id2.ok());
  EXPECT_NE(*id1, *id2);
  EXPECT_EQ(heap.Read(*id1).value(), rec1);
  EXPECT_EQ(heap.Read(*id2).value(), rec2);
  EXPECT_EQ(heap.num_records(), 2u);
}

TEST(HeapFileTest, SpillsToNewPages) {
  PageManager pm;
  BufferPool pool(&pm, 8);
  HeapFile heap(&pool);
  std::vector<uint8_t> big(1000, 0xCD);
  std::vector<RecordId> ids;
  for (int i = 0; i < 20; ++i) {
    big[0] = static_cast<uint8_t>(i);
    auto id = heap.Append(big);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  EXPECT_GT(heap.num_pages(), 1u);
  for (int i = 0; i < 20; ++i) {
    auto rec = heap.Read(ids[static_cast<size_t>(i)]);
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ((*rec)[0], static_cast<uint8_t>(i));
    EXPECT_EQ(rec->size(), 1000u);
  }
}

TEST(HeapFileTest, RejectsOversizedRecord) {
  PageManager pm;
  BufferPool pool(&pm, 8);
  HeapFile heap(&pool);
  std::vector<uint8_t> huge(HeapFile::MaxRecordSize() + 1);
  EXPECT_FALSE(heap.Append(huge).ok());
  std::vector<uint8_t> max(HeapFile::MaxRecordSize());
  EXPECT_TRUE(heap.Append(max).ok());
}

TEST(HeapFileTest, ScanVisitsAllInOrder) {
  PageManager pm;
  BufferPool pool(&pm, 8);
  HeapFile heap(&pool);
  for (uint8_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(heap.Append(std::vector<uint8_t>{i}).ok());
  }
  std::vector<uint8_t> seen;
  ASSERT_TRUE(heap.Scan([&](RecordId, const std::vector<uint8_t>& rec) {
                    seen.push_back(rec[0]);
                    return true;
                  })
                  .ok());
  ASSERT_EQ(seen.size(), 50u);
  for (uint8_t i = 0; i < 50; ++i) EXPECT_EQ(seen[i], i);
}

TEST(HeapFileTest, ScanEarlyStop) {
  PageManager pm;
  BufferPool pool(&pm, 8);
  HeapFile heap(&pool);
  for (uint8_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(heap.Append(std::vector<uint8_t>{i}).ok());
  }
  int visits = 0;
  ASSERT_TRUE(heap.Scan([&](RecordId, const std::vector<uint8_t>&) {
                    return ++visits < 3;
                  })
                  .ok());
  EXPECT_EQ(visits, 3);
}

TEST(RecordIdTest, PackUnpackRoundTrip) {
  RecordId id{123456, 789};
  EXPECT_EQ(RecordId::Unpack(id.Pack()), id);
}

// --- Concurrency ----------------------------------------------------------------

TEST(BufferPoolTest, ShardsLargePoolsKeepsSmallOnesExact) {
  PageManager pm;
  EXPECT_EQ(BufferPool(&pm, 2).shard_count(), 1u)
      << "small pools keep exact global LRU order";
  EXPECT_EQ(BufferPool(&pm, 256).shard_count(), BufferPool::kMaxShards);
}

TEST(BufferPoolTest, ConcurrentReadersSeeConsistentPages) {
  PageManager pm;
  const size_t kPages = 64;
  for (size_t i = 0; i < kPages; ++i) {
    PageId id = pm.Allocate();
    Page page;
    page.bytes()[0] = static_cast<uint8_t>(i);
    ASSERT_TRUE(pm.Write(id, page).ok());
  }
  BufferPool pool(&pm, 128);

  const size_t kThreads = 8;
  const size_t kReadsPerThread = 400;
  std::vector<std::thread> threads;
  std::atomic<int> corrupt{0};
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < kReadsPerThread; ++i) {
        PageId id = (t * 13 + i * 7) % kPages;
        Page page;
        if (!pool.Get(id, &page).ok() ||
            page.bytes()[0] != static_cast<uint8_t>(id)) {
          corrupt.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(corrupt.load(), 0);
  CacheStats stats = pool.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kReadsPerThread);
  EXPECT_GT(stats.hits, 0u);
}

}  // namespace
}  // namespace ccdb
