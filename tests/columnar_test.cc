// Tests for the columnar relation storage: CSV round-trip identity across
// all value types, interning-pool dedup invariants (including under
// concurrent readers — the TSan lane exercises the lock-free view()/size()
// contract), interned-string equality-join semantics, the tuple-block wire
// codec, and bit-identity of Γ on the generator workloads against hashes
// captured on the row-wise storage this layout replaced.

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "chase/match.h"
#include "common/hash.h"
#include "datagen/ecommerce.h"
#include "datagen/magellan.h"
#include "datagen/tfacc_lite.h"
#include "datagen/tpch_lite.h"
#include "parallel/wire.h"
#include "relational/csv.h"
#include "relational/dataset.h"
#include "relational/string_pool.h"
#include "relational/value.h"

namespace dcer {
namespace {

Schema MixedSchema() {
  return Schema("Mixed", {{"name", ValueType::kString},
                          {"count", ValueType::kInt},
                          {"score", ValueType::kDouble},
                          {"note", ValueType::kString}});
}

// --- CSV round-trip across all four ValueTypes, NULLs included -------------

class ColumnarCsvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("dcer_columnar_test_" + std::to_string(::getpid()) + ".csv");
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::filesystem::path path_;
};

TEST_F(ColumnarCsvTest, RoundTripsAllValueTypesIncludingNulls) {
  Dataset d;
  size_t r = d.AddRelation(MixedSchema());
  const Value null = Value::Null();
  d.AppendTuple(r, {Value("alpha"), Value(int64_t{42}), Value(3.25),
                    Value("plain note")});
  d.AppendTuple(r, {null, Value(int64_t{-7}), Value(-0.5),
                    Value("quoted, \"note\"")});
  d.AppendTuple(r, {Value("gamma"), null, Value(1e-3), null});
  // Note: an empty string is not in this set — the CSV format writes NULL as
  // an empty field, so "" does not survive a round trip (by design).
  d.AppendTuple(r, {Value("alpha"), Value(int64_t{42}), null, Value("n4")});
  ASSERT_TRUE(SaveCsv(path_.string(), d, r).ok());

  Dataset d2;
  size_t r2 = d2.AddRelation(MixedSchema());
  ASSERT_TRUE(LoadCsv(path_.string(), &d2, r2).ok());
  const Relation& a = d.relation(r);
  const Relation& b = d2.relation(r2);
  ASSERT_EQ(b.num_rows(), a.num_rows());
  for (size_t row = 0; row < a.num_rows(); ++row) {
    for (size_t attr = 0; attr < a.schema().num_attrs(); ++attr) {
      EXPECT_EQ(a.at(row, attr).is_null(), b.at(row, attr).is_null())
          << "row " << row << " attr " << attr;
      EXPECT_EQ(a.at(row, attr), b.at(row, attr))
          << "row " << row << " attr " << attr;
    }
  }
  // The loader streams string cells through the destination pool: equal
  // strings across rows share one interned id.
  EXPECT_EQ(b.column(0).str_ids()[0], b.column(0).str_ids()[3]);
  EXPECT_TRUE(b.is_null(1, 0));
  EXPECT_TRUE(b.is_null(2, 1));
  EXPECT_TRUE(b.is_null(3, 2));
  EXPECT_TRUE(b.is_null(2, 3));
}

// --- Interning-pool dedup invariants ---------------------------------------

TEST(StringPoolTest, DedupInvariants) {
  StringPool pool;
  const uint32_t a = pool.Intern("hello");
  const uint32_t b = pool.Intern("world");
  const uint32_t a2 = pool.Intern("hello");
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.view(a), "hello");
  EXPECT_EQ(pool.view(b), "world");
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.Find("hello"), a);
  EXPECT_EQ(pool.Find("absent"), StringPool::kNpos);
  EXPECT_EQ(pool.num_requests(), 3u);
  EXPECT_EQ(pool.num_hits(), 1u);
  // The arena stores each distinct string once.
  EXPECT_EQ(pool.arena_bytes(), 10u);
  EXPECT_EQ(pool.requested_bytes(), 15u);
  // Views are stable: interning more strings never moves published bytes.
  const char* data_before = pool.view(a).data();
  for (int i = 0; i < 5000; ++i) {
    pool.Intern("filler-" + std::to_string(i));
  }
  EXPECT_EQ(pool.view(a).data(), data_before);
  EXPECT_EQ(pool.view(a), "hello");
}

TEST(StringPoolTest, ConcurrentReadersSeePublishedStrings) {
  // One writer (the pool's contract serializes writers) interning "s-<i>" in
  // order — so id i always names "s-<i>" — while reader threads validate
  // every id below the published size() via the lock-free view() and the
  // shared-locked Find(). Run under DCER_SANITIZE=thread this is the data
  // race check for the release/acquire publication protocol.
  StringPool pool;
  constexpr uint32_t kStrings = 20000;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> validated{0};
  auto reader = [&]() {
    uint64_t seen = 0;
    // One more full pass after the writer finished, so every reader checks
    // at least the final state even if it was scheduled only after the last
    // Intern.
    for (bool finished = false; !finished;) {
      finished = done.load(std::memory_order_acquire);
      const uint32_t published = static_cast<uint32_t>(pool.size());
      for (uint32_t id = 0; id < published; ++id) {
        std::string_view v = pool.view(id);
        if (v != "s-" + std::to_string(id)) {
          ADD_FAILURE() << "id " << id << " read back as " << v;
          return;
        }
        ++seen;
      }
      if (published > 0) {
        const uint32_t probe = published - 1;
        const uint32_t found = pool.Find("s-" + std::to_string(probe));
        if (found != probe) {
          ADD_FAILURE() << "Find returned " << found << " for id " << probe;
          return;
        }
      }
    }
    validated.fetch_add(seen, std::memory_order_relaxed);
  };
  std::vector<std::thread> readers;
  for (int i = 0; i < 3; ++i) readers.emplace_back(reader);
  for (uint32_t i = 0; i < kStrings; ++i) {
    const uint32_t id = pool.Intern("s-" + std::to_string(i));
    ASSERT_EQ(id, i);
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(pool.size(), kStrings);
  EXPECT_GT(validated.load(), 0u);
  // Dedup still intact after the concurrent phase.
  EXPECT_EQ(pool.Intern("s-123"), 123u);
}

// --- Equality-join semantics of interned strings ---------------------------

TEST(InternedValueTest, EqJoinableSemanticsPreserved) {
  StringPool pool;
  const uint32_t id = pool.Intern("acme corp");
  const Value interned = Value::Interned(pool.view(id), id);
  const Value owned("acme corp");
  const Value other("acme inc");
  const Value null = Value::Null();

  // Content equality across the owned/interned representations.
  EXPECT_EQ(interned, owned);
  EXPECT_EQ(owned, interned);
  EXPECT_TRUE(EqJoinable(interned, owned));
  EXPECT_TRUE(EqJoinable(interned, interned));
  EXPECT_FALSE(EqJoinable(interned, other));
  EXPECT_EQ(interned.type(), ValueType::kString);
  EXPECT_EQ(interned.AsString(), "acme corp");

  // NULL never joins — not even with itself, and not with any string flavor.
  EXPECT_FALSE(EqJoinable(null, null));
  EXPECT_FALSE(EqJoinable(null, interned));
  EXPECT_FALSE(EqJoinable(owned, null));
}

TEST(InternedValueTest, CodeFastPathMatchesEqJoinable) {
  // The equality-join fast path compares per-cell codes; on string columns a
  // code is the intern id. Codes must agree with EqJoinable on every
  // non-NULL pair of cells.
  Dataset d;
  size_t r = d.AddRelation(MixedSchema());
  d.AppendTuple(r, {Value("x"), Value(int64_t{1}), Value(2.0), Value("p")});
  d.AppendTuple(r, {Value("y"), Value(int64_t{1}), Value(-2.0), Value("p")});
  d.AppendTuple(r, {Value("x"), Value(int64_t{2}), Value(2.0),
                    Value::Null()});
  const Relation& rel = d.relation(r);
  for (size_t attr = 0; attr < rel.schema().num_attrs(); ++attr) {
    for (size_t i = 0; i < rel.num_rows(); ++i) {
      for (size_t j = 0; j < rel.num_rows(); ++j) {
        if (rel.is_null(i, attr) || rel.is_null(j, attr)) continue;
        const bool codes_equal = rel.code_at(i, attr) == rel.code_at(j, attr);
        EXPECT_EQ(codes_equal, EqJoinable(rel.at(i, attr), rel.at(j, attr)))
            << "attr " << attr << " rows " << i << "," << j;
      }
    }
  }
  // Same string in different columns of the shared pool → same code.
  EXPECT_EQ(d.pool().Find("x"), rel.code_at(0, 0));
}

// --- Tuple-block wire codec -------------------------------------------------

TEST(TupleBlockTest, RoundTripPreservesContentAndGids) {
  Dataset d;
  size_t r = d.AddRelation(MixedSchema());
  d.AddRelation(Schema("Pad", {{"k", ValueType::kString}}));  // offsets gids
  d.AppendTuple(1, {Value("pad")});
  std::vector<Gid> gids;
  gids.push_back(d.AppendTuple(r, {Value("alpha"), Value(int64_t{10}),
                                   Value(0.5), Value("n1")}));
  d.AppendTuple(1, {Value("pad2")});  // makes the relation's gids sparse
  gids.push_back(d.AppendTuple(r, {Value::Null(), Value(int64_t{-3}),
                                   Value::Null(), Value("alpha")}));
  gids.push_back(d.AppendTuple(r, {Value("beta"), Value::Null(), Value(7.25),
                                   Value::Null()}));
  const Relation& src = d.relation(r);

  std::vector<uint32_t> rows = {0, 1, 2};
  std::vector<uint8_t> bytes;
  const size_t n = wire::EncodeTupleBlock(src, rows, &bytes);
  ASSERT_EQ(n, bytes.size());
  ASSERT_GT(n, 0u);

  // Decode into a standalone relation with its own (empty) pool: the codec
  // must re-intern string cells on the receiving side.
  Relation dst(MixedSchema());
  ASSERT_EQ(wire::DecodeTupleBlock(bytes, &dst), wire::WireError::kOk);
  ASSERT_EQ(dst.num_rows(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(dst.gid(i), gids[i]);
    for (size_t attr = 0; attr < src.schema().num_attrs(); ++attr) {
      EXPECT_EQ(dst.at(i, attr), src.at(rows[i], attr))
          << "row " << i << " attr " << attr;
    }
  }
  // "alpha" appears in two columns: one id in the destination pool.
  EXPECT_EQ(dst.pool().size(), 3u);  // alpha, n1, beta
  EXPECT_NE(dst.pool().Find("alpha"), StringPool::kNpos);

  // Trailing garbage and arity mismatches are rejected.
  std::vector<uint8_t> trailing = bytes;
  trailing.push_back(0);
  EXPECT_EQ(wire::DecodeTupleBlock(trailing, &dst),
            wire::WireError::kTrailingBytes);
  Relation narrow(Schema("Narrow", {{"only", ValueType::kString}}));
  EXPECT_EQ(wire::DecodeTupleBlock(bytes, &narrow),
            wire::WireError::kSchemaMismatch);
}

// --- Γ bit-identity vs the row-wise storage --------------------------------

// FNV-1a-seeded fold over the sorted matched pairs; the constants were
// captured by running the identical fold on the pre-columnar row-wise
// storage (same generators, same seeds). Any divergence in Match's Γ —
// a dropped pair, a changed id, different dedup — changes the hash.
uint64_t PairsHash(std::vector<std::pair<Gid, Gid>> pairs) {
  std::sort(pairs.begin(), pairs.end());
  uint64_t h = 0xcbf29ce484222325ULL;
  for (auto [a, b] : pairs) {
    h = HashCombine(h, HashInt(a));
    h = HashCombine(h, HashInt(b));
  }
  return h;
}

struct GoldenCase {
  const char* name;
  size_t tuples;
  size_t pairs;
  uint64_t hash;
};

uint64_t RunWorkload(const GenDataset& gd, size_t* tuples, size_t* pairs) {
  DatasetView view = DatasetView::Full(gd.dataset);
  MatchContext ctx(gd.dataset);
  engine::Match(view, gd.rules, gd.registry, {}, &ctx);
  auto matched = ctx.MatchedPairs();
  *tuples = gd.dataset.num_tuples();
  *pairs = matched.size();
  return PairsHash(std::move(matched));
}

TEST(GoldenGammaTest, EcommerceMatchesRowWiseStorage) {
  const GoldenCase expect = {"ecommerce150", 448, 76, 0xa90aab7af0dfad94ULL};
  EcommerceOptions o;
  o.num_customers = 150;
  size_t tuples = 0, pairs = 0;
  const uint64_t h = RunWorkload(*MakeEcommerce(o), &tuples, &pairs);
  EXPECT_EQ(tuples, expect.tuples);
  EXPECT_EQ(pairs, expect.pairs);
  EXPECT_EQ(h, expect.hash);
}

TEST(GoldenGammaTest, TpchMatchesRowWiseStorage) {
  const GoldenCase expect = {"tpch0.3", 1355, 100, 0x2c7c5d9ad15f6d33ULL};
  TpchOptions o;
  o.scale = 0.3;
  size_t tuples = 0, pairs = 0;
  const uint64_t h = RunWorkload(*MakeTpch(o), &tuples, &pairs);
  EXPECT_EQ(tuples, expect.tuples);
  EXPECT_EQ(pairs, expect.pairs);
  EXPECT_EQ(h, expect.hash);
}

TEST(GoldenGammaTest, TfaccMatchesRowWiseStorage) {
  const GoldenCase expect = {"tfacc0.3", 618, 64, 0x51a5b6c1c61b2250ULL};
  TfaccOptions o;
  o.scale = 0.3;
  size_t tuples = 0, pairs = 0;
  const uint64_t h = RunWorkload(*MakeTfacc(o), &tuples, &pairs);
  EXPECT_EQ(tuples, expect.tuples);
  EXPECT_EQ(pairs, expect.pairs);
  EXPECT_EQ(h, expect.hash);
}

TEST(GoldenGammaTest, AcmDblpMatchesRowWiseStorage) {
  const GoldenCase expect = {"acmdblp120", 223, 52, 0x63f8fa810d82edf1ULL};
  MagellanOptions o;
  o.num_entities = 120;
  size_t tuples = 0, pairs = 0;
  const uint64_t h = RunWorkload(*MakeAcmDblp(o), &tuples, &pairs);
  EXPECT_EQ(tuples, expect.tuples);
  EXPECT_EQ(pairs, expect.pairs);
  EXPECT_EQ(h, expect.hash);
}

// --- Scale-factor generators and the Reserve audit --------------------------

TEST(ScaleFactorTest, GeneratorsPreReserveExactly) {
  // The generators compute worst-case row counts up front and reserve them;
  // a grow event means a Reserve call fell short of what generation
  // actually appended.
  {
    TpchOptions o;
    o.scale_factor = 0.5;
    auto gd = MakeTpch(o);
    uint64_t grow = 0;
    for (size_t r = 0; r < gd->dataset.num_relations(); ++r) {
      grow += gd->dataset.relation(r).grow_events();
    }
    EXPECT_EQ(grow, 0u);
    // dbgen-lite row floor: orders alone is 15000*SF.
    EXPECT_GT(gd->dataset.num_tuples(), static_cast<size_t>(7500));
  }
  {
    TfaccOptions o;
    o.scale_factor = 0.5;
    auto gd = MakeTfacc(o);
    uint64_t grow = 0;
    for (size_t r = 0; r < gd->dataset.num_relations(); ++r) {
      grow += gd->dataset.relation(r).grow_events();
    }
    EXPECT_EQ(grow, 0u);
    EXPECT_GT(gd->dataset.relation(0).num_rows(),
              static_cast<size_t>(2500));
  }
  {
    EcommerceOptions o;
    o.num_customers = 200;
    auto gd = MakeEcommerce(o);
    uint64_t grow = 0;
    for (size_t r = 0; r < gd->dataset.num_relations(); ++r) {
      grow += gd->dataset.relation(r).grow_events();
    }
    EXPECT_EQ(grow, 0u);
  }
}

TEST(ScaleFactorTest, ScaleFactorOverridesLegacyScale) {
  TpchOptions sf;
  sf.scale_factor = 1.0;
  sf.scale = 0.1;  // must be ignored when scale_factor is set
  auto with_sf = MakeTpch(sf);
  TpchOptions legacy;
  legacy.scale = 0.1;
  auto with_scale = MakeTpch(legacy);
  EXPECT_GT(with_sf->dataset.num_tuples(),
            10 * with_scale->dataset.num_tuples());
}

}  // namespace
}  // namespace dcer
