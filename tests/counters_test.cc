// Exact work-counter gates: deterministic counters pinned with EXPECT_EQ,
// so any change to the enumerated work — a lost prune, a duplicated
// valuation, a routing slip, a codec de-optimization — shows up as a changed
// number, where a wall-clock gate would drown it in host noise. Run this
// lane alone with `ctest -L counters`. A change that moves a counter on
// purpose re-records it here and says why.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "chase/deduce.h"
#include "chase/match.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "datagen/ecommerce.h"
#include "datagen/tpch_lite.h"
#include "ml/profile.h"
#include "parallel/dmatch.h"
#include "parallel/master.h"
#include "parallel/wire.h"
#include "relational/string_pool.h"
#include "rules/parser.h"
#include "service/resolver.h"
#include "workloads.h"

namespace dcer {
namespace {

class TpchSf1Counters : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    TpchOptions options;
    options.scale_factor = 1.0;
    gd_ = MakeTpch(options);
    // Interning counters as generation leaves them, before any chase runs.
    const StringPool& pool = gd_->dataset.pool();
    pool_after_gen_ = {pool.num_requests(), pool.num_hits(), pool.size(),
                       pool.requested_bytes(), pool.arena_bytes()};
  }
  static void TearDownTestSuite() { gd_.reset(); }

  // engine::Match over the whole dataset on a freshly cleared registry, so
  // the ML counters do not depend on what ran before.
  static MatchReport RunMatch() {
    gd_->registry.ClearCache();
    gd_->registry.ResetStats();
    MatchContext ctx(gd_->dataset);
    return engine::Match(DatasetView::Full(gd_->dataset), gd_->rules,
                         gd_->registry, {}, &ctx);
  }

  struct PoolCounters {
    uint64_t requests, hits, strings, requested_bytes, arena_bytes;
  };

  static std::unique_ptr<GenDataset> gd_;
  static PoolCounters pool_after_gen_;
};

std::unique_ptr<GenDataset> TpchSf1Counters::gd_;
TpchSf1Counters::PoolCounters TpchSf1Counters::pool_after_gen_;

// The joiner never enumerates a valuation binding an id rule's two
// consequence variables to one tuple (24,331 valuations with them, 20,481
// reflexive). Each unordered ML pair is predicted once and found in the
// cache from its other orientation, so predictions equal cache hits. The
// chase builds 18 equality indices and no ML candidate index.
TEST_F(TpchSf1Counters, MatchEnumeratesNoReflexiveValuation) {
  const MatchReport report = RunMatch();
  EXPECT_EQ(report.chase.valuations, 3850u);
  EXPECT_EQ(report.chase.join_candidates, 112467u);
  EXPECT_EQ(report.ml_predictions, 1925u);
  EXPECT_EQ(report.ml_cache_hits, 1925u);
  EXPECT_EQ(report.chase.deps_added, 248u);
  EXPECT_EQ(report.matched_pairs, 1801u);
  EXPECT_EQ(report.chase.indices_built, 18u);
  EXPECT_EQ(report.chase.ml_indices_built, 0u);
}

// DMatch enumerates each valuation in exactly one Hypercube cell, so its
// workers together do Match's leaf work and deduce Match's Γ. Workers index
// their blocks separately (only blocks with equal contents share an index):
// 276 indices against Match's 18.
TEST_F(TpchSf1Counters, DMatchDoesMatchWork) {
  const MatchReport match = RunMatch();
  DMatchOptions options;
  options.num_workers = 4;
  MatchContext ctx(gd_->dataset);
  const DMatchReport report =
      engine::DMatch(gd_->dataset, gd_->rules, gd_->registry, options, &ctx);
  EXPECT_EQ(report.chase.valuations, match.chase.valuations);
  EXPECT_EQ(report.matched_pairs, match.matched_pairs);
  EXPECT_EQ(report.chase.indices_built, 276u);
  EXPECT_EQ(report.chase.ml_indices_built, 0u);
}

// Columnar storage and interning at SF 1: the generator reserves every
// relation at its worst case, so no column ever reallocates, and the pool
// stores each distinct string once (arena 587,210 B for 1,070,381 B
// requested).
TEST_F(TpchSf1Counters, GenerationInternsEachStringOnce) {
  const Dataset& d = gd_->dataset;
  EXPECT_EQ(d.num_tuples(), 38866u);
  uint64_t grow_events = 0;
  for (size_t r = 0; r < d.num_relations(); ++r) {
    grow_events += d.relation(r).grow_events();
  }
  EXPECT_EQ(grow_events, 0u);
  EXPECT_EQ(pool_after_gen_.requests, 138999u);
  EXPECT_EQ(pool_after_gen_.hits, 73781u);
  EXPECT_EQ(pool_after_gen_.strings, 65218u);
  EXPECT_EQ(pool_after_gen_.requested_bytes, 1070381u);
  EXPECT_EQ(pool_after_gen_.arena_bytes, 587210u);

  // An equality index keyed on intern codes has one key per distinct value:
  // code equality is string equality.
  const Relation* orders = nullptr;
  for (size_t r = 0; r < d.num_relations(); ++r) {
    if (d.relation(r).schema().name() == "Orders") orders = &d.relation(r);
  }
  ASSERT_NE(orders, nullptr);
  constexpr size_t kCustAttr = 1;  // Orders.custkey
  std::unordered_set<uint64_t> codes;
  std::unordered_set<std::string> values;
  for (size_t i = 0; i < orders->num_rows(); ++i) {
    if (orders->is_null(i, kCustAttr)) continue;
    codes.insert(orders->code_at(i, kCustAttr));
    values.insert(std::string(orders->string_at(i, kCustAttr)));
  }
  EXPECT_EQ(codes.size(), 1928u);
  EXPECT_EQ(values.size(), codes.size());
}

// Pooled DMatch on ecommerce 800 (4 workers): the wire volume of both
// exchange legs, total and per superstep, in serialized codec bytes.
TEST(EcommerceDMatchCounters, WireVolumeIsExactInEveryExecutionMode) {
  EcommerceOptions gen;
  gen.num_customers = 800;
  auto gd = MakeEcommerce(gen);
  auto run = [&](bool run_parallel, MatchContext* ctx) {
    gd->registry.ClearCache();
    gd->registry.ResetStats();
    DMatchOptions options;
    options.num_workers = 4;
    options.run_parallel = run_parallel;
    return engine::DMatch(gd->dataset, gd->rules, gd->registry, options, ctx);
  };

  MatchContext pooled_ctx(gd->dataset);
  const DMatchReport pooled = run(true, &pooled_ctx);
  EXPECT_EQ(pooled.messages, 1147u);
  EXPECT_EQ(pooled.bytes, 2368u);
  EXPECT_EQ(pooled.outbox_messages, 506u);
  EXPECT_EQ(pooled.outbox_bytes, 1079u);
  EXPECT_EQ(pooled.matched_pairs, 424u);
  ASSERT_EQ(pooled.superstep_stats.size(), 3u);
  const uint64_t kMessages[] = {1049, 98, 0};
  const uint64_t kBytes[] = {2137, 231, 0};
  const uint64_t kOutboxMessages[] = {449, 57, 0};
  const uint64_t kOutboxBytes[] = {925, 154, 0};
  for (size_t i = 0; i < 3; ++i) {
    const SuperstepStats& s = pooled.superstep_stats[i];
    EXPECT_EQ(s.step, static_cast<int>(i));
    EXPECT_EQ(s.messages, kMessages[i]) << "superstep " << i;
    EXPECT_EQ(s.bytes, kBytes[i]) << "superstep " << i;
    EXPECT_EQ(s.outbox_messages, kOutboxMessages[i]) << "superstep " << i;
    EXPECT_EQ(s.outbox_bytes, kOutboxBytes[i]) << "superstep " << i;
  }

  // Workers one after another: same volume, same Γ.
  MatchContext seq_ctx(gd->dataset);
  const DMatchReport seq = run(false, &seq_ctx);
  EXPECT_EQ(seq.messages, 1147u);
  EXPECT_EQ(seq.bytes, 2368u);
  EXPECT_EQ(seq_ctx.MatchedPairs(), pooled_ctx.MatchedPairs());
  EXPECT_EQ(seq_ctx.ValidatedMlKeys(), pooled_ctx.ValidatedMlKeys());
}

// The master's router alone on an exchange-heavy stream: 4 workers, every
// tuple hosted on one or two of them, 20,000 facts per outbox (mostly ML
// facts, plus id facts over disjoint {2k, 2k+1} pairs so classes stay
// small). Routing on the pool must deliver exactly the serial inboxes.
TEST(MasterCounters, RoutedVolumeIsExactAndPoolIndependent) {
  constexpr int kWorkers = 4;
  constexpr uint32_t kTuples = 1 << 16;
  constexpr size_t kFactsPerWorker = 20'000;
  std::vector<std::vector<uint32_t>> hosts(kTuples);
  for (uint32_t g = 0; g < kTuples; ++g) {
    const uint32_t h1 = g % kWorkers;
    const uint32_t h2 = (g / kWorkers) % kWorkers;
    if (h1 == h2) {
      hosts[g] = {h1};
    } else {
      hosts[g] = {std::min(h1, h2), std::max(h1, h2)};
    }
  }
  std::vector<std::vector<Fact>> outboxes(kWorkers);
  Rng rng(13);
  for (int w = 0; w < kWorkers; ++w) {
    for (size_t i = 0; i < kFactsPerWorker; ++i) {
      if (i % 4 == 3) {
        const uint32_t a = static_cast<uint32_t>(rng.Uniform(kTuples / 2)) * 2;
        outboxes[w].push_back(Fact::IdMatch(a, a + 1));
      } else {
        uint32_t a = static_cast<uint32_t>(rng.Uniform(kTuples));
        uint32_t b = static_cast<uint32_t>(rng.Uniform(kTuples));
        if (a == b) b = (b + 1) % kTuples;
        outboxes[w].push_back(Fact::MlValidated(
            static_cast<int32_t>(i % 3), a, rng.Next(), b, rng.Next()));
      }
    }
  }
  auto route = [&](ThreadPool* pool) {
    Master::Options options;
    options.pool = pool;
    Master master(&hosts, kWorkers, kTuples, options);
    for (int w = 0; w < kWorkers; ++w) master.Collect(w, outboxes[w]);
    std::vector<std::vector<Fact>> inboxes;
    master.Dispatch(&inboxes);
    EXPECT_EQ(master.messages_routed(), 44902u);
    EXPECT_EQ(master.bytes_routed(), 732959u);
    return inboxes;
  };
  const std::vector<std::vector<Fact>> serial = route(nullptr);
  const std::vector<std::vector<Fact>> pooled = route(&ThreadPool::Global());
  ASSERT_EQ(serial.size(), pooled.size());
  for (size_t d = 0; d < serial.size(); ++d) {
    ASSERT_EQ(serial[d].size(), pooled[d].size()) << "worker " << d;
    for (size_t i = 0; i < serial[d].size(); ++i) {
      EXPECT_TRUE(wire::SameFact(serial[d][i], pooled[d][i]))
          << "worker " << d << " fact " << i;
    }
  }
}

// Propagation on a class-merge-heavy stream: chains build blocks of 16
// equivalent tuples, then tournament rounds merge ever-larger blocks. The
// spanning pairs keep the routed volume linear in |Ca| + |Cb| where a
// |Ca| × |Cb| cross product would explode.
TEST(MasterCounters, SpanningPropagationStaysLinear) {
  constexpr int kWorkers = 4;
  constexpr uint32_t kTuples = 1024;
  std::vector<std::vector<uint32_t>> hosts(kTuples);
  for (uint32_t g = 0; g < kTuples; ++g) hosts[g] = {g % kWorkers};
  std::vector<Fact> facts;
  for (uint32_t g = 0; g + 1 < kTuples; ++g) {
    if (g % 16 != 15) facts.push_back(Fact::IdMatch(g, g + 1));
  }
  for (uint32_t size = 16; size < kTuples; size *= 2) {
    for (uint32_t g = 0; g + size < kTuples; g += 2 * size) {
      facts.push_back(Fact::IdMatch(g, g + size));
    }
  }
  Master master(&hosts, kWorkers, kTuples);
  master.Collect(0, facts);
  std::vector<std::vector<Fact>> inboxes;
  master.Dispatch(&inboxes);
  EXPECT_EQ(master.messages_routed(), 3969u);
  EXPECT_EQ(master.bytes_routed(), 7962u);
}

// IncDeduce's work on the 10-level tournament under the cap=0 protocol:
// with dependency_capacity = 0 nothing is recorded in H, the leaf matches
// arrive as external facts, and every internal match is recovered through
// seeded re-joins, one semi-naive round per level. Halving |Δ| halves the
// re-joins and the matches and drops one round: the pass scales with the
// delta, not the dataset.
struct CascadeRun {
  size_t leaves = 0;
  ChaseStats step;  // the IncDeduce call's counters
  std::vector<std::pair<Gid, Gid>> pairs;
};

CascadeRun RunCascade(size_t leaf_limit) {
  auto w = MakeTournament(10, /*with_ml=*/false);
  DatasetView view = DatasetView::Full(w->dataset);
  MatchContext ctx(w->dataset);
  EngineOptions eo;
  eo.dependency_capacity = 0;
  ChaseEngine engine(&view, &w->up_rules, &w->registry, &ctx,
                     ChaseEngine::FromEngineOptions(eo));
  Delta d0;
  engine.Deduce(&d0);  // finds nothing: the up rule needs child matches
  const std::vector<Fact> facts = TournamentLeafFacts(*w, leaf_limit);
  Delta seeds;
  engine.ApplyExternalFacts(facts, &seeds);
  const ChaseStats before = engine.stats();
  Delta cascade;
  engine.IncDeduce(seeds, &cascade);
  return {facts.size(), engine.stats() - before, ctx.MatchedPairs()};
}

TEST(IncCascadeCounters, SeededWorkIsProportionalToDelta) {
  const CascadeRun full = RunCascade(size_t(-1));
  EXPECT_EQ(full.leaves, 1024u);
  EXPECT_EQ(full.step.seeded_joins, 8188u);
  EXPECT_EQ(full.step.inc_rounds, 11u);
  EXPECT_EQ(full.step.inc_frontier_items, 2047u);
  EXPECT_EQ(full.step.inc_dedup_hits, 0u);
  EXPECT_EQ(full.pairs.size(), 2047u);

  const CascadeRun half = RunCascade(512);
  EXPECT_EQ(half.leaves, 512u);
  EXPECT_EQ(half.step.seeded_joins, 4092u);
  EXPECT_EQ(half.step.inc_rounds, 10u);
  EXPECT_EQ(half.pairs.size(), 1023u);
}

// A Resolver absorbs the last 64 ecommerce-400 tuples as 8-tuple appends:
// each batch is one IncDeduce round of 32 seeded joins, every batch
// publishes one snapshot, and the streamed Γ equals a from-scratch Match
// over the grown dataset.
TEST(UpdateStreamCounters, EachAppendIsOneRoundOfSeededJoins) {
  EcommerceOptions gen;
  gen.num_customers = 400;
  auto gd = MakeEcommerce(gen);
  Dataset dst;
  for (size_t r = 0; r < gd->dataset.num_relations(); ++r) {
    dst.AddRelation(gd->dataset.relation(r).schema());
  }
  RuleSet rules;
  ASSERT_TRUE(
      ParseRuleSet(gd->rules.ToString(gd->dataset), dst, gd->registry, &rules)
          .ok());
  constexpr size_t kHeldBack = 64;
  constexpr size_t kBatchSize = 8;
  const size_t total = gd->dataset.num_tuples();
  for (Gid g = 0; g < total - kHeldBack; ++g) {
    const TupleLoc loc = gd->dataset.loc(g);
    dst.AppendTuple(loc.relation,
                    gd->dataset.relation(loc.relation).row(loc.row));
  }
  auto resolver = Resolver::Open(std::move(dst), rules, &gd->registry);

  size_t batches = 0;
  TupleBatch batch;
  for (Gid g = static_cast<Gid>(total - kHeldBack); g < total; ++g) {
    const TupleLoc loc = gd->dataset.loc(g);
    batch.Add(loc.relation, gd->dataset.relation(loc.relation).row(loc.row));
    if (batch.size() == kBatchSize) {
      const AppendOutcome o = resolver->Append(std::move(batch));
      ASSERT_TRUE(o.status.ok()) << o.status.ToString();
      EXPECT_EQ(o.report.rounds, 1) << "batch " << batches;
      EXPECT_EQ(o.report.chase.seeded_joins, 32u) << "batch " << batches;
      ++batches;
      batch = TupleBatch{};
    }
  }
  EXPECT_EQ(batches, 8u);
  const auto snapshot = resolver->Snapshot();
  EXPECT_EQ(snapshot->version(), 9u);
  EXPECT_EQ(snapshot->num_matched_pairs(), 213u);

  gd->registry.ClearCache();
  MatchContext scratch(resolver->dataset());
  engine::Match(DatasetView::Full(resolver->dataset()), rules, gd->registry,
                {}, &scratch);
  EXPECT_EQ(snapshot->MatchedPairs(), scratch.MatchedPairs());
  EXPECT_EQ(snapshot->ValidatedMlKeys(), scratch.ValidatedMlKeys());
}

// Profile footprint of the product descriptions of ecommerce 200: what the
// batch kernels read per string.
TEST(ProfileCounters, DescriptionProfilesFootprint) {
  EcommerceOptions gen;
  gen.num_customers = 200;
  auto gd = MakeEcommerce(gen);
  const Relation& products = gd->dataset.relation(2);  // Products
  StringPool pool;
  for (size_t r = 0; r < products.num_rows(); ++r) {
    pool.Intern(products.at(r, 3).AsString());  // desc
  }
  ProfileStore store(&pool);
  store.Sync();
  EXPECT_EQ(store.ByteSize(), 141484u);
}

}  // namespace
}  // namespace dcer
