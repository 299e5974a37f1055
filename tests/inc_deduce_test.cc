// Delta-driven IncDeduce (the batched semi-naive pass): Γ must be
// bit-identical to the full chase fixpoint and invariant under every
// execution knob — threads 1/4 (inline rounds vs rounds recorded on the
// pool), dependency capacity 0/partial/default, and (at the DMatch level)
// threads 1/2 with sequential and pooled workers.

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "chase/deduce.h"
#include "chase/match.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "datagen/ecommerce.h"
#include "parallel/dmatch.h"
#include "workloads.h"

namespace dcer {
namespace {

struct ProtocolResult {
  std::vector<std::pair<Gid, Gid>> pairs;
  std::vector<uint64_t> ml_keys;
  // The engine's counters over the IncDeduce call; the determinism
  // contract says the ones ExpectSameStats compares match under any
  // threads setting.
  ChaseStats step;
};

// The cap protocol at the engine level: full Deduce over the up rule alone
// (finds nothing — every valuation needs child matches), then the given leaf
// matches arrive as external facts and IncDeduce cascades. With capacity 0
// nothing was recorded in H, so every internal valuation must be recovered
// through seeded re-joins; with the default capacity H is complete and the
// no-drop fast path answers from the dependency store.
ProtocolResult RunProtocol(TournamentWorkload& w,
                           const std::vector<Fact>& leaf_facts,
                           size_t capacity, int threads) {
  DatasetView view = DatasetView::Full(w.dataset);
  MatchContext ctx(w.dataset);
  EngineOptions eo;
  eo.dependency_capacity = capacity;
  eo.threads = threads;
  ChaseEngine::Options o =
      ChaseEngine::FromEngineOptions(eo, &ThreadPool::Global());
  ChaseEngine engine(&view, &w.up_rules, &w.registry, &ctx, o);
  Delta d0;
  engine.Deduce(&d0);
  Delta seeds;
  engine.ApplyExternalFacts(leaf_facts, &seeds);
  const ChaseStats before = engine.stats();
  Delta out;
  engine.IncDeduce(seeds, &out);
  return {ctx.MatchedPairs(), ctx.ValidatedMlKeys(), engine.stats() - before};
}

void ExpectSameResult(const ProtocolResult& a, const ProtocolResult& b,
                      const char* what) {
  EXPECT_EQ(a.pairs, b.pairs) << what;
  EXPECT_EQ(a.ml_keys, b.ml_keys) << what;
}

void ExpectSameStats(const ProtocolResult& a, const ProtocolResult& b,
                     const char* what) {
  EXPECT_EQ(a.step.seeded_joins, b.step.seeded_joins) << what;
  EXPECT_EQ(a.step.inc_rounds, b.step.inc_rounds) << what;
  EXPECT_EQ(a.step.inc_frontier_items, b.step.inc_frontier_items) << what;
  EXPECT_EQ(a.step.inc_dedup_hits, b.step.inc_dedup_hits) << what;
  EXPECT_EQ(a.step.matches, b.step.matches) << what;
}

class IncDeduceTournamentTest : public ::testing::TestWithParam<bool> {};

TEST_P(IncDeduceTournamentTest, RecoveryMatchesFullChaseFixpoint) {
  const bool with_ml = GetParam();
  const int kLevels = 6;  // 64 leaf pairs, 63 internal pairs
  auto w = MakeTournament(kLevels, with_ml);
  ASSERT_NE(w, nullptr);

  // Reference: the ordinary full chase over leaf + up rules.
  std::vector<std::pair<Gid, Gid>> expected_pairs;
  std::vector<uint64_t> expected_ml;
  {
    DatasetView view = DatasetView::Full(w->dataset);
    MatchContext ctx(w->dataset);
    engine::Match(view, w->rules, w->registry, {}, &ctx);
    expected_pairs = ctx.MatchedPairs();
    expected_ml = ctx.ValidatedMlKeys();
    ASSERT_EQ(expected_pairs.size(), (1u << (kLevels + 1)) - 1);
  }

  const std::vector<Fact> leaves = TournamentLeafFacts(*w);
  // Capacity 0 forces full seeded recovery; 8 mixes recorded and dropped
  // dependencies; the default never drops (fast path).
  for (size_t cap : {size_t{0}, size_t{8}, size_t{1} << 20}) {
    ProtocolResult ref;
    bool have_ref = false;
    for (int threads : {1, 4}) {
      ProtocolResult r = RunProtocol(*w, leaves, cap, threads);
      std::string what =
          "cap=" + std::to_string(cap) + " threads=" + std::to_string(threads);
      EXPECT_EQ(r.pairs, expected_pairs) << what;
      EXPECT_EQ(r.ml_keys, expected_ml) << what;
      // Every counter is deterministic across thread counts for a fixed
      // capacity.
      if (!have_ref) {
        ref = r;
        have_ref = true;
      } else {
        ExpectSameStats(ref, r, what.c_str());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PlainAndMl, IncDeduceTournamentTest,
                         ::testing::Bool());

TEST(IncDeduceTest, RandomLeafSubsetsAgreeAcrossConfigs) {
  // Randomized workloads: random subsets of the leaf matches yield partial
  // brackets. Reference = default capacity (H complete, answered by the
  // dependency store); every recovery configuration must reproduce it.
  const int kLevels = 5;  // 32 leaf pairs
  auto w = MakeTournament(kLevels, /*with_ml=*/false);
  ASSERT_NE(w, nullptr);
  Rng rng(29);
  for (int trial = 0; trial < 6; ++trial) {
    std::vector<Fact> leaves;
    for (const auto& [a, b] : w->leaf_pairs) {
      if (rng.Uniform(10) < 6) leaves.push_back(Fact::IdMatch(a, b));
    }
    ProtocolResult ref =
        RunProtocol(*w, leaves, size_t{1} << 20, /*threads=*/1);
    for (size_t cap : {size_t{0}, size_t{4}}) {
      for (int threads : {1, 4}) {
        ProtocolResult r = RunProtocol(*w, leaves, cap, threads);
        std::string what = "trial=" + std::to_string(trial) +
                           " cap=" + std::to_string(cap) +
                           " threads=" + std::to_string(threads);
        ExpectSameResult(ref, r, what.c_str());
      }
    }
  }
}

TEST(IncDeduceTest, NoDropFastPathSkipsSeededJoins) {
  // With the default H capacity nothing is ever dropped, so applying the
  // seeds already reached the fixpoint and IncDeduce must return without a
  // single seeded re-join or semi-naive round.
  auto w = MakeTournament(5, /*with_ml=*/false);
  ASSERT_NE(w, nullptr);
  ProtocolResult r = RunProtocol(*w, TournamentLeafFacts(*w), size_t{1} << 20,
                                 /*threads=*/1);
  EXPECT_EQ(r.step.seeded_joins, 0u);
  EXPECT_EQ(r.step.inc_rounds, 0u);
  EXPECT_EQ(r.step.inc_frontier_items, 0u);
  // Γ is still the complete bracket.
  EXPECT_EQ(r.pairs.size(), (1u << 6) - 1);
}

TEST(IncDeduceTest, DMatchTransportsAndAblationAgree) {
  // The BSP path with capacity 0: every incremental superstep runs the
  // seeded recovery. Sequential and pooled workers, and inline and pooled
  // IncDeduce rounds must all reproduce the sequential Match fixpoint.
  auto w = MakeTournament(5, /*with_ml=*/false);
  ASSERT_NE(w, nullptr);
  std::vector<std::pair<Gid, Gid>> expected;
  {
    DatasetView view = DatasetView::Full(w->dataset);
    MatchContext ctx(w->dataset);
    engine::Match(view, w->rules, w->registry, {}, &ctx);
    expected = ctx.MatchedPairs();
  }
  struct Config {
    bool run_parallel;
    int threads;
  };
  const Config configs[] = {{false, 1}, {false, 2}, {true, 2}};
  for (const Config& c : configs) {
    DMatchOptions o;
    o.num_workers = 4;
    o.dependency_capacity = 0;
    o.run_parallel = c.run_parallel;
    o.threads = c.threads;
    MatchContext ctx(w->dataset);
    DMatchReport r = engine::DMatch(w->dataset, w->rules, w->registry, o, &ctx);
    EXPECT_EQ(ctx.MatchedPairs(), expected)
        << "run_parallel=" << c.run_parallel << " threads=" << c.threads;
    EXPECT_GT(r.chase.seeded_joins, 0u);
  }
}

TEST(IncDeduceTest, EcommerceDMatchCap0AgreesWithMatch) {
  // The ML-heavy generated workload: classifier predicates and equivalence
  // expansion, with capacity 0 forcing recovery inside every incremental
  // superstep.
  EcommerceOptions options;
  options.num_customers = 150;
  auto gd = MakeEcommerce(options);
  std::vector<std::pair<Gid, Gid>> expected;
  std::vector<uint64_t> expected_ml;
  {
    DatasetView view = DatasetView::Full(gd->dataset);
    MatchContext ctx(gd->dataset);
    engine::Match(view, gd->rules, gd->registry, {}, &ctx);
    expected = ctx.MatchedPairs();
    expected_ml = ctx.ValidatedMlKeys();
    ASSERT_FALSE(expected.empty());
  }
  for (int threads : {1, 2}) {
    gd->registry.ClearCache();
    DMatchOptions o;
    o.num_workers = 4;
    o.dependency_capacity = 0;
    o.threads = threads;
    MatchContext ctx(gd->dataset);
    engine::DMatch(gd->dataset, gd->rules, gd->registry, o, &ctx);
    EXPECT_EQ(ctx.MatchedPairs(), expected) << "threads=" << threads;
    EXPECT_EQ(ctx.ValidatedMlKeys(), expected_ml) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace dcer
