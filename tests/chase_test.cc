#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>

#include "chase/match.h"
#include "chase/naive_chase.h"
#include "common/rng.h"
#include "datagen/paper_example.h"
#include "rules/analysis.h"
#include "rules/parser.h"

namespace dcer {
namespace {

// ---------------------------------------------------------------------------
// MatchContext / Delta semantics.

TEST(MatchContextTest, ReflexiveInitially) {
  auto ex = MakePaperExample();
  MatchContext ctx(ex->dataset);
  EXPECT_TRUE(ctx.Matched(ex->t[1], ex->t[1]));
  EXPECT_FALSE(ctx.Matched(ex->t[1], ex->t[2]));
  EXPECT_EQ(ctx.num_matched_pairs(), 0u);
}

TEST(MatchContextTest, ApplyIdFactExpandsDeltaPairs) {
  auto ex = MakePaperExample();
  MatchContext ctx(ex->dataset);
  Delta d;
  EXPECT_TRUE(ctx.Apply(Fact::IdMatch(ex->t[1], ex->t[2]), &d));
  EXPECT_EQ(d.id_pairs.size(), 1u);
  EXPECT_EQ(d.facts.size(), 1u);
  // Merging {1,2} with {3} yields two newly-true pairs: (1,3) and (2,3).
  Delta d2;
  EXPECT_TRUE(ctx.Apply(Fact::IdMatch(ex->t[2], ex->t[3]), &d2));
  EXPECT_EQ(d2.id_pairs.size(), 2u);
  // Re-applying is a no-op.
  Delta d3;
  EXPECT_FALSE(ctx.Apply(Fact::IdMatch(ex->t[1], ex->t[3]), &d3));
  EXPECT_TRUE(d3.empty());
  EXPECT_EQ(ctx.num_matched_pairs(), 3u);
}

TEST(MatchContextTest, MlFactsAreKeyedBySidesAndAttrs) {
  auto ex = MakePaperExample();
  MatchContext ctx(ex->dataset);
  Fact f1 = Fact::MlValidated(0, ex->t[1], 11, ex->t[2], 11);
  Fact f2 = Fact::MlValidated(0, ex->t[2], 11, ex->t[1], 11);  // swapped
  Fact f3 = Fact::MlValidated(0, ex->t[1], 99, ex->t[2], 99);  // other attrs
  Delta d;
  EXPECT_TRUE(ctx.Apply(f1, &d));
  EXPECT_FALSE(ctx.Apply(f2, &d));  // symmetric: same fact
  EXPECT_TRUE(ctx.Apply(f3, &d));
  EXPECT_TRUE(ctx.IsValidatedMl(f1.Key()));
  EXPECT_EQ(f1.Key(), f2.Key());
  EXPECT_NE(f1.Key(), f3.Key());
  EXPECT_EQ(ctx.num_validated_ml(), 2u);
}

TEST(MatchContextTest, MatchedPairsEnumeratesClosure) {
  auto ex = MakePaperExample();
  MatchContext ctx(ex->dataset);
  ctx.Apply(Fact::IdMatch(ex->t[1], ex->t[2]), nullptr);
  ctx.Apply(Fact::IdMatch(ex->t[2], ex->t[3]), nullptr);
  ctx.Apply(Fact::IdMatch(ex->t[9], ex->t[10]), nullptr);
  auto pairs = ctx.MatchedPairs();
  EXPECT_EQ(pairs.size(), 4u);  // C(3,2) + 1
  EXPECT_TRUE(std::binary_search(
      pairs.begin(), pairs.end(),
      std::make_pair(std::min(ex->t[1], ex->t[3]),
                     std::max(ex->t[1], ex->t[3]))));
}

// ---------------------------------------------------------------------------
// DependencyStore.

TEST(DependencyStoreTest, FiresWhenAllRequirementsTrue) {
  DependencyStore h(16);
  Fact target = Fact::IdMatch(1, 2);
  uint64_t r1 = IdPairKey(3, 4);
  uint64_t r2 = IdPairKey(5, 6);
  ASSERT_TRUE(h.Add(target, {r1, r2}, 0, {}));
  EXPECT_EQ(h.size(), 1u);

  std::vector<DependencyStore::Dependency> fired;
  h.OnKeyTrue(r1, &fired);
  EXPECT_TRUE(fired.empty());
  h.OnKeyTrue(r2, &fired);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].target.Key(), target.Key());
  EXPECT_EQ(h.size(), 0u);
}

TEST(DependencyStoreTest, DuplicateRequirementsCountOnce) {
  DependencyStore h(16);
  uint64_t r = IdPairKey(3, 4);
  ASSERT_TRUE(h.Add(Fact::IdMatch(1, 2), {r, r, r}, 0, {}));
  std::vector<DependencyStore::Dependency> fired;
  h.OnKeyTrue(r, &fired);
  EXPECT_EQ(fired.size(), 1u);
}

TEST(DependencyStoreTest, TargetValidationDropsDependency) {
  DependencyStore h(16);
  Fact target = Fact::IdMatch(1, 2);
  ASSERT_TRUE(h.Add(target, {IdPairKey(3, 4)}, 0, {}));
  std::vector<DependencyStore::Dependency> fired;
  // The target itself became true by another route: dep removed, not fired.
  h.OnKeyTrue(target.Key(), &fired);
  EXPECT_TRUE(fired.empty());
  EXPECT_EQ(h.size(), 0u);
  h.OnKeyTrue(IdPairKey(3, 4), &fired);
  EXPECT_TRUE(fired.empty());
}

TEST(DependencyStoreTest, CapacityBoundsAndDropCounting) {
  DependencyStore h(2);
  EXPECT_TRUE(h.Add(Fact::IdMatch(1, 2), {IdPairKey(9, 8)}, 0, {}));
  EXPECT_TRUE(h.Add(Fact::IdMatch(3, 4), {IdPairKey(9, 8)}, 0, {}));
  EXPECT_FALSE(h.Add(Fact::IdMatch(5, 6), {IdPairKey(9, 8)}, 0, {}));
  EXPECT_EQ(h.num_dropped(), 1u);
  // Firing frees capacity.
  std::vector<DependencyStore::Dependency> fired;
  h.OnKeyTrue(IdPairKey(9, 8), &fired);
  EXPECT_EQ(fired.size(), 2u);
  EXPECT_TRUE(h.Add(Fact::IdMatch(5, 6), {IdPairKey(7, 8)}, 0, {}));
}

// ---------------------------------------------------------------------------
// RuleJoiner.

class JoinerTest : public ::testing::Test {
 protected:
  void SetUp() override { ex_ = MakePaperExample(); }
  std::unique_ptr<PaperExample> ex_;
};

TEST_F(JoinerTest, EnumeratesEqualityJoinValuations) {
  // phi1 over the paper data: only (t2,t3) shares name+phone+addr. The
  // joiner never binds phi1's consequence variables to one tuple, so the
  // reflexive valuations are not enumerated.
  DatasetView view = DatasetView::Full(ex_->dataset);
  DatasetIndex index(&view);
  MatchContext ctx(ex_->dataset);
  RuleJoiner joiner(&index, &ex_->rules.rule(0), &ex_->registry, &ctx);
  size_t satisfied = 0;
  std::vector<std::pair<Gid, Gid>> found;
  joiner.Enumerate([&](const std::vector<uint32_t>& rows,
                       const std::vector<int>& unsat) {
    EXPECT_TRUE(unsat.empty());  // phi1 has no id/ML preconditions
    ++satisfied;
    Gid a = ex_->dataset.relation(0).gid(rows[0]);
    Gid b = ex_->dataset.relation(0).gid(rows[1]);
    EXPECT_NE(a, b);
    found.push_back({std::min(a, b), std::max(a, b)});
    return true;
  });
  // (t2,t3) in both orientations, and nothing else.
  EXPECT_EQ(satisfied, 2u);
  ASSERT_EQ(found.size(), 2u);
  EXPECT_EQ(found[0], std::make_pair(ex_->t[2], ex_->t[3]));
  EXPECT_EQ(found[1], found[0]);
}

TEST_F(JoinerTest, ReportsUnsatisfiedIdPredicates) {
  // phi3 on fresh Γ: shops t9/t10 satisfy everything except nothing — their
  // owners share a phone, so (t9,t10) is fully satisfied; but phi4's id
  // preconditions are unsatisfied before phi2/phi3 run.
  DatasetView view = DatasetView::Full(ex_->dataset);
  DatasetIndex index(&view);
  MatchContext ctx(ex_->dataset);
  const Rule& phi4 = ex_->rules.rule(3);
  RuleJoiner joiner(&index, &phi4, &ex_->registry, &ctx);
  bool saw_blocked = false;
  joiner.Enumerate([&](const std::vector<uint32_t>& rows,
                       const std::vector<int>& unsat) {
    Gid tc = ex_->dataset.relation(0).gid(rows[0]);
    Gid tc2 = ex_->dataset.relation(0).gid(rows[1]);
    if ((tc == ex_->t[1] && tc2 == ex_->t[3]) ||
        (tc == ex_->t[3] && tc2 == ex_->t[1])) {
      // Blocked on tp.id = tp2.id and ts.id = ts2.id.
      EXPECT_EQ(unsat.size(), 2u);
      saw_blocked = true;
    }
    return true;
  });
  EXPECT_TRUE(saw_blocked);
}

TEST_F(JoinerTest, SeededEnumerationRestrictsToSeeds) {
  DatasetView view = DatasetView::Full(ex_->dataset);
  DatasetIndex index(&view);
  MatchContext ctx(ex_->dataset);
  const Rule& phi1 = ex_->rules.rule(0);
  RuleJoiner joiner(&index, &phi1, &ex_->registry, &ctx);
  // Seed tc := t2's row, tc2 := t3's row.
  std::pair<int, uint32_t> seeds[2] = {
      {0, ex_->dataset.loc(ex_->t[2]).row},
      {1, ex_->dataset.loc(ex_->t[3]).row}};
  size_t count = 0;
  joiner.EnumerateSeeded(seeds, [&](const std::vector<uint32_t>&,
                                    const std::vector<int>&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 1u);
  // Conflicting seed (t1 vs t3) violates name equality: nothing enumerated.
  std::pair<int, uint32_t> bad[2] = {{0, ex_->dataset.loc(ex_->t[1]).row},
                                     {1, ex_->dataset.loc(ex_->t[3]).row}};
  count = 0;
  joiner.EnumerateSeeded(bad, [&](const std::vector<uint32_t>&,
                                  const std::vector<int>&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 0u);
}

// ---------------------------------------------------------------------------
// Match on the paper's running example (Examples 1-3).

std::vector<std::pair<Gid, Gid>> ExpectedPaperMatches(const PaperExample& ex) {
  auto norm = [](Gid a, Gid b) {
    return std::make_pair(std::min(a, b), std::max(a, b));
  };
  std::vector<std::pair<Gid, Gid>> expected = {
      norm(ex.t[1], ex.t[2]),  norm(ex.t[1], ex.t[3]),
      norm(ex.t[2], ex.t[3]),  norm(ex.t[4], ex.t[5]),
      norm(ex.t[9], ex.t[10]), norm(ex.t[12], ex.t[13]),
  };
  std::sort(expected.begin(), expected.end());
  return expected;
}

TEST(MatchTest, PaperExampleDeducesExactlyTheExpectedMatches) {
  auto ex = MakePaperExample();
  DatasetView view = DatasetView::Full(ex->dataset);
  MatchContext ctx(ex->dataset);
  MatchReport report = engine::Match(view, ex->rules, ex->registry, {}, &ctx);

  EXPECT_EQ(ctx.MatchedPairs(), ExpectedPaperMatches(*ex));
  EXPECT_EQ(report.matched_pairs, 6u);
  // Γ_M of Example 3: M4 validated on (t1,t3), (t1,t4), (t3,t4) preferences.
  const Rule& phi5 = ex->rules.rule(4);
  const Predicate& m4 = phi5.consequence();
  uint64_t sig = MlSideSignature(0, m4.lhs_ml_attrs);
  auto validated = [&](Gid a, Gid b) {
    return ctx.IsValidatedMl(
        Fact::MlValidated(m4.ml_id, a, sig, b, sig).Key());
  };
  EXPECT_TRUE(validated(ex->t[1], ex->t[3]));
  EXPECT_TRUE(validated(ex->t[1], ex->t[4]));
  EXPECT_TRUE(validated(ex->t[3], ex->t[4]));
  EXPECT_FALSE(validated(ex->t[1], ex->t[5]));
  EXPECT_LE(report.chase.valuations,
            MaxMatchesBound(ex->rules, ex->dataset.num_tuples()) * 100);
}

TEST(MatchTest, RecursionIsRequired) {
  // Dropping phi2 (products) breaks the chain: phi4 can no longer identify
  // (t1, t3), so (t1, t2) is also lost. Demonstrates deep ER.
  auto ex = MakePaperExample();
  RuleSet reduced;
  for (size_t i = 0; i < ex->rules.size(); ++i) {
    if (ex->rules.rule(i).name() != "phi2") reduced.Add(ex->rules.rule(i));
  }
  DatasetView view = DatasetView::Full(ex->dataset);
  MatchContext ctx(ex->dataset);
  engine::Match(view, reduced, ex->registry, {}, &ctx);
  EXPECT_FALSE(ctx.Matched(ex->t[12], ex->t[13]));
  EXPECT_FALSE(ctx.Matched(ex->t[1], ex->t[3]));
  EXPECT_FALSE(ctx.Matched(ex->t[1], ex->t[2]));
  EXPECT_TRUE(ctx.Matched(ex->t[2], ex->t[3]));   // phi1 still fires
  EXPECT_TRUE(ctx.Matched(ex->t[9], ex->t[10]));  // phi3 still fires
}

TEST(MatchTest, AgreesWithNaiveChase) {
  auto ex = MakePaperExample();
  DatasetView view = DatasetView::Full(ex->dataset);

  MatchContext fast(ex->dataset);
  engine::Match(view, ex->rules, ex->registry, {}, &fast);

  MatchContext naive(ex->dataset);
  NaiveChase(view, ex->rules, ex->registry, &naive);

  EXPECT_EQ(fast.MatchedPairs(), naive.MatchedPairs());
  EXPECT_EQ(fast.num_validated_ml(), naive.num_validated_ml());
}

TEST(MatchTest, ChurchRosserRuleOrderIndependence) {
  // Cor. 1: the chase converges to the same Γ whatever order rules apply in.
  auto ex = MakePaperExample();
  DatasetView view = DatasetView::Full(ex->dataset);

  MatchContext reference(ex->dataset);
  NaiveChase(view, ex->rules, ex->registry, &reference);
  auto expected_pairs = reference.MatchedPairs();

  Rng rng(17);
  std::vector<size_t> order(ex->rules.size());
  std::iota(order.begin(), order.end(), 0);
  for (int trial = 0; trial < 5; ++trial) {
    // Fisher-Yates shuffle with our deterministic Rng.
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.Uniform(i)]);
    }
    MatchContext ctx(ex->dataset);
    NaiveChase(view, ex->rules, ex->registry, &ctx, order);
    EXPECT_EQ(ctx.MatchedPairs(), expected_pairs) << "trial " << trial;

    // Also: Match on a permuted RuleSet converges identically.
    RuleSet permuted;
    for (size_t i : order) permuted.Add(ex->rules.rule(i));
    MatchContext ctx2(ex->dataset);
    engine::Match(view, permuted, ex->registry, {}, &ctx2);
    EXPECT_EQ(ctx2.MatchedPairs(), expected_pairs) << "trial " << trial;
  }
}

TEST(MatchTest, DependencyCapacityDoesNotAffectFixpoint) {
  // K bounds H by available memory (Sec. V-A); results must not change.
  auto ex = MakePaperExample();
  DatasetView view = DatasetView::Full(ex->dataset);
  std::vector<std::pair<Gid, Gid>> expected;
  for (size_t capacity : {size_t{0}, size_t{1}, size_t{4}, size_t{1} << 20}) {
    MatchOptions options;
    options.dependency_capacity = capacity;
    MatchContext ctx(ex->dataset);
    engine::Match(view, ex->rules, ex->registry, options, &ctx);
    if (expected.empty()) {
      expected = ctx.MatchedPairs();
      EXPECT_EQ(expected.size(), 6u);
    } else {
      EXPECT_EQ(ctx.MatchedPairs(), expected) << "capacity " << capacity;
    }
  }
}

TEST(MatchTest, MqoToggleDoesNotAffectFixpoint) {
  auto ex = MakePaperExample();
  DatasetView view = DatasetView::Full(ex->dataset);
  MatchContext with_mqo(ex->dataset);
  MatchOptions opt;
  opt.use_mqo = true;
  engine::Match(view, ex->rules, ex->registry, opt, &with_mqo);

  MatchContext without(ex->dataset);
  opt.use_mqo = false;
  MatchReport report = engine::Match(view, ex->rules, ex->registry, opt, &without);
  EXPECT_EQ(with_mqo.MatchedPairs(), without.MatchedPairs());
  // noMQO builds strictly more indices (per-rule duplication).
  EXPECT_GT(report.chase.indices_built, 0u);
}

TEST(MatchTest, FixpointIsStable) {
  // Running the engine again over the final Γ derives nothing new.
  auto ex = MakePaperExample();
  DatasetView view = DatasetView::Full(ex->dataset);
  MatchContext ctx(ex->dataset);
  engine::Match(view, ex->rules, ex->registry, {}, &ctx);
  uint64_t pairs = ctx.num_matched_pairs();
  size_t ml = ctx.num_validated_ml();

  ChaseEngine engine(&view, &ex->rules, &ex->registry, &ctx, {});
  Delta delta;
  engine.Deduce(&delta);
  EXPECT_EQ(ctx.num_matched_pairs(), pairs);
  EXPECT_EQ(ctx.num_validated_ml(), ml);
}

TEST(MatchTest, ProvenanceExplainsTheFraudChain) {
  auto ex = MakePaperExample();
  DatasetView view = DatasetView::Full(ex->dataset);
  MatchContext ctx(ex->dataset);
  MatchOptions options;
  options.enable_provenance = true;
  engine::Match(view, ex->rules, ex->registry, options, &ctx);
  ASSERT_NE(ctx.provenance(), nullptr);
  std::string why =
      ctx.provenance()->Explain(ex->dataset, ex->rules, ex->t[1], ex->t[2]);
  // The derivation of t1 ~ t2 goes through phi4 (deep step using prior
  // matches) and phi1.
  EXPECT_NE(why.find("phi4"), std::string::npos) << why;
  EXPECT_NE(why.find("phi1"), std::string::npos) << why;
  EXPECT_NE(why.find("using prior match"), std::string::npos) << why;
}

// ---------------------------------------------------------------------------
// Deep recursion chain: matches must propagate level by level.

struct ChainFixture {
  Dataset dataset;
  MlRegistry registry;
  RuleSet rules;
  std::vector<Gid> a, b;  // two copies of the chain
};

// Builds two duplicate chains of `depth` nodes; level-i matches require
// level-(i-1) matches (pure deep ER).
std::unique_ptr<ChainFixture> MakeChain(int depth) {
  auto fx = std::make_unique<ChainFixture>();
  size_t rel = fx->dataset.AddRelation(
      Schema("Node", {{"tag", ValueType::kString},
                      {"lvl", ValueType::kInt},
                      {"key", ValueType::kString},
                      {"pkey", ValueType::kString}}));
  for (int side = 0; side < 2; ++side) {
    std::string prefix = side == 0 ? "a" : "b";
    std::vector<Gid>& out = side == 0 ? fx->a : fx->b;
    for (int i = 0; i < depth; ++i) {
      out.push_back(fx->dataset.AppendTuple(
          rel, {Value("tag" + std::to_string(i)), Value(int64_t{i}),
                Value(prefix + std::to_string(i)),
                i == 0 ? Value::Null()
                       : Value(prefix + std::to_string(i - 1))}));
    }
  }
  const char* kRules =
      "base: Node(t) ^ Node(s) ^ t.lvl = 0 ^ s.lvl = 0 ^ t.tag = s.tag "
      "-> t.id = s.id\n"
      "step: Node(t) ^ Node(s) ^ Node(pt) ^ Node(ps) ^ t.pkey = pt.key ^ "
      "s.pkey = ps.key ^ t.tag = s.tag ^ pt.id = ps.id -> t.id = s.id\n";
  Status st = ParseRuleSet(kRules, fx->dataset, fx->registry, &fx->rules);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return fx;
}

class ChainTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ChainTest, AllLevelsMatchRegardlessOfDependencyCapacity) {
  constexpr int kDepth = 12;
  auto fx = MakeChain(kDepth);
  DatasetView view = DatasetView::Full(fx->dataset);
  MatchOptions options;
  options.dependency_capacity = GetParam();
  MatchContext ctx(fx->dataset);
  engine::Match(view, fx->rules, fx->registry, options, &ctx);
  for (int i = 0; i < kDepth; ++i) {
    EXPECT_TRUE(ctx.Matched(fx->a[i], fx->b[i])) << "level " << i;
  }
  // No cross-level contamination.
  EXPECT_FALSE(ctx.Matched(fx->a[0], fx->a[1]));
  EXPECT_FALSE(ctx.Matched(fx->a[2], fx->b[3]));
  EXPECT_EQ(ctx.num_matched_pairs(), static_cast<uint64_t>(kDepth));
}

INSTANTIATE_TEST_SUITE_P(CapacitySweep, ChainTest,
                         ::testing::Values(0, 1, 3, 1 << 20));

TEST(ChainTest2, MatchesNaiveOnChains) {
  auto fx = MakeChain(6);
  DatasetView view = DatasetView::Full(fx->dataset);
  MatchContext fast(fx->dataset);
  engine::Match(view, fx->rules, fx->registry, {}, &fast);
  MatchContext naive(fx->dataset);
  NaiveChase(view, fx->rules, fx->registry, &naive);
  EXPECT_EQ(fast.MatchedPairs(), naive.MatchedPairs());
}

// With the step rule enumerated first, every level's valuation is blocked
// on its parent's match and lands in H; the base rule's level-0 match then
// fires the whole chain as one cascade, 10^5 dependencies deep. Firing
// must not recurse per dependency (the ASan lane runs this on its stack).
TEST(ChainTest2, DeepDependencyCascadeFiresWithoutRecursion) {
  constexpr int kDepth = 100000;
  auto fx = MakeChain(kDepth);
  RuleSet step_first;
  step_first.Add(fx->rules.rule(1));
  step_first.Add(fx->rules.rule(0));
  DatasetView view = DatasetView::Full(fx->dataset);
  MatchContext ctx(fx->dataset);
  MatchReport report =
      engine::Match(view, step_first, fx->registry, {}, &ctx);
  EXPECT_GE(report.chase.deps_fired, static_cast<uint64_t>(kDepth - 1));
  EXPECT_EQ(ctx.num_matched_pairs(), static_cast<uint64_t>(kDepth));
  EXPECT_TRUE(ctx.Matched(fx->a[kDepth - 1], fx->b[kDepth - 1]));
  EXPECT_FALSE(ctx.Matched(fx->a[kDepth - 1], fx->a[kDepth - 2]));
}

// ---------------------------------------------------------------------------
// Validated-ML-prediction semantics: a rule consequence can validate an ML
// predicate that the classifier itself rejects, enabling another rule.

TEST(ValidatedMlTest, ValidationEnablesDownstreamRule) {
  Dataset d;
  size_t rel = d.AddRelation(Schema("R", {{"a", ValueType::kString},
                                          {"b", ValueType::kString},
                                          {"c", ValueType::kString}}));
  Gid x = d.AppendTuple(rel, {Value("k"), Value("uuu"), Value("z")});
  Gid y = d.AppendTuple(rel, {Value("k"), Value("vvv"), Value("z")});

  MlRegistry registry;
  // Threshold 2.0: the classifier never predicts true on its own.
  registry.Register(std::make_unique<TokenJaccardClassifier>("MX", 2.0));

  // Rule order puts the consumer first, so the validation must flow through
  // IncDeduce's ML seeding (or H) to be seen.
  RuleSet rules;
  Status st = ParseRuleSet(
      "consume: R(t) ^ R(s) ^ MX(t.b, s.b) ^ t.c = s.c -> t.id = s.id\n"
      "produce: R(t) ^ R(s) ^ t.a = s.a -> MX(t.b, s.b)\n",
      d, registry, &rules);
  ASSERT_TRUE(st.ok()) << st.ToString();

  DatasetView view = DatasetView::Full(d);
  MatchContext ctx(d);
  engine::Match(view, rules, registry, {}, &ctx);
  EXPECT_TRUE(ctx.Matched(x, y));

  MatchContext naive(d);
  NaiveChase(view, rules, registry, &naive);
  EXPECT_EQ(ctx.MatchedPairs(), naive.MatchedPairs());

  // Without the producer rule, no match.
  RuleSet only_consumer;
  only_consumer.Add(rules.rule(0));
  MatchContext ctx2(d);
  engine::Match(view, only_consumer, registry, {}, &ctx2);
  EXPECT_FALSE(ctx2.Matched(x, y));
}

// ---------------------------------------------------------------------------
// Randomized equivalence: Match == NaiveChase on random small instances.

TEST(RandomizedChaseTest, MatchEqualsNaiveOnRandomInstances) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    Dataset d;
    size_t people = d.AddRelation(Schema("P", {{"name", ValueType::kString},
                                               {"city", ValueType::kString},
                                               {"ref", ValueType::kString}}));
    size_t events = d.AddRelation(Schema("E", {{"who", ValueType::kString},
                                               {"what", ValueType::kString}}));
    // Small alphabets force plenty of accidental joins.
    for (int i = 0; i < 12; ++i) {
      d.AppendTuple(people, {Value("n" + std::to_string(rng.Uniform(4))),
                             Value("c" + std::to_string(rng.Uniform(3))),
                             Value("r" + std::to_string(rng.Uniform(5)))});
    }
    for (int i = 0; i < 10; ++i) {
      d.AppendTuple(events, {Value("r" + std::to_string(rng.Uniform(5))),
                             Value("w" + std::to_string(rng.Uniform(3)))});
    }
    MlRegistry registry;
    registry.Register(std::make_unique<EditSimilarityClassifier>("MS", 0.5));
    RuleSet rules;
    Status st = ParseRuleSet(
        "r1: P(t) ^ P(s) ^ t.name = s.name ^ t.city = s.city -> t.id = s.id\n"
        "r2: P(t) ^ P(s) ^ E(u) ^ E(v) ^ t.ref = u.who ^ s.ref = v.who ^ "
        "u.what = v.what ^ MS(t.name, s.name) -> t.id = s.id\n"
        "r3: P(t) ^ P(s) ^ P(w) ^ t.id = w.id ^ s.id = w.id -> t.id = s.id\n",
        d, registry, &rules);
    ASSERT_TRUE(st.ok()) << st.ToString();

    DatasetView view = DatasetView::Full(d);
    MatchContext fast(d);
    engine::Match(view, rules, registry, {}, &fast);
    MatchContext naive(d);
    NaiveChase(view, rules, registry, &naive);
    EXPECT_EQ(fast.MatchedPairs(), naive.MatchedPairs()) << "seed " << seed;
    EXPECT_EQ(fast.num_validated_ml(), naive.num_validated_ml())
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace dcer
