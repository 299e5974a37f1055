#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "datagen/paper_example.h"
#include "datagen/tfacc_lite.h"
#include "partition/hypart.h"
#include "partition/balance.h"
#include "rules/parser.h"

namespace dcer {
namespace {

// ---------------------------------------------------------------------------
// Distinct variables (Sec. IV).

TEST(DistinctVarsTest, Phi1HasFiveDistinctVariablesLikeExample5) {
  // The paper's Example 5: φ1 has five distinct variables — tc.name,
  // tc.phone, tc.addr (each merged across the two customer variables) plus
  // tc.id and tc2.id (ids are never merged).
  auto ex = MakePaperExample();
  std::vector<DistinctVar> vars = ComputeDistinctVars(ex->rules.rule(0));
  EXPECT_EQ(vars.size(), 5u);
  int merged_attr_classes = 0;
  int id_classes = 0;
  for (const DistinctVar& dv : vars) {
    if (dv.occs[0].kind == Occurrence::Kind::kAttr) {
      EXPECT_EQ(dv.occs.size(), 2u);  // tc.X merged with tc2.X
      ++merged_attr_classes;
    } else if (dv.occs[0].kind == Occurrence::Kind::kId) {
      EXPECT_EQ(dv.occs.size(), 1u);  // ids stay separate
      ++id_classes;
    }
  }
  EXPECT_EQ(merged_attr_classes, 3);
  EXPECT_EQ(id_classes, 2);
}

TEST(DistinctVarsTest, MlSidesAreSeparateDimensions) {
  auto ex = MakePaperExample();
  // φ2: pname equality (1 merged class) + two ML sides + two ids.
  std::vector<DistinctVar> vars = ComputeDistinctVars(ex->rules.rule(1));
  int ml_sides = 0;
  for (const DistinctVar& dv : vars) {
    if (dv.occs[0].kind == Occurrence::Kind::kMlSide) {
      EXPECT_EQ(dv.occs.size(), 1u);
      ++ml_sides;
    }
  }
  EXPECT_EQ(ml_sides, 2);
  EXPECT_EQ(vars.size(), 5u);
}

TEST(DistinctVarsTest, TouchesReportsVariables) {
  auto ex = MakePaperExample();
  std::vector<DistinctVar> vars = ComputeDistinctVars(ex->rules.rule(0));
  for (const DistinctVar& dv : vars) {
    if (dv.occs[0].kind == Occurrence::Kind::kAttr) {
      EXPECT_TRUE(dv.Touches(0));
      EXPECT_TRUE(dv.Touches(1));
    }
  }
}

// ---------------------------------------------------------------------------
// MQO hash assignment.

TEST(MqoTest, SharedPredicatesShareHashFunctions) {
  auto ex = MakePaperExample();
  MqoPlan with = AssignHash(ex->rules, /*use_mqo=*/true);
  MqoPlan without = AssignHash(ex->rules, /*use_mqo=*/false);
  // φ1/φ3 share the phone predicate, φ1/φ4 share addr: MQO must reuse.
  EXPECT_GT(with.shared_classes, 0u);
  EXPECT_LT(with.num_hash_functions, without.num_hash_functions);
  EXPECT_EQ(without.shared_classes, 0u);
  // Every class got a function, and dims are sorted by O_h.
  for (const RulePlan& rp : with.rules) {
    for (size_t d = 0; d < rp.dims.size(); ++d) {
      EXPECT_GE(rp.dims[d].hash_fn, 0);
      if (d > 0) EXPECT_LE(rp.dims[d - 1].hash_fn, rp.dims[d].hash_fn);
    }
  }
}

TEST(MqoTest, RuleOrderPutsSharingRulesFirst) {
  auto ex = MakePaperExample();
  MqoPlan plan = AssignHash(ex->rules, true);
  ASSERT_EQ(plan.rule_order.size(), ex->rules.size());
  // φ1 (index 0) shares predicates with φ3 and φ4 — it must come before
  // rules that share with no one (φ2 at index 1).
  size_t pos_phi1 = 0;
  size_t pos_phi2 = 0;
  for (size_t i = 0; i < plan.rule_order.size(); ++i) {
    if (plan.rule_order[i] == 0) pos_phi1 = i;
    if (plan.rule_order[i] == 1) pos_phi2 = i;
  }
  EXPECT_LT(pos_phi1, pos_phi2);
}

// ---------------------------------------------------------------------------
// Hypercube grids.

TEST(HypercubeTest, GridProductEqualsCellCountAndPrefersJoinDims) {
  auto ex = MakePaperExample();
  MqoPlan plan = AssignHash(ex->rules, true);
  HypercubeGrid grid =
      HypercubeGrid::Build(ex->dataset, ex->rules.rule(0), plan.rules[0], 8);
  int prod = 1;
  for (int s : grid.dim_sizes) prod *= s;
  EXPECT_EQ(prod, 8);
  EXPECT_EQ(grid.num_cells, 8);
  // φ1's equality dims touch both variables (no replication); the greedy
  // sizing must place all capacity there, keeping id dims at 1.
  for (size_t d = 0; d < plan.rules[0].dims.size(); ++d) {
    if (plan.rules[0].dims[d].occs[0].kind == Occurrence::Kind::kId) {
      EXPECT_EQ(grid.dim_sizes[d], 1) << "id dim " << d;
    }
  }
}

TEST(HypercubeTest, HashEvaluatorCachesRepeatedEvaluations) {
  HashEvaluator h;
  uint64_t a = h.Eval(1, 42);
  uint64_t b = h.Eval(1, 42);
  EXPECT_EQ(a, b);
  EXPECT_EQ(h.num_computations(), 1u);
  EXPECT_EQ(h.num_hits(), 1u);
  EXPECT_NE(h.Eval(2, 42), a);  // independent functions
}

// ---------------------------------------------------------------------------
// Balancing.

TEST(BalanceTest, LptBeatsRoundRobinOnSkewedBlocks) {
  std::vector<uint64_t> sizes = {100, 1, 1, 1, 90, 1, 1, 1, 80, 1, 1, 1};
  std::vector<int> lpt = BalanceBlocks(sizes, 3);
  std::vector<int> rr(sizes.size());
  for (size_t i = 0; i < sizes.size(); ++i) rr[i] = static_cast<int>(i % 3);
  EXPECT_LT(LoadSkew(sizes, lpt, 3), LoadSkew(sizes, rr, 3));
  EXPECT_LE(LoadSkew(sizes, lpt, 3), 1.2);
}

TEST(BalanceTest, AllBlocksAssignedWithinRange) {
  std::vector<uint64_t> sizes(50, 7);
  std::vector<int> a = BalanceBlocks(sizes, 8);
  ASSERT_EQ(a.size(), sizes.size());
  for (int w : a) {
    EXPECT_GE(w, 0);
    EXPECT_LT(w, 8);
  }
  EXPECT_LE(LoadSkew(sizes, a, 8), 8.0 / 7.0 + 1e-9);
}

// ---------------------------------------------------------------------------
// HyPart end-to-end.

TEST(HyPartTest, EveryTupleIsHostedSomewhere) {
  auto ex = MakePaperExample();
  HyPartOptions options;
  options.num_workers = 3;
  Partition p = HyPart(ex->dataset, ex->rules, options);
  ASSERT_EQ(p.fragments.size(), 3u);
  ASSERT_EQ(p.hosts.size(), ex->dataset.num_tuples());
  for (Gid g = 0; g < ex->dataset.num_tuples(); ++g) {
    EXPECT_FALSE(p.hosts[g].empty()) << "gid " << g;
    for (uint32_t w : p.hosts[g]) {
      EXPECT_TRUE(p.fragments[w].Hosts(g));
    }
  }
  EXPECT_GE(p.stats.replication_factor, 1.0);
  EXPECT_GT(p.stats.hash_computations, 0u);
}

TEST(HyPartTest, MqoReducesHashComputations) {
  auto ex = MakePaperExample();
  HyPartOptions options;
  options.num_workers = 4;
  options.use_mqo = true;
  Partition with = HyPart(ex->dataset, ex->rules, options);
  options.use_mqo = false;
  Partition without = HyPart(ex->dataset, ex->rules, options);
  EXPECT_LT(with.stats.hash_computations, without.stats.hash_computations);
  EXPECT_LE(with.stats.num_hash_functions, without.stats.num_hash_functions);
}

// The Lemma 6 locality property: every valuation whose constant/equality
// predicates hold is entirely contained in at least one fragment — and in
// the role rows of exactly one (worker, block) of its rule, so DMatch
// enumerates it exactly once.
class LocalityTest : public ::testing::TestWithParam<int> {};

TEST_P(LocalityTest, SatisfiedValuationsAreLocal) {
  Rng rng(99);
  Dataset d;
  size_t people = d.AddRelation(Schema("P", {{"name", ValueType::kString},
                                             {"city", ValueType::kString},
                                             {"ref", ValueType::kString}}));
  size_t events = d.AddRelation(Schema("E", {{"who", ValueType::kString},
                                             {"what", ValueType::kString}}));
  for (int i = 0; i < 40; ++i) {
    d.AppendTuple(people, {Value("n" + std::to_string(rng.Uniform(6))),
                           Value("c" + std::to_string(rng.Uniform(4))),
                           Value("r" + std::to_string(rng.Uniform(8)))});
  }
  for (int i = 0; i < 30; ++i) {
    d.AppendTuple(events, {Value("r" + std::to_string(rng.Uniform(8))),
                           Value("w" + std::to_string(rng.Uniform(4)))});
  }
  MlRegistry registry;
  registry.Register(std::make_unique<EditSimilarityClassifier>("MS", 0.5));
  RuleSet rules;
  ASSERT_TRUE(ParseRuleSet(
                  "r1: P(t) ^ P(s) ^ t.name = s.name ^ t.city = s.city -> "
                  "t.id = s.id\n"
                  "r2: P(t) ^ P(s) ^ E(u) ^ E(v) ^ t.ref = u.who ^ "
                  "s.ref = v.who ^ u.what = v.what ^ t.id = s.id -> "
                  "t.id = s.id\n"
                  "r3: P(t) ^ P(s) ^ MS(t.name, s.name) ^ t.city = s.city -> "
                  "t.id = s.id\n",
                  d, registry, &rules)
                  .ok());

  HyPartOptions options;
  options.num_workers = GetParam();
  Partition p = HyPart(d, rules, options);

  // Brute-force all valuations satisfying const/equality predicates.
  for (size_t ri = 0; ri < rules.size(); ++ri) {
    const Rule& rule = rules.rule(ri);
    std::vector<uint32_t> rows(rule.num_vars(), 0);
    std::vector<size_t> sizes(rule.num_vars());
    for (size_t v = 0; v < rule.num_vars(); ++v) {
      sizes[v] = d.relation(rule.var_relation(v)).num_rows();
    }
    std::vector<size_t> idx(rule.num_vars(), 0);
    bool done = false;
    while (!done) {
      for (size_t v = 0; v < rule.num_vars(); ++v) {
        rows[v] = static_cast<uint32_t>(idx[v]);
      }
      bool sat = true;
      for (const Predicate& pr : rule.preconditions()) {
        if (pr.kind == PredicateKind::kAttrEq) {
          const Value& a = d.relation(rule.var_relation(pr.lhs.var))
                               .at(rows[pr.lhs.var], pr.lhs.attr);
          const Value& b = d.relation(rule.var_relation(pr.rhs.var))
                               .at(rows[pr.rhs.var], pr.rhs.attr);
          if (!EqJoinable(a, b)) {
            sat = false;
            break;
          }
        } else if (pr.kind == PredicateKind::kConstEq) {
          const Value& a = d.relation(rule.var_relation(pr.lhs.var))
                               .at(rows[pr.lhs.var], pr.lhs.attr);
          if (!EqJoinable(a, pr.constant)) {
            sat = false;
            break;
          }
        }
      }
      if (sat) {
        // Some fragment must host the whole valuation.
        bool local = false;
        for (const DatasetView& frag : p.fragments) {
          bool all = true;
          for (size_t v = 0; v < rule.num_vars(); ++v) {
            Gid g = d.relation(rule.var_relation(v)).gid(rows[v]);
            if (!frag.Hosts(g)) {
              all = false;
              break;
            }
          }
          if (all) {
            local = true;
            break;
          }
        }
        EXPECT_TRUE(local) << "non-local valuation of " << rule.name();
        if (!local) return;  // avoid error spam
        int owners = 0;
        for (const auto& worker_blocks : p.rule_blocks) {
          for (const RuleBlock& block : worker_blocks[ri]) {
            bool all = true;
            for (size_t v = 0; v < rule.num_vars() && all; ++v) {
              all = block.roles[v].Test(rows[v]);
            }
            if (all) ++owners;
          }
        }
        EXPECT_EQ(owners, 1) << "valuation of " << rule.name() << " owned by "
                             << owners << " blocks";
        if (owners != 1) return;
      }
      // Advance the odometer.
      size_t v = 0;
      for (; v < idx.size(); ++v) {
        if (++idx[v] < sizes[v]) break;
        idx[v] = 0;
      }
      done = v == idx.size();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, LocalityTest,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(HyPartTest, RuleBlockViewsAreSubsetsOfTheUnionFragment) {
  auto ex = MakePaperExample();
  HyPartOptions options;
  options.num_workers = 4;
  Partition p = HyPart(ex->dataset, ex->rules, options);
  ASSERT_EQ(p.rule_blocks.size(), 4u);
  for (int w = 0; w < 4; ++w) {
    ASSERT_EQ(p.rule_blocks[w].size(), ex->rules.size());
    for (size_t ri = 0; ri < ex->rules.size(); ++ri) {
      const Rule& rule = ex->rules.rule(ri);
      for (const RuleBlock& block : p.rule_blocks[w][ri]) {
        const DatasetView& view = block.view;
        EXPECT_GT(view.num_tuples(), 0u);  // empty blocks are dropped
        for (size_t rel = 0; rel < view.num_relations(); ++rel) {
          for (uint32_t row : view.rows(rel)) {
            Gid g = ex->dataset.relation(rel).gid(row);
            EXPECT_TRUE(p.fragments[w].Hosts(g));
          }
        }
        // Role rows partition nothing away: each lies in the block's view.
        ASSERT_EQ(block.roles.size(), rule.num_vars());
        for (size_t v = 0; v < rule.num_vars(); ++v) {
          const Relation& relation =
              ex->dataset.relation(rule.var_relation(static_cast<int>(v)));
          size_t in_role = 0;
          for (uint32_t row = 0; row < relation.num_rows(); ++row) {
            if (!block.roles[v].Test(row)) continue;
            ++in_role;
            EXPECT_TRUE(view.Hosts(relation.gid(row)));
          }
          EXPECT_EQ(in_role, block.roles[v].count());
        }
      }
    }
  }
}

TEST(HyPartTest, PerWorkerWorkShrinksWithMoreWorkers) {
  // The scalability precondition (Thm. 7): the largest per-worker share of
  // the rules' evaluation scopes must shrink as workers are added
  // (per-block evaluation, not per merged fragment). Needs a realistically
  // sized workload — on tiny data broadcast replication dominates.
  TfaccOptions options;
  options.scale = 0.5;
  auto gd = MakeTfacc(options);
  // Join work within a block is quadratic in its size (pairwise
  // comparisons), so the per-worker proxy is Σ |block|² — tuple counts alone
  // stay flat because Hypercube replication grows with the grid.
  auto max_rule_scope = [&](int n) {
    HyPartOptions hp;
    hp.num_workers = n;
    Partition p = HyPart(gd->dataset, gd->rules, hp);
    uint64_t worst = 0;
    for (int w = 0; w < n; ++w) {
      uint64_t load = 0;
      for (const auto& blocks : p.rule_blocks[w]) {
        for (const RuleBlock& block : blocks) {
          load += static_cast<uint64_t>(block.view.num_tuples()) *
                  block.view.num_tuples();
        }
      }
      worst = std::max(worst, load);
    }
    return worst;
  };
  uint64_t at2 = max_rule_scope(2);
  uint64_t at16 = max_rule_scope(16);
  EXPECT_LT(at16 * 2, at2) << "n=2: " << at2 << ", n=16: " << at16;
}

TEST(HyPartTest, UnusedRelationsAreSpreadNotReplicated) {
  auto ex = MakePaperExample();
  // Only φ1 (customers): shops/products/orders are untouched by rules.
  RuleSet only_phi1;
  only_phi1.Add(ex->rules.rule(0));
  HyPartOptions options;
  options.num_workers = 4;
  Partition p = HyPart(ex->dataset, only_phi1, options);
  for (Gid g = 0; g < ex->dataset.num_tuples(); ++g) {
    if (ex->dataset.relation_of(g) != 0) {
      EXPECT_EQ(p.hosts[g].size(), 1u) << "gid " << g;
    }
  }
}

}  // namespace
}  // namespace dcer
