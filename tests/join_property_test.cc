#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "chase/join.h"
#include "chase/naive_chase.h"
#include "common/rng.h"
#include "rules/parser.h"

namespace dcer {
namespace {

// The consequence variables a RuleJoiner never binds to one row: those of
// an id consequence `t.id = s.id` with t ≠ s over one relation. {-1, -1}
// for every other rule.
std::pair<int, int> DistinctConsequenceVars(const Rule& rule) {
  const Predicate& c = rule.consequence();
  if (c.kind == PredicateKind::kIdEq && c.lhs.var != c.rhs.var &&
      rule.var_relation(c.lhs.var) == rule.var_relation(c.rhs.var)) {
    return {c.lhs.var, c.rhs.var};
  }
  return {-1, -1};
}

// Brute-force enumeration of all bindings of `rule` whose constant/equality
// predicates hold, together with the set of unsatisfied id/ML predicate
// indices — the ground truth the RuleJoiner must reproduce exactly. An id
// rule's two consequence variables over one relation never share a row: such
// a valuation would equate a tuple with itself.
using Binding = std::vector<uint32_t>;
using Found = std::set<std::pair<Binding, std::vector<int>>>;

Found BruteForce(const Dataset& d, const Rule& rule, const MatchContext& ctx) {
  Found out;
  const auto [lhs, rhs] = DistinctConsequenceVars(rule);
  std::vector<uint32_t> rows(rule.num_vars(), 0);
  std::vector<size_t> sizes(rule.num_vars());
  for (size_t v = 0; v < rule.num_vars(); ++v) {
    sizes[v] = d.relation(rule.var_relation(static_cast<int>(v))).num_rows();
    if (sizes[v] == 0) return out;
  }
  std::vector<size_t> idx(rule.num_vars(), 0);
  for (;;) {
    for (size_t v = 0; v < rule.num_vars(); ++v) {
      rows[v] = static_cast<uint32_t>(idx[v]);
    }
    bool hard_ok = lhs < 0 || rows[lhs] != rows[rhs];
    std::vector<int> unsat;
    for (size_t i = 0; i < rule.preconditions().size() && hard_ok; ++i) {
      const Predicate& p = rule.preconditions()[i];
      switch (p.kind) {
        case PredicateKind::kConstEq: {
          const Relation& r = d.relation(rule.var_relation(p.lhs.var));
          hard_ok = EqJoinable(r.at(rows[p.lhs.var], p.lhs.attr), p.constant);
          break;
        }
        case PredicateKind::kAttrEq: {
          const Relation& rl = d.relation(rule.var_relation(p.lhs.var));
          const Relation& rr = d.relation(rule.var_relation(p.rhs.var));
          hard_ok = EqJoinable(rl.at(rows[p.lhs.var], p.lhs.attr),
                               rr.at(rows[p.rhs.var], p.rhs.attr));
          break;
        }
        case PredicateKind::kIdEq: {
          Gid a = d.relation(rule.var_relation(p.lhs.var)).gid(rows[p.lhs.var]);
          Gid b = d.relation(rule.var_relation(p.rhs.var)).gid(rows[p.rhs.var]);
          if (!ctx.Matched(a, b)) unsat.push_back(static_cast<int>(i));
          break;
        }
        case PredicateKind::kMl: {
          // The test rules below use a classifier that never fires, so an
          // ML precondition is unsatisfied unless previously validated.
          unsat.push_back(static_cast<int>(i));
          break;
        }
      }
    }
    if (hard_ok) out.insert({rows, unsat});
    size_t v = 0;
    for (; v < idx.size(); ++v) {
      if (++idx[v] < sizes[v]) break;
      idx[v] = 0;
    }
    if (v == idx.size()) break;
  }
  return out;
}

struct Fixture {
  Dataset d;
  MlRegistry registry;
  RuleSet rules;
};

// Random two-relation dataset with small value domains (lots of accidental
// joins and NULLs) plus a spread of rule shapes.
std::unique_ptr<Fixture> MakeFixture(uint64_t seed) {
  auto fx = std::make_unique<Fixture>();
  Rng rng(seed);
  size_t people = fx->d.AddRelation(
      Schema("P", {{"name", ValueType::kString},
                   {"city", ValueType::kString},
                   {"ref", ValueType::kString}}));
  size_t events = fx->d.AddRelation(Schema("E", {{"who", ValueType::kString},
                                                 {"what", ValueType::kString}}));
  auto val = [&](const char* prefix, uint64_t n) {
    if (rng.Bernoulli(0.15)) return Value::Null();
    return Value(std::string(prefix) + std::to_string(rng.Uniform(n)));
  };
  for (int i = 0; i < 12; ++i) {
    fx->d.AppendTuple(people, {val("n", 3), val("c", 2), val("r", 4)});
  }
  for (int i = 0; i < 9; ++i) {
    fx->d.AppendTuple(events, {val("r", 4), val("w", 2)});
  }
  // A classifier that never fires (score 0..1 threshold 2): ML predicates
  // stay unsatisfied unless validated, making unsat sets deterministic.
  fx->registry.Register(std::make_unique<TokenJaccardClassifier>("MN", 2.0));
  const char* kRules =
      "r1: P(t) ^ P(s) ^ t.name = s.name -> t.id = s.id\n"
      "r2: P(t) ^ P(s) ^ t.name = s.name ^ t.city = s.city -> t.id = s.id\n"
      "r3: P(t) ^ E(u) ^ t.ref = u.who -> t.id = t.id\n"
      "r4: P(t) ^ P(s) ^ E(u) ^ E(v) ^ t.ref = u.who ^ s.ref = v.who ^ "
      "u.what = v.what -> t.id = s.id\n"
      "r5: P(t) ^ P(s) ^ t.name = s.name ^ MN(t.city, s.city) -> t.id = s.id\n"
      "r6: P(t) ^ P(s) ^ P(w) ^ t.id = w.id ^ s.id = w.id -> t.id = s.id\n"
      "r7: P(t) ^ P(s) ^ t.name = s.city -> t.id = s.id\n"
      "r8: P(t) ^ P(s) ^ t.name = s.name -> MN(t.city, s.city)\n";
  Status st = ParseRuleSet(kRules, fx->d, fx->registry, &fx->rules);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return fx;
}

class JoinPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JoinPropertyTest, EnumerationMatchesBruteForce) {
  auto fx = MakeFixture(GetParam());
  DatasetView view = DatasetView::Full(fx->d);
  MatchContext ctx(fx->d);
  // Make the id-precondition landscape non-trivial.
  ctx.Apply(Fact::IdMatch(0, 1), nullptr);
  ctx.Apply(Fact::IdMatch(2, 3), nullptr);

  for (const Rule& rule : fx->rules.rules()) {
    DatasetIndex index(&view);
    RuleJoiner joiner(&index, &rule, &fx->registry, &ctx);
    Found found;
    joiner.Enumerate([&](const std::vector<uint32_t>& rows,
                         const std::vector<int>& unsat) {
      std::vector<int> sorted = unsat;
      std::sort(sorted.begin(), sorted.end());
      EXPECT_TRUE(found.insert({rows, sorted}).second)
          << "duplicate valuation in " << rule.name();
      return true;
    });
    Found expected = BruteForce(fx->d, rule, ctx);
    EXPECT_EQ(found, expected) << rule.name() << " seed " << GetParam();
  }
}

TEST_P(JoinPropertyTest, SeededEnumerationIsAFilterOfFullEnumeration) {
  auto fx = MakeFixture(GetParam() + 1000);
  DatasetView view = DatasetView::Full(fx->d);
  MatchContext ctx(fx->d);
  const Rule& rule = fx->rules.rule(3);  // r4: 4 variables
  DatasetIndex index(&view);
  RuleJoiner joiner(&index, &rule, &fx->registry, &ctx);

  Found all;
  joiner.Enumerate([&](const std::vector<uint32_t>& rows,
                       const std::vector<int>& unsat) {
    all.insert({rows, unsat});
    return true;
  });

  // Seed (t, s) with every row pair; the union of seeded enumerations must
  // equal the full enumeration, with each seeded subset exactly the filter.
  size_t num_people = fx->d.relation(0).num_rows();
  Found unioned;
  for (uint32_t ra = 0; ra < num_people; ++ra) {
    for (uint32_t rb = 0; rb < num_people; ++rb) {
      std::pair<int, uint32_t> seeds[2] = {{0, ra}, {1, rb}};
      joiner.EnumerateSeeded(seeds, [&](const std::vector<uint32_t>& rows,
                                        const std::vector<int>& unsat) {
        EXPECT_EQ(rows[0], ra);
        EXPECT_EQ(rows[1], rb);
        EXPECT_TRUE(all.count({rows, unsat}))
            << "seeded valuation not in full enumeration";
        unioned.insert({rows, unsat});
        return true;
      });
    }
  }
  EXPECT_EQ(unioned, all);
}

// A joiner given per-variable role bitmaps (a DMatch Hypercube cell)
// enumerates exactly the valuations whose every variable is bound to a row
// of its own role, both in full and in seeded enumeration.
TEST_P(JoinPropertyTest, RoleBitmapsFilterEveryBinding) {
  auto fx = MakeFixture(GetParam() + 3000);
  DatasetView view = DatasetView::Full(fx->d);
  MatchContext ctx(fx->d);
  Rng rng(GetParam());
  for (const Rule& rule : fx->rules.rules()) {
    std::vector<Bitmap> roles;
    for (size_t v = 0; v < rule.num_vars(); ++v) {
      const Relation& rel =
          fx->d.relation(rule.var_relation(static_cast<int>(v)));
      Bitmap& role = roles.emplace_back(rel.num_rows());
      for (uint32_t row = 0; row < rel.num_rows(); ++row) {
        if (rng.Bernoulli(0.6)) role.Set(row);
      }
    }
    auto in_roles = [&](const Binding& rows) {
      for (size_t v = 0; v < rows.size(); ++v) {
        if (!roles[v].Test(rows[v])) return false;
      }
      return true;
    };
    Found expected;
    for (const auto& entry : BruteForce(fx->d, rule, ctx)) {
      if (in_roles(entry.first)) expected.insert(entry);
    }

    DatasetIndex index(&view);
    RuleJoiner joiner(&index, &rule, &fx->registry, &ctx, roles);
    Found found;
    joiner.Enumerate([&](const std::vector<uint32_t>& rows,
                         const std::vector<int>& unsat) {
      std::vector<int> sorted = unsat;
      std::sort(sorted.begin(), sorted.end());
      found.insert({rows, sorted});
      return true;
    });
    EXPECT_EQ(found, expected) << rule.name() << " seed " << GetParam();

    // Seeding variable 0 with every row, in its role or not, recovers the
    // same set: a seed outside its role yields nothing.
    Found seeded;
    const size_t rows0 =
        fx->d.relation(rule.var_relation(0)).num_rows();
    for (uint32_t row = 0; row < rows0; ++row) {
      std::pair<int, uint32_t> seed[1] = {{0, row}};
      joiner.EnumerateSeeded(seed, [&](const std::vector<uint32_t>& rows,
                                       const std::vector<int>& unsat) {
        EXPECT_TRUE(roles[0].Test(row)) << rule.name() << " row " << row;
        std::vector<int> sorted = unsat;
        std::sort(sorted.begin(), sorted.end());
        seeded.insert({rows, sorted});
        return true;
      });
    }
    EXPECT_EQ(seeded, expected) << rule.name() << " seed " << GetParam();
  }
}

// No rule's callback ever sees its two distinct consequence variables on
// one row, whether enumerated in full or seeded, and seeding both of them
// with the same row yields nothing at all.
TEST_P(JoinPropertyTest, NeverBindsBothConsequenceVariablesToOneRow) {
  auto fx = MakeFixture(GetParam() + 4000);
  DatasetView view = DatasetView::Full(fx->d);
  MatchContext ctx(fx->d);
  size_t pruned_rules = 0;
  size_t seen = 0;
  for (const Rule& rule : fx->rules.rules()) {
    const auto [lhs, rhs] = DistinctConsequenceVars(rule);
    if (lhs < 0) continue;
    ++pruned_rules;
    DatasetIndex index(&view);
    RuleJoiner joiner(&index, &rule, &fx->registry, &ctx);
    auto distinct = [&](const std::vector<uint32_t>& rows,
                        const std::vector<int>&) {
      EXPECT_NE(rows[lhs], rows[rhs]) << rule.name();
      ++seen;
      return true;
    };
    joiner.Enumerate(distinct);
    const uint32_t num_rows =
        static_cast<uint32_t>(fx->d.relation(rule.var_relation(lhs)).num_rows());
    for (uint32_t row = 0; row < num_rows; ++row) {
      std::pair<int, uint32_t> one[1] = {{lhs, row}};
      joiner.EnumerateSeeded(one, distinct);
      std::pair<int, uint32_t> both[2] = {{lhs, row}, {rhs, row}};
      joiner.EnumerateSeeded(both, [&](const std::vector<uint32_t>&,
                                       const std::vector<int>&) {
        ADD_FAILURE() << rule.name() << " enumerated a reflexive seed, row "
                      << row;
        return true;
      });
    }
  }
  EXPECT_GT(seen, 0u) << "seed " << GetParam();
  EXPECT_EQ(pruned_rules, 6u);  // all but r3 (t.id = t.id) and r8 (ML)
}

// An ML consequence is a validated fact even on one tuple, so an ML rule
// over one relation still enumerates its reflexive valuations.
TEST_P(JoinPropertyTest, MlConsequenceKeepsReflexiveValuations) {
  auto fx = MakeFixture(GetParam() + 5000);
  DatasetView view = DatasetView::Full(fx->d);
  MatchContext ctx(fx->d);
  const Rule& rule = fx->rules.rule(7);  // r8: ... -> MN(t.city, s.city)
  ASSERT_EQ(rule.consequence().kind, PredicateKind::kMl);
  DatasetIndex index(&view);
  RuleJoiner joiner(&index, &rule, &fx->registry, &ctx);
  size_t reflexive = 0;
  joiner.Enumerate([&](const std::vector<uint32_t>& rows,
                       const std::vector<int>&) {
    if (rows[0] == rows[1]) ++reflexive;
    return true;
  });
  // Every row whose name is not NULL joins itself on t.name = s.name.
  const Relation& people = fx->d.relation(0);
  size_t named = 0;
  for (uint32_t row = 0; row < people.num_rows(); ++row) {
    if (!people.at(row, 0).is_null()) ++named;
  }
  EXPECT_GT(named, 0u);
  EXPECT_EQ(reflexive, named);
}

TEST_P(JoinPropertyTest, EarlyStopIsRespected) {
  auto fx = MakeFixture(GetParam() + 2000);
  DatasetView view = DatasetView::Full(fx->d);
  MatchContext ctx(fx->d);
  const Rule& rule = fx->rules.rule(0);
  DatasetIndex index(&view);
  RuleJoiner joiner(&index, &rule, &fx->registry, &ctx);
  size_t count = 0;
  joiner.Enumerate([&](const std::vector<uint32_t>&,
                       const std::vector<int>&) {
    return ++count < 3;  // stop after three valuations
  });
  EXPECT_LE(count, 3u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace dcer
