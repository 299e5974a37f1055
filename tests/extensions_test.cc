#include <gtest/gtest.h>

#include "chase/match.h"
#include "datagen/ecommerce.h"
#include "datagen/paper_example.h"
#include "rules/parser.h"
#include "service/resolver.h"

namespace dcer {
namespace {

// ---------------------------------------------------------------------------
// Incremental ER over data updates ΔD (Sec. V-A Remark), via the Resolver
// facade (the old IncrementalMatcher shim is gone).

TEST(IncrementalTest, BatchAppendsEqualFromScratchChase) {
  // Build the paper example incrementally, a few tuples at a time, in a
  // fresh resolver; after each batch Γ must equal a from-scratch chase over
  // the grown prefix.
  auto full = MakePaperExample();

  Dataset& src = full->dataset;
  Dataset dst;
  for (size_t r = 0; r < src.num_relations(); ++r) {
    dst.AddRelation(src.relation(r).schema());
  }
  RuleSet rules;
  ASSERT_TRUE(ParseRuleSet(full->rules.ToString(src), dst, full->registry,
                           &rules)
                  .ok());

  auto resolver = Resolver::Open(std::move(dst), rules, &full->registry);
  EXPECT_EQ(resolver->Snapshot()->num_matched_pairs(), 0u);  // empty dataset

  // Append tuples in the paper's order, in batches of three.
  TupleBatch batch;
  for (Gid g = 0; g < src.num_tuples(); ++g) {
    TupleLoc loc = src.loc(g);
    batch.Add(loc.relation, src.relation(loc.relation).row(loc.row));
    if (batch.size() == 3 || g + 1 == src.num_tuples()) {
      resolver->Append(std::move(batch));
      batch = TupleBatch{};
      // Cross-check against a from-scratch chase of the prefix.
      const Dataset& grown = resolver->dataset();
      MatchContext scratch(grown);
      engine::Match(DatasetView::Full(grown), rules, full->registry, {},
                    &scratch);
      EXPECT_EQ(resolver->Snapshot()->MatchedPairs(), scratch.MatchedPairs())
          << "after " << grown.num_tuples() << " tuples";
      EXPECT_EQ(resolver->Snapshot()->num_validated_ml(),
                scratch.num_validated_ml());
    }
  }
  // The final fixpoint is the paper's Γ: 6 matched pairs.
  EXPECT_EQ(resolver->Snapshot()->num_matched_pairs(), 6u);
}

TEST(IncrementalTest, LateTupleTriggersRecursiveCascade) {
  // Withhold the orders that certify the deep match (t1 ~ t3): appending
  // them later must fire the recursive chain incrementally.
  auto full = MakePaperExample();
  Dataset& src = full->dataset;
  Dataset dst;
  for (size_t r = 0; r < src.num_relations(); ++r) {
    dst.AddRelation(src.relation(r).schema());
  }
  RuleSet rules;
  ASSERT_TRUE(ParseRuleSet(full->rules.ToString(src), dst, full->registry,
                           &rules)
                  .ok());
  // Everything except the two same-IP orders t16 (gid 15) and t17 (gid 16).
  std::vector<std::pair<uint32_t, Row>> held_back;
  std::vector<Gid> mapping(src.num_tuples());
  for (Gid g = 0; g < src.num_tuples(); ++g) {
    TupleLoc loc = src.loc(g);
    Row row = src.relation(loc.relation).row(loc.row);
    if (g == full->t[16] || g == full->t[17]) {
      held_back.push_back({loc.relation, row});
      continue;
    }
    mapping[g] = dst.AppendTuple(loc.relation, row);
  }
  auto resolver = Resolver::Open(std::move(dst), rules, &full->registry);
  // Without those orders, phi4 cannot fire: t1 !~ t3 (and hence t1 !~ t2).
  EXPECT_FALSE(resolver->SameEntity(mapping[full->t[1]],
                                    mapping[full->t[3]]));

  TupleBatch batch;
  for (auto& [rel, row] : held_back) batch.Add(rel, row);
  AppendOutcome outcome = resolver->Append(std::move(batch));
  EXPECT_TRUE(resolver->SameEntity(mapping[full->t[1]],
                                   mapping[full->t[3]]));
  EXPECT_TRUE(resolver->SameEntity(mapping[full->t[1]],
                                   mapping[full->t[2]]));
  EXPECT_GT(outcome.report.chase.seeded_joins, 0u);
}

TEST(IncrementalTest, UpdateDrivenCostIsBelowRechaseCost) {
  EcommerceOptions options;
  options.num_customers = 150;
  auto gd = MakeEcommerce(options);
  // Hold back the last 10 tuples.
  Dataset dst;
  for (size_t r = 0; r < gd->dataset.num_relations(); ++r) {
    dst.AddRelation(gd->dataset.relation(r).schema());
  }
  RuleSet rules;
  ASSERT_TRUE(ParseRuleSet(gd->rules.ToString(gd->dataset), dst,
                           gd->registry, &rules)
                  .ok());
  size_t cut = gd->dataset.num_tuples() - 10;
  for (Gid g = 0; g < cut; ++g) {
    TupleLoc loc = gd->dataset.loc(g);
    dst.AppendTuple(loc.relation, gd->dataset.relation(loc.relation).row(loc.row));
  }
  auto resolver = Resolver::Open(std::move(dst), rules, &gd->registry);
  ASSERT_NE(resolver->match_report(), nullptr);
  const MatchReport init = *resolver->match_report();
  TupleBatch batch;
  for (Gid g = static_cast<Gid>(cut); g < gd->dataset.num_tuples(); ++g) {
    TupleLoc loc = gd->dataset.loc(g);
    batch.Add(loc.relation, gd->dataset.relation(loc.relation).row(loc.row));
  }
  AppendOutcome delta = resolver->Append(std::move(batch));
  // The batch inspects far fewer valuations than the initial chase.
  EXPECT_LT(delta.report.chase.valuations, init.chase.valuations / 4);
}

}  // namespace
}  // namespace dcer
