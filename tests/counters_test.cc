// Exact work-counter gates: deterministic counters pinned with EXPECT_EQ,
// so any change to the enumerated work — a lost prune, a duplicated
// valuation — shows up as a changed number, where a wall-clock gate would
// drown it in host noise. Run this lane alone with `ctest -L counters`. A
// change that moves a counter on purpose re-records it here and says why.

#include <gtest/gtest.h>

#include <memory>

#include "chase/match.h"
#include "datagen/tpch_lite.h"
#include "parallel/dmatch.h"

namespace dcer {
namespace {

class TpchSf1Counters : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    TpchOptions options;
    options.scale_factor = 1.0;
    gd_ = MakeTpch(options);
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

  static std::unique_ptr<GenDataset> gd_;
};

std::unique_ptr<GenDataset> TpchSf1Counters::gd_;

// The joiner never enumerates a valuation binding an id rule's two
// consequence variables to one tuple (24,331 valuations with them, 20,481
// reflexive). Each unordered ML pair is predicted once and found in the
// cache from its other orientation, so predictions equal cache hits.
TEST_F(TpchSf1Counters, MatchEnumeratesNoReflexiveValuation) {
  const MatchReport report = RunMatch();
  EXPECT_EQ(report.chase.valuations, 3850u);
  EXPECT_EQ(report.chase.join_candidates, 112467u);
  EXPECT_EQ(report.ml_predictions, 1925u);
  EXPECT_EQ(report.ml_cache_hits, 1925u);
  EXPECT_EQ(report.chase.deps_added, 248u);
  EXPECT_EQ(report.matched_pairs, 1801u);
}

// DMatch enumerates each valuation in exactly one Hypercube cell, so its
// workers together do Match's leaf work and deduce Match's Γ.
TEST_F(TpchSf1Counters, DMatchDoesMatchWork) {
  const MatchReport match = RunMatch();
  DMatchOptions options;
  options.num_workers = 4;
  MatchContext ctx(gd_->dataset);
  const DMatchReport report =
      engine::DMatch(gd_->dataset, gd_->rules, gd_->registry, options, &ctx);
  EXPECT_EQ(report.chase.valuations, match.chase.valuations);
  EXPECT_EQ(report.matched_pairs, match.matched_pairs);
}

}  // namespace
}  // namespace dcer
