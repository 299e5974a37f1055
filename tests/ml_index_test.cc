// Tests for the similarity-index candidate-generation layer and the
// allocation-free similarity kernels:
//  - fast kernels match the reference implementations on a randomized corpus
//    (empty strings, high-bit bytes, all-whitespace, > 64 chars);
//  - each sound candidate index returns a superset of the rows whose
//    classifier score reaches the threshold, including after incremental
//    Add();
//  - the chase derives bit-identical matched pairs with and without the ML
//    index layer (sequential Match, parallel-enumeration Match, DMatch).

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chase/join.h"
#include "chase/match.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "datagen/ecommerce.h"
#include "ml/candidate_index.h"
#include "ml/classifier.h"
#include "ml/similarity.h"
#include "parallel/dmatch.h"
#include "rules/parser.h"

namespace dcer {
namespace {

// Random byte strings exercising the kernels' edge cases: empty, whitespace
// runs, high-bit (unicode-ish) bytes, and lengths past the 64-char Myers
// word boundary.
std::string RandomText(Rng* rng) {
  switch (rng->Uniform(8)) {
    case 0:
      return "";
    case 1:
      return std::string(rng->Uniform(6), ' ');
    default:
      break;
  }
  const char alphabet[] = "abcXYZ 019 \t.,\xc3\xa9\xe4\xb8\xad";
  size_t len = rng->Uniform(96);
  std::string s;
  s.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    s += alphabet[rng->Uniform(sizeof(alphabet) - 1)];
  }
  return s;
}

TEST(SimilarityKernels, MatchReferenceOnRandomCorpus) {
  Rng rng(2024);
  for (int trial = 0; trial < 600; ++trial) {
    std::string a = RandomText(&rng);
    std::string b = RandomText(&rng);
    EXPECT_DOUBLE_EQ(TokenJaccard(a, b), reference::TokenJaccard(a, b))
        << "a=[" << a << "] b=[" << b << "]";
    size_t ref_d = reference::EditDistance(a, b);
    EXPECT_EQ(EditDistance(a, b), ref_d) << "a=[" << a << "] b=[" << b << "]";
    EXPECT_DOUBLE_EQ(EditSimilarity(a, b), reference::EditSimilarity(a, b));
    // Bounded variant: exact when within the bound, bound+1 otherwise.
    int bound = static_cast<int>(rng.Uniform(12));
    size_t bounded = EditDistance(a, b, bound);
    if (ref_d <= static_cast<size_t>(bound)) {
      EXPECT_EQ(bounded, ref_d);
    } else {
      EXPECT_EQ(bounded, static_cast<size_t>(bound) + 1);
    }
  }
}

TEST(SimilarityKernels, KnownValues) {
  EXPECT_DOUBLE_EQ(TokenJaccard("", ""), 1.0);
  EXPECT_DOUBLE_EQ(TokenJaccard("  \t ", ""), 1.0);  // both tokenless
  EXPECT_DOUBLE_EQ(TokenJaccard("a b", ""), 0.0);
  EXPECT_DOUBLE_EQ(TokenJaccard("Hello World", "world hello"), 1.0);
  EXPECT_EQ(EditDistance("kitten", "sitting"), 6u - 3u);
  EXPECT_EQ(EditDistance("", "abc"), 3u);
  EXPECT_EQ(EditDistance(std::string(100, 'a'), std::string(100, 'a') + "xy"),
            2u);  // long-string DP path
}

// --- candidate index soundness ---------------------------------------------

std::vector<std::vector<Value>> MakeCorpus(Rng* rng, size_t n) {
  std::vector<std::vector<Value>> rows;
  const char* stems[] = {"thinkpad x1 carbon", "macbook air retina",
                         "aspire vero green",  "pavilion plus laptop",
                         "zenbook duo oled",   ""};
  for (size_t i = 0; i < n; ++i) {
    std::string text;
    switch (rng->Uniform(4)) {
      case 0:
        text = stems[rng->Uniform(6)];
        break;
      case 1:  // perturbed stem: the interesting near-threshold cases
        text = stems[rng->Uniform(5)];
        if (!text.empty()) text[rng->Uniform(text.size())] = 'q';
        text += " " + std::string(1, static_cast<char>('a' + rng->Uniform(26)));
        break;
      default:
        text = RandomText(rng);
        break;
    }
    rows.push_back({Value(text)});
  }
  return rows;
}

void CheckSoundSuperset(const MlClassifier& clf, double threshold,
                        const std::vector<std::vector<Value>>& corpus) {
  // Build over the first 2/3, Add the rest (exercises the incremental path
  // used across DMatch supersteps).
  const size_t n = corpus.size();
  const size_t built = n * 2 / 3;
  std::vector<uint32_t> build_rows(built);
  for (uint32_t r = 0; r < built; ++r) build_rows[r] = r;
  RowValuesFn fill = [&corpus](uint32_t row, std::vector<Value>* out) {
    *out = corpus[row];
  };
  std::unique_ptr<MlCandidateIndex> index =
      clf.BuildCandidateIndex(build_rows, fill);
  ASSERT_NE(index, nullptr);
  for (uint32_t r = static_cast<uint32_t>(built); r < n; ++r) {
    index->Add(r, corpus[r]);
  }
  EXPECT_EQ(index->num_rows(), n);

  std::vector<uint32_t> out;
  for (size_t q = 0; q < n; ++q) {
    index->Probe(corpus[q], &out);
    EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
    EXPECT_TRUE(std::adjacent_find(out.begin(), out.end()) == out.end());
    for (uint32_t r = 0; r < n; ++r) {
      if (clf.Score(corpus[q], corpus[r]) >= threshold) {
        EXPECT_TRUE(std::binary_search(out.begin(), out.end(), r))
            << clf.name() << " dropped matching row " << r << " for query "
            << q << " ([" << corpus[q][0].ToString() << "] vs ["
            << corpus[r][0].ToString() << "])";
      }
    }
  }
}

TEST(CandidateIndex, JaccardIndexIsSoundSuperset) {
  Rng rng(7);
  auto corpus = MakeCorpus(&rng, 90);
  for (double threshold : {0.2, 0.5, 0.8, 1.0}) {
    TokenJaccardClassifier clf("J", threshold);
    ASSERT_TRUE(clf.candidate_indexable());
    CheckSoundSuperset(clf, threshold, corpus);
  }
}

TEST(CandidateIndex, EditIndexIsSoundSuperset) {
  Rng rng(13);
  auto corpus = MakeCorpus(&rng, 90);
  for (double threshold : {0.3, 0.55, 0.75, 0.95}) {
    EditSimilarityClassifier clf("E", threshold);
    ASSERT_TRUE(clf.candidate_indexable());
    CheckSoundSuperset(clf, threshold, corpus);
  }
}

TEST(CandidateIndex, DegenerateThresholdDisablesIndexing) {
  TokenJaccardClassifier clf("J", 0.0);
  EXPECT_FALSE(clf.candidate_indexable());
  EXPECT_EQ(clf.BuildCandidateIndex({}, [](uint32_t, std::vector<Value>*) {}),
            nullptr);
}

// --- chase-level no-recall-loss --------------------------------------------

TEST(MlIndexChase, EcommerceMatchBitIdenticalOnOff) {
  EcommerceOptions gen;
  gen.num_customers = 150;
  auto gd = MakeEcommerce(gen);
  DatasetView view = DatasetView::Full(gd->dataset);

  MatchOptions off;
  off.ml_index = false;
  MatchContext ctx_off(gd->dataset);
  engine::Match(view, gd->rules, gd->registry, off, &ctx_off);

  MatchOptions on;
  on.ml_index = true;
  gd->registry.ClearCache();
  MatchContext ctx_on(gd->dataset);
  engine::Match(view, gd->rules, gd->registry, on, &ctx_on);

  EXPECT_EQ(ctx_off.MatchedPairs(), ctx_on.MatchedPairs());
  EXPECT_EQ(ctx_off.ValidatedMlKeys(), ctx_on.ValidatedMlKeys());
}

// A workload where ML predicates are the ONLY join constraints: without the
// index layer every rule is a full cross product. This is where candidate
// generation must both prune and stay lossless.
struct MlOnlyWorkload {
  std::unique_ptr<GenDataset> gd;
  RuleSet rules;
};

MlOnlyWorkload MakeMlOnlyWorkload(size_t customers) {
  MlOnlyWorkload w;
  EcommerceOptions gen;
  gen.num_customers = customers;
  w.gd = MakeEcommerce(gen);
  w.gd->registry.Register(
      std::make_unique<TokenJaccardClassifier>("MJ", 0.5));
  w.gd->registry.Register(
      std::make_unique<EditSimilarityClassifier>("ME", 0.75));
  const char* kRules =
      "rj: Products(tp) ^ Products(tp2) ^ MJ(tp.desc, tp2.desc) "
      "-> tp.id = tp2.id\n"
      "re: Customers(tc) ^ Customers(tc2) ^ ME(tc.name, tc2.name) "
      "-> tc.id = tc2.id\n";
  Status st =
      ParseRuleSet(kRules, w.gd->dataset, w.gd->registry, &w.rules);
  EXPECT_TRUE(st.ok()) << st.message();
  return w;
}

// At ecommerce 300 the off run scores the full cross product, through the
// batch kernels or pair by pair: the candidate indices cut valuations
// 324,902 -> 26,940 and ML predictions 162,452 -> 13,470 (each unordered
// pair once; its other orientation is a cache hit).
TEST(MlIndexChase, MlOnlyRulesBitIdenticalAndActuallyIndexed) {
  MlOnlyWorkload w = MakeMlOnlyWorkload(300);
  DatasetView view = DatasetView::Full(w.gd->dataset);
  auto run = [&](bool ml_index, bool ml_profiles, MatchContext* ctx) {
    w.gd->registry.ClearCache();
    MatchOptions options;
    options.ml_index = ml_index;
    options.ml_profiles = ml_profiles;
    return engine::Match(view, w.rules, w.gd->registry, options, ctx);
  };

  MatchContext ctx_on(w.gd->dataset);
  const MatchReport r_on = run(true, true, &ctx_on);
  EXPECT_EQ(r_on.matched_pairs, 1123u);
  EXPECT_EQ(r_on.chase.ml_indices_built, 2u);
  EXPECT_EQ(r_on.chase.valuations, 26940u);
  EXPECT_EQ(r_on.ml_predictions, 13470u);

  for (bool ml_profiles : {true, false}) {
    MatchContext ctx_off(w.gd->dataset);
    const MatchReport r_off = run(false, ml_profiles, &ctx_off);
    EXPECT_EQ(ctx_off.MatchedPairs(), ctx_on.MatchedPairs())
        << "ml_profiles=" << ml_profiles;
    EXPECT_EQ(ctx_off.ValidatedMlKeys(), ctx_on.ValidatedMlKeys())
        << "ml_profiles=" << ml_profiles;
    EXPECT_EQ(r_off.chase.ml_indices_built, 0u);
    // The index pruned leaf valuations, it did not merely tag along.
    EXPECT_EQ(r_off.chase.valuations, 324902u);
    EXPECT_EQ(r_off.ml_predictions, 162452u) << "ml_profiles=" << ml_profiles;
  }
}

// Each ML evaluation counts once, as a prediction or as a cache hit, whether
// the batch kernels or the per-pair leaf computed it: a verdict the batch
// path inserted for a valuation is not also a hit when its leaf reads it.
TEST(MlIndexChase, BatchKernelsCountEachEvaluationOnce) {
  MlOnlyWorkload w = MakeMlOnlyWorkload(300);
  DatasetView view = DatasetView::Full(w.gd->dataset);
  MatchContext ctx[2] = {MatchContext(w.gd->dataset),
                         MatchContext(w.gd->dataset)};
  for (bool ml_profiles : {true, false}) {
    w.gd->registry.ClearCache();
    MatchOptions options;
    options.ml_profiles = ml_profiles;
    const MatchReport r = engine::Match(view, w.rules, w.gd->registry,
                                        options, &ctx[ml_profiles ? 0 : 1]);
    EXPECT_EQ(r.chase.valuations, 26940u) << "ml_profiles=" << ml_profiles;
    EXPECT_EQ(r.ml_predictions, 13470u) << "ml_profiles=" << ml_profiles;
    EXPECT_EQ(r.ml_cache_hits, 13470u) << "ml_profiles=" << ml_profiles;
  }
  EXPECT_EQ(ctx[0].MatchedPairs(), ctx[1].MatchedPairs());
  EXPECT_EQ(ctx[0].ValidatedMlKeys(), ctx[1].ValidatedMlKeys());
}

TEST(MlIndexChase, MlOnlyRulesParallelEnumerationBitIdentical) {
  MlOnlyWorkload w = MakeMlOnlyWorkload(80);
  DatasetView view = DatasetView::Full(w.gd->dataset);

  MatchOptions seq;
  seq.ml_index = true;
  seq.threads = 1;
  MatchContext ctx_seq(w.gd->dataset);
  engine::Match(view, w.rules, w.gd->registry, seq, &ctx_seq);

  MatchOptions par = seq;
  par.threads = 4;
  w.gd->registry.ClearCache();
  MatchContext ctx_par(w.gd->dataset);
  engine::Match(view, w.rules, w.gd->registry, par, &ctx_par);

  EXPECT_EQ(ctx_seq.MatchedPairs(), ctx_par.MatchedPairs());
  EXPECT_EQ(ctx_seq.ValidatedMlKeys(), ctx_par.ValidatedMlKeys());
}

TEST(MlIndexChase, DMatchBitIdenticalOnOff) {
  EcommerceOptions gen;
  gen.num_customers = 120;
  auto gd = MakeEcommerce(gen);

  DMatchOptions off;
  off.num_workers = 3;
  off.ml_index = false;
  MatchContext ctx_off(gd->dataset);
  engine::DMatch(gd->dataset, gd->rules, gd->registry, off, &ctx_off);

  DMatchOptions on = off;
  on.ml_index = true;
  gd->registry.ClearCache();
  MatchContext ctx_on(gd->dataset);
  engine::DMatch(gd->dataset, gd->rules, gd->registry, on, &ctx_on);

  EXPECT_EQ(ctx_off.MatchedPairs(), ctx_on.MatchedPairs());
  EXPECT_EQ(ctx_off.ValidatedMlKeys(), ctx_on.ValidatedMlKeys());
}

TEST(MlIndexChase, DerivableMlPredicatesAreGated) {
  // ecommerce phi5 derives M4 facts, so M4 predicates must never be pruned;
  // the derivable-key set is what enforces that.
  EcommerceOptions gen;
  gen.num_customers = 10;
  auto gd = MakeEcommerce(gen);
  std::unordered_set<uint64_t> keys = DerivableMlKeys(gd->rules);
  EXPECT_EQ(keys.size(), 1u);  // exactly phi5's M4(pref, pref) class
}

}  // namespace
}  // namespace dcer
