// Micro-benchmarks (google-benchmark) for the core data structures: the
// union-find behind E_id, text embeddings, similarity kernels (pairwise and
// one-vs-many batch), candidate indices, inverted-index construction,
// rule-join enumeration, the ML prediction cache and Hypercube distribution.
//
// Kernel costs are reported, not gated: exact work counters live in
// tests/counters_test.cc, end-to-end timings in perfbench/. The binary
// writes no file; pass google-benchmark flags such as
// --benchmark_filter=<regex> or --benchmark_format=json.

#include <benchmark/benchmark.h>

#include <string>
#include <utility>
#include <vector>

#include "chase/join.h"
#include "chase/match_context.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/union_find.h"
#include "datagen/ecommerce.h"
#include "ml/candidate_index.h"
#include "ml/embedding.h"
#include "ml/profile.h"
#include "ml/registry.h"
#include "ml/simd.h"
#include "ml/similarity.h"
#include "partition/hypercube.h"
#include "partition/mqo.h"
#include "relational/string_pool.h"

namespace dcer {
namespace {

void BM_UnionFind(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(7);
  std::vector<std::pair<uint32_t, uint32_t>> ops(n);
  for (auto& [a, b] : ops) {
    a = static_cast<uint32_t>(rng.Uniform(n));
    b = static_cast<uint32_t>(rng.Uniform(n));
  }
  for (auto _ : state) {
    UnionFind uf(n);
    for (auto [a, b] : ops) uf.Union(a, b);
    benchmark::DoNotOptimize(uf.Find(0));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_UnionFind)->Arg(1 << 12)->Arg(1 << 16);

void BM_EmbedText(benchmark::State& state) {
  std::string text =
      "ThinkPad X1 Carbon 7th Gen : 14-Inch, 16GB RAM, 512GB Nvme SSD";
  for (auto _ : state) {
    benchmark::DoNotOptimize(EmbedText(text));
  }
}
BENCHMARK(BM_EmbedText);

void BM_Cosine(benchmark::State& state) {
  Embedding a = EmbedText("ThinkPad X1 Carbon 7th Gen");
  Embedding b = EmbedText("ThinkPad X1 Carbon 14 inch");
  for (auto _ : state) {
    benchmark::DoNotOptimize(Cosine(a, b));
  }
}
BENCHMARK(BM_Cosine);

// Product descriptions from the ecommerce generator: realistic token mix
// (shared stopwords + rare sku/model tokens) for kernel and index benches.
std::vector<std::string> DescCorpus(size_t num_customers) {
  EcommerceOptions options;
  options.num_customers = num_customers;
  auto gd = MakeEcommerce(options);
  const Relation& products = gd->dataset.relation(2);  // Products
  std::vector<std::string> descs;
  descs.reserve(products.num_rows());
  for (size_t r = 0; r < products.num_rows(); ++r) {
    descs.push_back(std::string(products.at(r, 3).AsString()));  // desc
  }
  return descs;
}

void BM_TokenJaccard(benchmark::State& state) {
  std::vector<std::string> descs = DescCorpus(200);
  size_t i = 0;
  for (auto _ : state) {
    const std::string& a = descs[i % descs.size()];
    const std::string& b = descs[(i + 7) % descs.size()];
    benchmark::DoNotOptimize(TokenJaccard(a, b));
    ++i;
  }
}
BENCHMARK(BM_TokenJaccard);

// One-vs-many batch kernels over warm profiles: the per-pair cost at batch
// sizes 1/16/256 shows how far the precomputed-profile path amortizes the
// per-call tokenization the pairwise kernel pays every time.
void BM_TokenJaccardBatch(benchmark::State& state) {
  std::vector<std::string> descs = DescCorpus(200);
  StringPool pool;
  std::vector<uint32_t> ids;
  ids.reserve(descs.size());
  for (const auto& s : descs) ids.push_back(pool.Intern(s));
  ProfileStore store(&pool);
  store.Sync();
  const size_t batch = static_cast<size_t>(state.range(0));
  std::vector<uint32_t> cands(batch);
  for (size_t i = 0; i < batch; ++i) cands[i] = ids[(i * 7) % ids.size()];
  std::vector<double> scores(batch);
  size_t i = 0;
  for (auto _ : state) {
    ScoreTokenJaccardBatch(store, ids[i % ids.size()], cands.data(), batch,
                           scores.data());
    benchmark::DoNotOptimize(scores.data());
    ++i;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(batch));
  state.SetLabel(simd::LevelName(simd::ActiveLevel()));
}
BENCHMARK(BM_TokenJaccardBatch)->Arg(1)->Arg(16)->Arg(256);

void BM_EditPredictBatch(benchmark::State& state) {
  std::vector<std::string> descs = DescCorpus(200);
  StringPool pool;
  std::vector<uint32_t> ids;
  ids.reserve(descs.size());
  for (const auto& s : descs) ids.push_back(pool.Intern(s));
  ProfileStore store(&pool);
  store.Sync();
  const size_t batch = static_cast<size_t>(state.range(0));
  std::vector<uint32_t> cands(batch);
  for (size_t i = 0; i < batch; ++i) cands[i] = ids[(i * 7) % ids.size()];
  std::vector<uint8_t> preds(batch);
  size_t i = 0;
  for (auto _ : state) {
    PredictEditSimilarityBatch(store, ids[i % ids.size()], cands.data(), batch,
                               0.75, preds.data());
    benchmark::DoNotOptimize(preds.data());
    ++i;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(batch));
  state.SetLabel(simd::LevelName(simd::ActiveLevel()));
}
BENCHMARK(BM_EditPredictBatch)->Arg(1)->Arg(16)->Arg(256);

// Cold path: what one from-scratch profile build over the corpus pool costs,
// paid once per pool rather than per query.
void BM_ProfileStoreBuild(benchmark::State& state) {
  std::vector<std::string> descs = DescCorpus(static_cast<size_t>(
      state.range(0)));
  StringPool pool;
  for (const auto& s : descs) pool.Intern(s);
  for (auto _ : state) {
    ProfileStore store(&pool);
    store.Sync();
    benchmark::DoNotOptimize(store.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(pool.size()));
}
BENCHMARK(BM_ProfileStoreBuild)->Arg(200)->Arg(1000);

void BM_EditDistance(benchmark::State& state) {
  // Typical Customers.name lengths; bound = the k the chase actually passes
  // for threshold 0.55 (bound 45% of the longer string).
  std::string a = "katherine-rodriguez lopez";
  std::string b = "katheryn rodriguez-lopezz";
  const int bound = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(EditDistance(a, b, bound));
  }
}
BENCHMARK(BM_EditDistance)->Arg(-1)->Arg(4);

void BM_EditSimilarity(benchmark::State& state) {
  std::string a = "katherine-rodriguez lopez";
  std::string b = "katheryn rodriguez-lopezz";
  for (auto _ : state) {
    benchmark::DoNotOptimize(EditSimilarity(a, b));
  }
}
BENCHMARK(BM_EditSimilarity);

void BM_MlIndexProbe(benchmark::State& state) {
  std::vector<std::string> descs = DescCorpus(static_cast<size_t>(
      state.range(0)));
  std::vector<uint32_t> rows(descs.size());
  for (size_t r = 0; r < rows.size(); ++r) rows[r] = static_cast<uint32_t>(r);
  auto fill = [&](uint32_t row, std::vector<Value>* out) {
    out->clear();
    out->emplace_back(descs[row]);
  };
  TokenJaccardIndex index(0.5, rows, fill);
  std::vector<Value> query;
  std::vector<uint32_t> out;
  size_t i = 0;
  for (auto _ : state) {
    fill(static_cast<uint32_t>(i % descs.size()), &query);
    index.Probe(query, &out);
    benchmark::DoNotOptimize(out.data());
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MlIndexProbe)->Arg(200)->Arg(1000);

void BM_IndexBuildAndLookup(benchmark::State& state) {
  EcommerceOptions options;
  options.num_customers = static_cast<size_t>(state.range(0));
  auto gd = MakeEcommerce(options);
  DatasetView view = DatasetView::Full(gd->dataset);
  for (auto _ : state) {
    DatasetIndex index(&view);
    const Value probe = gd->dataset.relation(0).at(0, 2);
    benchmark::DoNotOptimize(index.Lookup(0, 2, probe));
  }
}
BENCHMARK(BM_IndexBuildAndLookup)->Arg(200)->Arg(1000);

void BM_RuleJoinEnumerate(benchmark::State& state) {
  EcommerceOptions options;
  options.num_customers = static_cast<size_t>(state.range(0));
  auto gd = MakeEcommerce(options);
  DatasetView view = DatasetView::Full(gd->dataset);
  MatchContext ctx(gd->dataset);
  DatasetIndex index(&view);
  // phi1: the 2-variable equality-join rule.
  RuleJoiner joiner(&index, &gd->rules.rule(0), &gd->registry, &ctx);
  for (auto _ : state) {
    size_t count = 0;
    joiner.Enumerate([&](const std::vector<uint32_t>&,
                         const std::vector<int>&) {
      ++count;
      return true;
    });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_RuleJoinEnumerate)->Arg(200)->Arg(1000);

void BM_MlCacheHit(benchmark::State& state) {
  PredictionCache cache;
  Rng rng(11);
  std::vector<uint64_t> keys(1024);
  for (auto& k : keys) {
    k = rng.Next();
    cache.Insert(k, (k & 2) != 0);
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Lookup(keys[i++ & 1023]));
  }
}
BENCHMARK(BM_MlCacheHit);

void BM_HypercubeDistribute(benchmark::State& state) {
  EcommerceOptions options;
  options.num_customers = 500;
  auto gd = MakeEcommerce(options);
  MqoPlan plan = AssignHash(gd->rules, true);
  HypercubeGrid grid = HypercubeGrid::Build(
      gd->dataset, gd->rules.rule(0), plan.rules[0],
      static_cast<int>(state.range(0)));
  for (auto _ : state) {
    HashEvaluator hasher;
    std::vector<std::vector<std::vector<uint32_t>>> cells(
        grid.num_cells,
        std::vector<std::vector<uint32_t>>(gd->rules.rule(0).num_vars()));
    benchmark::DoNotOptimize(DistributeRule(
        gd->dataset, gd->rules.rule(0), plan.rules[0], grid, &hasher,
        &cells));
  }
}
BENCHMARK(BM_HypercubeDistribute)->Arg(16)->Arg(256);

}  // namespace
}  // namespace dcer

BENCHMARK_MAIN();
