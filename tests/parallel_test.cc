#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "chase/match.h"
#include "chase/naive_chase.h"
#include "common/rng.h"
#include "common/union_find.h"
#include "datagen/ecommerce.h"
#include "datagen/paper_example.h"
#include "datagen/tfacc_lite.h"
#include "datagen/tpch_lite.h"
#include "ml/classifier.h"
#include "parallel/dmatch.h"
#include "parallel/master.h"
#include "parallel/wire.h"
#include "rules/parser.h"

namespace dcer {
namespace {

// ---------------------------------------------------------------------------
// Master routing.

TEST(MasterTest, RoutesToHostsAndDeduplicates) {
  std::vector<std::vector<uint32_t>> hosts = {
      {0, 1},  // gid 0 on workers 0,1
      {1},     // gid 1 on worker 1
      {2},     // gid 2 on worker 2
  };
  Master master(&hosts, 3, 3);
  master.Collect(0, {Fact::IdMatch(0, 1)});
  std::vector<std::vector<Fact>> inboxes;
  ASSERT_TRUE(master.Dispatch(&inboxes));
  // Pair (0,1): hosts of 0 are {0,1}, hosts of 1 are {1}. Worker 0 sent it.
  EXPECT_TRUE(inboxes[0].empty());
  ASSERT_EQ(inboxes[1].size(), 1u);
  EXPECT_TRUE(inboxes[2].empty());
  // Re-collecting the same fact routes nothing new.
  master.Collect(2, {Fact::IdMatch(0, 1)});
  EXPECT_FALSE(master.Dispatch(&inboxes));
}

TEST(MasterTest, RoutesTransitiveClosurePairs) {
  // Worker layout: w0 hosts {0,3}; the chain 0~1, 1~2, 2~3 is derived by
  // other workers. w0 must still learn (0,3).
  std::vector<std::vector<uint32_t>> hosts = {{0}, {1}, {1}, {0}};
  Master master(&hosts, 2, 4);
  master.Collect(1, {Fact::IdMatch(0, 1)});
  master.Collect(1, {Fact::IdMatch(1, 2)});
  master.Collect(1, {Fact::IdMatch(2, 3)});
  std::vector<std::vector<Fact>> inboxes;
  ASSERT_TRUE(master.Dispatch(&inboxes));
  bool saw_0_3 = false;
  for (const Fact& f : inboxes[0]) {
    if ((f.a == 0 && f.b == 3) || (f.a == 3 && f.b == 0)) saw_0_3 = true;
  }
  EXPECT_TRUE(saw_0_3);
  EXPECT_TRUE(master.global_eid().Same(0, 3));
}

TEST(MasterTest, MlFactsRouteOnce) {
  std::vector<std::vector<uint32_t>> hosts = {{0, 1}, {1}};
  Master master(&hosts, 2, 2);
  Fact ml = Fact::MlValidated(0, 0, 7, 1, 7);
  master.Collect(0, {ml});
  std::vector<std::vector<Fact>> inboxes;
  ASSERT_TRUE(master.Dispatch(&inboxes));
  ASSERT_EQ(inboxes[1].size(), 1u);
  EXPECT_EQ(inboxes[1][0].Key(), ml.Key());
  master.Collect(1, {ml});
  EXPECT_FALSE(master.Dispatch(&inboxes));
}

TEST(MasterTest, MlFactsRouteOnlyToWorkersHostingBothTuples) {
  // gid 0 on workers {0, 1, 2}, gid 1 on {1, 2, 3}: worker 1 derived the
  // fact, worker 2 is the only other host of both, and workers 0 and 3 host
  // one side each.
  std::vector<std::vector<uint32_t>> hosts = {{0, 1, 2}, {1, 2, 3}};
  Master master(&hosts, 4, 2);
  master.Collect(1, {Fact::MlValidated(0, 0, 7, 1, 7)});
  std::vector<std::vector<Fact>> inboxes;
  ASSERT_TRUE(master.Dispatch(&inboxes));
  EXPECT_TRUE(inboxes[0].empty());
  EXPECT_TRUE(inboxes[1].empty());
  EXPECT_EQ(inboxes[2].size(), 1u);
  EXPECT_TRUE(inboxes[3].empty());
}

TEST(MasterTest, SpanningPairsSkipWorkersHostingOneMember) {
  // gid 0 on {0, 2, 3}, gid 1 on {1, 2}, gid 2 on {0}. Worker 2, the only
  // host of both 0 and 1, derives 0 ~ 1: nobody else can bind the pair, so
  // nothing is routed. Worker 0 then derives 0 ~ 2: workers 1 and 3 still
  // host a single member of the class and learn nothing, whichever tuple
  // is the root.
  std::vector<std::vector<uint32_t>> hosts = {{0, 2, 3}, {1, 2}, {0}};
  Master master(&hosts, 4, 3);
  std::vector<std::vector<Fact>> inboxes;
  master.Collect(2, {Fact::IdMatch(0, 1)});
  EXPECT_FALSE(master.Dispatch(&inboxes));
  master.Collect(0, {Fact::IdMatch(0, 2)});
  master.Dispatch(&inboxes);
  EXPECT_TRUE(inboxes[1].empty());
  EXPECT_TRUE(inboxes[3].empty());
  EXPECT_TRUE(master.global_eid().Same(1, 2));
}

// The routing contract on random instances: after every Dispatch, each
// worker's union-find over the id facts it sent and received relates two
// tuples it hosts iff the global E_id does — and it is sent no pair (x, root)
// for a tuple x it does not host.
TEST(MasterTest, EveryWorkerLearnsTheClassesOfTheTuplesItHosts) {
  constexpr int kWorkers = 4;
  constexpr uint32_t kTuples = 60;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    std::vector<std::vector<uint32_t>> hosts(kTuples);
    for (uint32_t g = 0; g < kTuples; ++g) {
      for (uint32_t w = 0; w < kWorkers; ++w) {
        if (rng.Uniform(3) == 0) hosts[g].push_back(w);
      }
      if (hosts[g].empty()) hosts[g].push_back(g % kWorkers);
    }
    Master master(&hosts, kWorkers, kTuples);
    std::vector<UnionFind> local(kWorkers, UnionFind(kTuples));
    for (int step = 0; step < 6; ++step) {
      for (int w = 0; w < kWorkers; ++w) {
        // A worker derives pairs of tuples it hosts.
        std::vector<uint32_t> mine;
        for (uint32_t g = 0; g < kTuples; ++g) {
          if (std::count(hosts[g].begin(), hosts[g].end(), w)) {
            mine.push_back(g);
          }
        }
        std::vector<Fact> out;
        for (int k = 0; k < 2 && mine.size() >= 2; ++k) {
          const uint32_t a = mine[rng.Uniform(mine.size())];
          const uint32_t b = mine[rng.Uniform(mine.size())];
          if (a == b) continue;
          out.push_back(Fact::IdMatch(a, b));
          local[w].Union(a, b);
        }
        master.Collect(w, out);
      }
      std::vector<std::vector<Fact>> inboxes;
      master.Dispatch(&inboxes);
      for (int w = 0; w < kWorkers; ++w) {
        for (const Fact& f : inboxes[w]) {
          EXPECT_TRUE(std::count(hosts[f.a].begin(), hosts[f.a].end(), w) ||
                      std::count(hosts[f.b].begin(), hosts[f.b].end(), w))
              << "seed " << seed << ": worker " << w << " hosts neither side";
          local[w].Union(f.a, f.b);
        }
      }
      for (int w = 0; w < kWorkers; ++w) {
        for (uint32_t x = 0; x < kTuples; ++x) {
          if (!std::count(hosts[x].begin(), hosts[x].end(), w)) continue;
          for (uint32_t y = x + 1; y < kTuples; ++y) {
            if (!std::count(hosts[y].begin(), hosts[y].end(), w)) continue;
            ASSERT_EQ(local[w].Same(x, y), master.global_eid().Same(x, y))
                << "seed " << seed << ", step " << step << ", worker " << w
                << ": (" << x << ", " << y << ")";
          }
        }
      }
    }
  }
}

TEST(MasterTest, RejectedOutboxBatchChangesNothing) {
  std::vector<std::vector<uint32_t>> hosts = {{0, 1}, {1}, {0}, {1}};
  Master master(&hosts, 2, 4);
  std::vector<uint8_t> good;
  wire::EncodeFactBatch({Fact::IdMatch(0, 1)}, &good);
  ASSERT_EQ(master.CollectFromWorker(0, good), wire::WireError::kOk);
  const uint64_t messages = master.outbox_messages();
  const uint64_t bytes = master.outbox_bytes();
  EXPECT_EQ(messages, 1u);
  EXPECT_EQ(bytes, good.size());

  std::vector<uint8_t> batch;
  wire::EncodeFactBatch({Fact::IdMatch(2, 3), Fact::IdMatch(1, 2)}, &batch);
  std::vector<uint8_t> truncated(batch.begin(), batch.end() - 1);
  std::vector<uint8_t> bad_magic = batch;
  bad_magic[0] ^= 0xFF;
  EXPECT_EQ(master.CollectFromWorker(1, truncated),
            wire::WireError::kTruncated);
  EXPECT_EQ(master.CollectFromWorker(1, bad_magic),
            wire::WireError::kBadMagic);

  EXPECT_EQ(master.outbox_messages(), messages);
  EXPECT_EQ(master.outbox_bytes(), bytes);
  EXPECT_TRUE(master.global_eid().Same(0, 1));
  EXPECT_FALSE(master.global_eid().Same(1, 2));
  EXPECT_FALSE(master.global_eid().Same(2, 3));
  // Only the accepted batch was queued for routing: worker 1 learns 0 ~ 1.
  std::vector<std::vector<Fact>> inboxes;
  ASSERT_TRUE(master.Dispatch(&inboxes));
  EXPECT_TRUE(inboxes[0].empty());
  ASSERT_EQ(inboxes[1].size(), 1u);
  EXPECT_EQ(inboxes[1][0].Key(), Fact::IdMatch(0, 1).Key());
}

// ---------------------------------------------------------------------------
// DMatch == Match (Prop. 4 & 8).

class DMatchWorkersTest : public ::testing::TestWithParam<int> {};

TEST_P(DMatchWorkersTest, PaperExampleMatchesSequentialResult) {
  auto ex = MakePaperExample();
  DatasetView view = DatasetView::Full(ex->dataset);
  MatchContext sequential(ex->dataset);
  engine::Match(view, ex->rules, ex->registry, {}, &sequential);

  DMatchOptions options;
  options.num_workers = GetParam();
  MatchContext parallel(ex->dataset);
  DMatchReport report =
      engine::DMatch(ex->dataset, ex->rules, ex->registry, options, &parallel);

  EXPECT_EQ(parallel.MatchedPairs(), sequential.MatchedPairs());
  EXPECT_EQ(parallel.num_validated_ml(), sequential.num_validated_ml());
  EXPECT_GE(report.supersteps, 1);
  EXPECT_EQ(report.matched_pairs, sequential.num_matched_pairs());
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, DMatchWorkersTest,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(DMatchTest, DeepChainCrossesFragmentBoundaries) {
  // Two duplicate chains of depth 10: matches must propagate through
  // supersteps when the chain's levels land on different workers.
  Dataset d;
  size_t rel = d.AddRelation(Schema("Node", {{"tag", ValueType::kString},
                                             {"lvl", ValueType::kInt},
                                             {"key", ValueType::kString},
                                             {"pkey", ValueType::kString}}));
  constexpr int kDepth = 10;
  std::vector<Gid> a;
  std::vector<Gid> b;
  for (int side = 0; side < 2; ++side) {
    std::string prefix = side == 0 ? "a" : "b";
    for (int i = 0; i < kDepth; ++i) {
      Gid g = d.AppendTuple(
          rel, {Value("tag" + std::to_string(i)), Value(int64_t{i}),
                Value(prefix + std::to_string(i)),
                i == 0 ? Value::Null() : Value(prefix + std::to_string(i - 1))});
      (side == 0 ? a : b).push_back(g);
    }
  }
  MlRegistry registry;
  RuleSet rules;
  ASSERT_TRUE(ParseRuleSet(
                  "base: Node(t) ^ Node(s) ^ t.lvl = 0 ^ s.lvl = 0 ^ "
                  "t.tag = s.tag -> t.id = s.id\n"
                  "step: Node(t) ^ Node(s) ^ Node(pt) ^ Node(ps) ^ "
                  "t.pkey = pt.key ^ s.pkey = ps.key ^ t.tag = s.tag ^ "
                  "pt.id = ps.id -> t.id = s.id\n",
                  d, registry, &rules)
                  .ok());
  DMatchOptions options;
  options.num_workers = 4;
  MatchContext ctx(d);
  DMatchReport report = engine::DMatch(d, rules, registry, options, &ctx);
  for (int i = 0; i < kDepth; ++i) {
    EXPECT_TRUE(ctx.Matched(a[i], b[i])) << "level " << i;
  }
  EXPECT_EQ(ctx.num_matched_pairs(), static_cast<uint64_t>(kDepth));
  EXPECT_GE(report.supersteps, 1);
}

// A dependency the first superstep drops must still fire when that same
// worker derives its requirement: the worker closes its local fixpoint
// before anything is exchanged. With the step rule enumerated first, every
// level's valuation waits on its parent's match.
TEST(DMatchTest, DroppedDependenciesRecoverWithinTheFirstSuperstep) {
  Dataset d;
  size_t rel = d.AddRelation(Schema("Node", {{"tag", ValueType::kString},
                                             {"lvl", ValueType::kInt},
                                             {"key", ValueType::kString},
                                             {"pkey", ValueType::kString}}));
  constexpr int kDepth = 12;
  for (const char* prefix : {"a", "b"}) {
    for (int i = 0; i < kDepth; ++i) {
      d.AppendTuple(rel, {Value("tag" + std::to_string(i)), Value(int64_t{i}),
                          Value(prefix + std::to_string(i)),
                          i == 0 ? Value::Null()
                                 : Value(prefix + std::to_string(i - 1))});
    }
  }
  MlRegistry registry;
  RuleSet rules;
  ASSERT_TRUE(ParseRuleSet(
                  "step: Node(t) ^ Node(s) ^ Node(pt) ^ Node(ps) ^ "
                  "t.pkey = pt.key ^ s.pkey = ps.key ^ t.tag = s.tag ^ "
                  "pt.id = ps.id -> t.id = s.id\n"
                  "base: Node(t) ^ Node(s) ^ t.lvl = 0 ^ s.lvl = 0 ^ "
                  "t.tag = s.tag -> t.id = s.id\n",
                  d, registry, &rules)
                  .ok());
  for (int n : {1, 2, 4}) {
    for (size_t capacity : {size_t{0}, size_t{1} << 20}) {
      DMatchOptions options;
      options.num_workers = n;
      options.dependency_capacity = capacity;
      MatchContext ctx(d);
      engine::DMatch(d, rules, registry, options, &ctx);
      EXPECT_EQ(ctx.num_matched_pairs(), static_cast<uint64_t>(kDepth))
          << "n=" << n << " capacity=" << capacity;
    }
  }
}

TEST(DMatchTest, SequentialExecutionModeGivesSameResult) {
  auto ex = MakePaperExample();
  DMatchOptions threaded;
  threaded.num_workers = 4;
  threaded.run_parallel = true;
  MatchContext c1(ex->dataset);
  engine::DMatch(ex->dataset, ex->rules, ex->registry, threaded, &c1);

  DMatchOptions sequential = threaded;
  sequential.run_parallel = false;
  MatchContext c2(ex->dataset);
  DMatchReport r2 =
      engine::DMatch(ex->dataset, ex->rules, ex->registry, sequential, &c2);
  EXPECT_EQ(c1.MatchedPairs(), c2.MatchedPairs());
  EXPECT_GT(r2.simulated_seconds, 0.0);
}

TEST(DMatchTest, MqoAndBalancingTogglesPreserveResult) {
  auto ex = MakePaperExample();
  std::vector<std::pair<Gid, Gid>> expected;
  for (bool mqo : {true, false}) {
    for (bool vb : {true, false}) {
      DMatchOptions options;
      options.num_workers = 3;
      options.use_mqo = mqo;
      options.use_virtual_blocks = vb;
      MatchContext ctx(ex->dataset);
      engine::DMatch(ex->dataset, ex->rules, ex->registry, options, &ctx);
      if (expected.empty()) {
        expected = ctx.MatchedPairs();
        EXPECT_EQ(expected.size(), 6u);
      } else {
        EXPECT_EQ(ctx.MatchedPairs(), expected)
            << "mqo=" << mqo << " vb=" << vb;
      }
    }
  }
}

TEST(DMatchTest, RandomInstancesAgreeWithNaiveChase) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 31);
    Dataset d;
    size_t people = d.AddRelation(Schema("P", {{"name", ValueType::kString},
                                               {"city", ValueType::kString},
                                               {"ref", ValueType::kString}}));
    size_t events = d.AddRelation(Schema("E", {{"who", ValueType::kString},
                                               {"what", ValueType::kString}}));
    for (int i = 0; i < 14; ++i) {
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
    ASSERT_TRUE(ParseRuleSet(
                    "r1: P(t) ^ P(s) ^ t.name = s.name ^ t.city = s.city -> "
                    "t.id = s.id\n"
                    "r2: P(t) ^ P(s) ^ E(u) ^ E(v) ^ t.ref = u.who ^ "
                    "s.ref = v.who ^ u.what = v.what ^ MS(t.name, s.name) -> "
                    "t.id = s.id\n"
                    "r3: P(t) ^ P(s) ^ P(w) ^ t.id = w.id ^ s.id = w.id -> "
                    "t.id = s.id\n",
                    d, registry, &rules)
                    .ok());

    MatchContext naive(d);
    NaiveChase(DatasetView::Full(d), rules, registry, &naive);

    DMatchOptions options;
    options.num_workers = 3;
    MatchContext parallel(d);
    engine::DMatch(d, rules, registry, options, &parallel);
    EXPECT_EQ(parallel.MatchedPairs(), naive.MatchedPairs())
        << "seed " << seed;
    EXPECT_EQ(parallel.num_validated_ml(), naive.num_validated_ml())
        << "seed " << seed;
  }
}

TEST(DMatchTest, ReportAccountsForWorkAndCommunication) {
  auto ex = MakePaperExample();
  DMatchOptions options;
  options.num_workers = 4;
  MatchContext ctx(ex->dataset);
  DMatchReport report =
      engine::DMatch(ex->dataset, ex->rules, ex->registry, options, &ctx);
  EXPECT_GT(report.chase.valuations, 0u);
  EXPECT_GT(report.partition.fragment_tuples, 0u);
  // The master is the single source of truth for wire volume: the report
  // totals must be exactly the sums of the per-superstep attributions, on
  // both legs of the exchange.
  uint64_t step_messages = 0;
  uint64_t step_bytes = 0;
  uint64_t step_outbox_messages = 0;
  uint64_t step_outbox_bytes = 0;
  for (const SuperstepStats& s : report.superstep_stats) {
    step_messages += s.messages;
    step_bytes += s.bytes;
    step_outbox_messages += s.outbox_messages;
    step_outbox_bytes += s.outbox_bytes;
  }
  EXPECT_EQ(report.messages, step_messages);
  EXPECT_EQ(report.bytes, step_bytes);
  EXPECT_EQ(report.outbox_messages, step_outbox_messages);
  EXPECT_EQ(report.outbox_bytes, step_outbox_bytes);
  // Serialized bytes come from the codec, not sizeof(Fact): whenever facts
  // flow, bytes flow — fewer than 32 per fact on these small-gid workloads.
  if (report.messages > 0) {
    EXPECT_GT(report.bytes, 0u);
    EXPECT_LT(report.bytes, report.messages * sizeof(Fact));
  }
  if (report.outbox_messages > 0) EXPECT_GT(report.outbox_bytes, 0u);
  EXPECT_GE(report.er_seconds, 0.0);
  EXPECT_EQ(report.validated_ml, ctx.num_validated_ml());
}

TEST(DMatchTest, ReportTimesTeardownAndSecondsSumItsPhases) {
  auto ex = MakePaperExample();
  DMatchOptions options;
  options.num_workers = 4;
  MatchContext ctx(ex->dataset);
  DMatchReport report =
      engine::DMatch(ex->dataset, ex->rules, ex->registry, options, &ctx);
  EXPECT_GE(report.teardown_seconds, 0.0);
  EXPECT_DOUBLE_EQ(report.seconds, report.partition_seconds +
                                       report.er_seconds +
                                       report.teardown_seconds);
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"teardown_seconds\":"), std::string::npos) << json;
}

// ---------------------------------------------------------------------------
// Exactly-once enumeration: each scope binds a variable only to the rows the
// Hypercube sent for it, so the cluster enumerates every valuation in one
// (worker, block) — the same valuations engine::Match enumerates.

// Runs every rule alone, then the whole set, through engine::Match and
// engine::DMatch at n ∈ {1, 2, 4, 8}: Γ and the summed valuation counts
// must be equal.
void ExpectEachValuationOnce(const Dataset& d, const RuleSet& rules,
                             const MlRegistry& registry) {
  std::vector<RuleSet> sets(rules.size());
  for (size_t i = 0; i < rules.size(); ++i) sets[i].Add(rules.rule(i));
  sets.push_back(rules);
  const DatasetView view = DatasetView::Full(d);
  for (size_t i = 0; i < sets.size(); ++i) {
    const std::string what =
        i < rules.size() ? "rule " + rules.rule(i).name() : "all rules";
    MatchContext sequential(d);
    const MatchReport match =
        engine::Match(view, sets[i], registry, {}, &sequential);
    for (int n : {1, 2, 4, 8}) {
      DMatchOptions options;
      options.num_workers = n;
      MatchContext parallel(d);
      const DMatchReport report =
          engine::DMatch(d, sets[i], registry, options, &parallel);
      EXPECT_EQ(report.chase.valuations, match.chase.valuations)
          << what << ", n=" << n;
      EXPECT_EQ(parallel.MatchedPairs(), sequential.MatchedPairs())
          << what << ", n=" << n;
      EXPECT_EQ(parallel.ValidatedMlKeys(), sequential.ValidatedMlKeys())
          << what << ", n=" << n;
    }
  }
}

TEST(ExactlyOnceTest, PaperExample) {
  auto ex = MakePaperExample();
  ExpectEachValuationOnce(ex->dataset, ex->rules, ex->registry);
}

TEST(ExactlyOnceTest, Tpch) {
  TpchOptions options;
  options.scale_factor = 0.05;
  auto gd = MakeTpch(options);
  ExpectEachValuationOnce(gd->dataset, gd->rules, gd->registry);
}

TEST(ExactlyOnceTest, Ecommerce) {
  EcommerceOptions options;
  options.num_customers = 200;
  auto gd = MakeEcommerce(options);
  ExpectEachValuationOnce(gd->dataset, gd->rules, gd->registry);
}

TEST(ExactlyOnceTest, Tfacc) {
  TfaccOptions options;
  options.scale = 0.3;
  auto gd = MakeTfacc(options);
  ExpectEachValuationOnce(gd->dataset, gd->rules, gd->registry);
}

// The role check on the seeded path across Hypercube shards:
// dependency_capacity = 0 drops every dependency, so IncDeduce's seeded
// re-joins recover them inside each worker's cells. Γ must equal Match's,
// and the work must not depend on whether the workers run on the pool.
TEST(ExactlyOnceTest, SeededAndShardedPathsKeepGammaAndWork) {
  TpchOptions tpch_options;
  tpch_options.scale_factor = 0.05;
  EcommerceOptions ecommerce_options;
  ecommerce_options.num_customers = 200;
  std::unique_ptr<GenDataset> inputs[] = {MakeTpch(tpch_options),
                                          MakeEcommerce(ecommerce_options)};
  for (const auto& gd : inputs) {
    MatchContext reference(gd->dataset);
    engine::Match(DatasetView::Full(gd->dataset), gd->rules, gd->registry, {},
                  &reference);
    for (int n : {2, 4}) {
      uint64_t valuations[2] = {0, 0};
      for (bool run_parallel : {false, true}) {
        DMatchOptions options;
        options.num_workers = n;
        options.run_parallel = run_parallel;
        options.dependency_capacity = 0;
        MatchContext ctx(gd->dataset);
        const DMatchReport report = engine::DMatch(
            gd->dataset, gd->rules, gd->registry, options, &ctx);
        const std::string what = gd->name + ", n=" + std::to_string(n) +
                                 ", run_parallel=" +
                                 std::to_string(run_parallel);
        EXPECT_GT(report.chase.deps_dropped, 0u) << what;
        EXPECT_GT(report.chase.seeded_joins, 0u) << what;
        EXPECT_EQ(ctx.MatchedPairs(), reference.MatchedPairs()) << what;
        EXPECT_EQ(ctx.ValidatedMlKeys(), reference.ValidatedMlKeys()) << what;
        valuations[run_parallel] = report.chase.valuations;
      }
      EXPECT_EQ(valuations[0], valuations[1]) << gd->name << ", n=" << n;
    }
  }
}

// A validated ML fact that no precondition reads serves no other worker: it
// reaches Γ through the deriving worker's derived facts and never crosses
// the wire. Ecommerce's phi5 derives M4 facts, which no rule reads.
TEST(DMatchTest, UnreadMlFactsStayOffTheWire) {
  EcommerceOptions ecommerce_options;
  ecommerce_options.num_customers = 200;
  auto gd = MakeEcommerce(ecommerce_options);
  RuleSet phi5;
  for (const Rule& rule : gd->rules.rules()) {
    if (rule.name() == "phi5") phi5.Add(rule);
  }
  ASSERT_EQ(phi5.size(), 1u);
  EXPECT_TRUE(ReadMlKeys(phi5).empty());
  MatchContext sequential(gd->dataset);
  engine::Match(DatasetView::Full(gd->dataset), phi5, gd->registry, {},
                &sequential);
  ASSERT_GT(sequential.num_validated_ml(), 0u);
  DMatchOptions options;
  options.num_workers = 4;
  MatchContext ctx(gd->dataset);
  const DMatchReport report =
      engine::DMatch(gd->dataset, phi5, gd->registry, options, &ctx);
  EXPECT_EQ(report.outbox_messages, 0u);
  EXPECT_EQ(report.messages, 0u);
  EXPECT_EQ(ctx.ValidatedMlKeys(), sequential.ValidatedMlKeys());
}

// A validated ML fact that a precondition reads must cross the wire: the
// producer's cells hash on `a`, the consumer's on `c`, so a pair's
// validation is mostly derived on another worker than the one that reads
// it. The classifier never says true on its own.
TEST(DMatchTest, ReadMlFactsReachTheirConsumers) {
  Dataset d;
  const size_t rel = d.AddRelation(Schema("R", {{"a", ValueType::kString},
                                                {"b", ValueType::kString},
                                                {"c", ValueType::kString}}));
  constexpr int kPairs = 40;
  for (int i = 0; i < kPairs; ++i) {
    const std::string k = "k" + std::to_string(i);
    const std::string z = "z" + std::to_string(i);
    d.AppendTuple(rel, {Value(k), Value("u" + std::to_string(i)), Value(z)});
    d.AppendTuple(rel, {Value(k), Value("v" + std::to_string(i)), Value(z)});
  }
  MlRegistry registry;
  registry.Register(std::make_unique<TokenJaccardClassifier>("MX", 2.0));
  RuleSet rules;
  ASSERT_TRUE(ParseRuleSet(
                  "consume: R(t) ^ R(s) ^ MX(t.b, s.b) ^ t.c = s.c -> "
                  "t.id = s.id\n"
                  "produce: R(t) ^ R(s) ^ t.a = s.a -> MX(t.b, s.b)\n",
                  d, registry, &rules)
                  .ok());
  MatchContext sequential(d);
  engine::Match(DatasetView::Full(d), rules, registry, {}, &sequential);
  ASSERT_EQ(sequential.num_matched_pairs(), static_cast<uint64_t>(kPairs));
  for (int n : {2, 4}) {
    DMatchOptions options;
    options.num_workers = n;
    MatchContext ctx(d);
    const DMatchReport report =
        engine::DMatch(d, rules, registry, options, &ctx);
    EXPECT_EQ(ctx.MatchedPairs(), sequential.MatchedPairs()) << "n=" << n;
    EXPECT_EQ(ctx.ValidatedMlKeys(), sequential.ValidatedMlKeys())
        << "n=" << n;
    EXPECT_GT(report.messages, 0u) << "n=" << n;
  }
}

// ---------------------------------------------------------------------------
// Equivalence propagation policy and wire accounting.

// On a workload that merges large classes, spanning pairs route linearly
// many facts — the O(n) vs O(n^2) claim, at the master level where it is
// exactly countable: 93 facts, where the |Ca| x |Cb| cross product of the
// final 32 x 32 merge alone would be 1,024. Each tuple lives on one worker,
// so (x, root) goes to x's host alone, and only once it hosts a second
// member of x's class.
TEST(MasterTest, SpanningPairsRouteLinearlyOnClassMerges) {
  constexpr int kWorkers = 2;
  constexpr uint32_t kTuples = 64;
  std::vector<std::vector<uint32_t>> hosts(kTuples);
  for (uint32_t g = 0; g < kTuples; ++g) hosts[g] = {g % kWorkers};
  // Two classes of 32 built by chains, then one merge of the two.
  std::vector<Fact> facts;
  for (uint32_t g = 0; g + 1 < kTuples; ++g) {
    if (g != kTuples / 2 - 1) facts.push_back(Fact::IdMatch(g, g + 1));
  }
  facts.push_back(Fact::IdMatch(0, kTuples / 2));

  Master master(&hosts, kWorkers, kTuples);
  master.Collect(0, facts);
  std::vector<std::vector<Fact>> inboxes;
  master.Dispatch(&inboxes);
  EXPECT_TRUE(master.global_eid().Same(0, kTuples - 1));
  EXPECT_EQ(master.messages_routed(), 93u);
}

// Non-timing report fields are deterministic: same workload, same worker
// count => identical message/byte accounting, across repeated runs and the
// run_parallel toggle.
TEST(DMatchTest, WireAccountingDeterministicAcrossExecutionModes) {
  auto ex = MakePaperExample();
  auto run = [&](bool run_parallel) {
    DMatchOptions options;
    options.num_workers = 4;
    options.run_parallel = run_parallel;
    MatchContext ctx(ex->dataset);
    return engine::DMatch(ex->dataset, ex->rules, ex->registry, options, &ctx);
  };
  DMatchReport reference = run(true);
  for (int rep = 0; rep < 2; ++rep) {
    for (bool run_parallel : {false, true}) {
      DMatchReport r = run(run_parallel);
      EXPECT_EQ(r.supersteps, reference.supersteps);
      EXPECT_EQ(r.messages, reference.messages);
      EXPECT_EQ(r.bytes, reference.bytes);
      EXPECT_EQ(r.outbox_messages, reference.outbox_messages);
      EXPECT_EQ(r.outbox_bytes, reference.outbox_bytes);
      ASSERT_EQ(r.superstep_stats.size(), reference.superstep_stats.size());
      for (size_t i = 0; i < r.superstep_stats.size(); ++i) {
        EXPECT_EQ(r.superstep_stats[i].messages,
                  reference.superstep_stats[i].messages);
        EXPECT_EQ(r.superstep_stats[i].bytes,
                  reference.superstep_stats[i].bytes);
        EXPECT_EQ(r.superstep_stats[i].outbox_bytes,
                  reference.superstep_stats[i].outbox_bytes);
      }
    }
  }
}

}  // namespace
}  // namespace dcer
