// Tests of the online resolver service: the Resolver facade (streamed
// micro-batches vs from-scratch batch bit-identity, snapshot isolation
// under concurrent readers), the request/response protocol codec (including
// version-mismatch refusal), and the dcerd daemon end to end over loopback
// TCP (queries while appends stream, killed clients, half-written frames,
// oversized-frame refusal, SHUTDOWN).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "chase/match.h"
#include "chase/view.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "datagen/ecommerce.h"
#include "datagen/tpch_lite.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/wire.h"
#include "rules/parser.h"
#include "service/client.h"
#include "service/daemon.h"
#include "service/resolver.h"

namespace dcer {
namespace {

using service::DaemonOptions;
using service::DecodeRequest;
using service::DecodeResponse;
using service::EncodeRequest;
using service::EncodeResponse;
using service::MakeAppendRequest;
using service::Request;
using service::ResolverClient;
using service::ResolverDaemon;
using service::Response;

// A small ecommerce workload re-grown into a fresh dataset: everything but
// the last `held_back` tuples appended up front, the tail returned as
// (relation, row) pairs in gid order. Re-appending in gid order reproduces
// the generator's gid assignment exactly, so Γ over the re-grown dataset is
// comparable bit for bit with Γ over the original.
struct StreamSetup {
  std::unique_ptr<GenDataset> gd;
  Dataset prefix;
  RuleSet rules;  // parsed against `prefix`
  std::vector<std::pair<uint32_t, Row>> tail;
};

StreamSetup MakeStreamSetup(std::unique_ptr<GenDataset> gd,
                            size_t held_back) {
  StreamSetup s;
  s.gd = std::move(gd);
  for (size_t r = 0; r < s.gd->dataset.num_relations(); ++r) {
    s.prefix.AddRelation(s.gd->dataset.relation(r).schema());
  }
  Status st = ParseRuleSet(s.gd->rules.ToString(s.gd->dataset), s.prefix,
                           s.gd->registry, &s.rules);
  EXPECT_TRUE(st.ok()) << st.ToString();
  const size_t cut = s.gd->dataset.num_tuples() - held_back;
  for (Gid g = 0; g < cut; ++g) {
    TupleLoc loc = s.gd->dataset.loc(g);
    s.prefix.AppendTuple(loc.relation,
                         s.gd->dataset.relation(loc.relation).row(loc.row));
  }
  for (Gid g = cut; g < s.gd->dataset.num_tuples(); ++g) {
    TupleLoc loc = s.gd->dataset.loc(g);
    s.tail.push_back({static_cast<uint32_t>(loc.relation),
                      s.gd->dataset.relation(loc.relation).row(loc.row)});
  }
  return s;
}

StreamSetup MakeStreamSetup(size_t num_customers, size_t held_back) {
  EcommerceOptions options;
  options.num_customers = num_customers;
  return MakeStreamSetup(MakeEcommerce(options), held_back);
}

// Streams `tail` into `resolver` in batches of `batch_size`.
void AppendInBatches(Resolver* resolver,
                     const std::vector<std::pair<uint32_t, Row>>& tail,
                     size_t batch_size) {
  for (size_t i = 0; i < tail.size();) {
    TupleBatch batch;
    for (size_t j = 0; j < batch_size && i < tail.size(); ++j, ++i) {
      batch.Add(tail[i].first, tail[i].second);
    }
    resolver->Append(std::move(batch));
  }
}

// Γ over the original generated dataset, chased from scratch in one batch.
std::pair<std::vector<std::pair<Gid, Gid>>, std::vector<uint64_t>>
ScratchGamma(const GenDataset& gd) {
  DatasetView view = DatasetView::Full(gd.dataset);
  MatchContext ctx(gd.dataset);
  engine::Match(view, gd.rules, gd.registry, {}, &ctx);
  return {ctx.MatchedPairs(), ctx.ValidatedMlKeys()};
}

// ---------------------------------------------------------------------------
// Protocol codec

TEST(ServiceProtocolTest, RequestRoundTrips) {
  Request resolve;
  resolve.kind = Request::Kind::kResolve;
  resolve.gid = 1234;
  Request same;
  same.kind = Request::Kind::kSame;
  same.a = 7;
  same.b = 99;
  Request stats;
  stats.kind = Request::Kind::kStats;
  Request shutdown;
  shutdown.kind = Request::Kind::kShutdown;
  for (const Request& req : {resolve, same, stats, shutdown}) {
    std::vector<uint8_t> bytes;
    EncodeRequest(req, &bytes);
    Request back;
    ASSERT_EQ(DecodeRequest(bytes, &back), wire::WireError::kOk);
    EXPECT_EQ(back.kind, req.kind);
    EXPECT_EQ(back.gid, req.gid);
    EXPECT_EQ(back.a, req.a);
    EXPECT_EQ(back.b, req.b);
  }
}

TEST(ServiceProtocolTest, AppendRequestRoundTripsThroughTupleBlocks) {
  auto setup = MakeStreamSetup(40, 8);
  Request req = MakeAppendRequest(setup.prefix, setup.tail);
  std::vector<uint8_t> bytes;
  EncodeRequest(req, &bytes);
  Request back;
  ASSERT_EQ(DecodeRequest(bytes, &back), wire::WireError::kOk);
  ASSERT_EQ(back.kind, Request::Kind::kAppend);
  TupleBatch batch;
  ASSERT_EQ(service::DecodeAppendBlocks(back, setup.prefix, &batch),
            wire::WireError::kOk);
  ASSERT_EQ(batch.size(), setup.tail.size());
  // MakeAppendRequest groups rows by relation but preserves content; check
  // the multiset of (relation, row) survives the wire.
  size_t found = 0;
  for (const auto& entry : batch.tuples) {
    for (const auto& [rel, row] : setup.tail) {
      if (entry.relation == rel && entry.row == row) {
        ++found;
        break;
      }
    }
  }
  EXPECT_EQ(found, setup.tail.size());
}

TEST(ServiceProtocolTest, ResponseRoundTrips) {
  Response appended;
  appended.kind = Response::Kind::kAppended;
  appended.gids = {100, 101, 205};
  appended.snapshot_version = 7;
  Response entity;
  entity.kind = Response::Kind::kEntity;
  entity.gids = {3, 17, 44};
  entity.snapshot_version = 2;
  Response boolean;
  boolean.kind = Response::Kind::kBool;
  boolean.value = true;
  boolean.snapshot_version = 9;
  Response stats;
  stats.kind = Response::Kind::kStats;
  stats.text = "{\"queries\":3}";
  stats.snapshot_version = 4;
  Response error;
  error.kind = Response::Kind::kError;
  error.error = wire::WireError::kVersionMismatch;
  error.text = "nope";
  for (const Response& resp : {appended, entity, boolean, stats, error}) {
    std::vector<uint8_t> bytes;
    EncodeResponse(resp, &bytes);
    Response back;
    ASSERT_EQ(DecodeResponse(bytes, &back), wire::WireError::kOk);
    EXPECT_EQ(back.kind, resp.kind);
    EXPECT_EQ(back.gids, resp.gids);
    EXPECT_EQ(back.snapshot_version, resp.snapshot_version);
    EXPECT_EQ(back.value, resp.value);
    EXPECT_EQ(back.text, resp.text);
    EXPECT_EQ(back.error, resp.error);
  }
}

TEST(ServiceProtocolTest, ForeignVersionIsTypedRefusal) {
  Request stats;
  stats.kind = Request::Kind::kStats;
  std::vector<uint8_t> bytes;
  EncodeRequest(stats, &bytes);
  ASSERT_GE(bytes.size(), size_t{3});
  ASSERT_EQ(bytes[1], wire::kWireVersion);
  bytes[1] = wire::kWireVersion + 1;  // a future protocol revision
  Request back;
  EXPECT_EQ(DecodeRequest(bytes, &back), wire::WireError::kVersionMismatch);
  bytes[1] = 0x01;  // the pre-header v1 revision
  EXPECT_EQ(DecodeRequest(bytes, &back), wire::WireError::kVersionMismatch);
}

TEST(ServiceProtocolTest, GarbageFramesFailTyped) {
  Request back;
  EXPECT_EQ(DecodeRequest(std::vector<uint8_t>{}, &back),
            wire::WireError::kTruncated);
  EXPECT_EQ(DecodeRequest(std::vector<uint8_t>{0x00, 0x02, 0x14}, &back),
            wire::WireError::kBadMagic);
  EXPECT_EQ(
      DecodeRequest(std::vector<uint8_t>{wire::kMagic, wire::kWireVersion,
                                         0x7E},
                    &back),
      wire::WireError::kBadTag);
}

// ---------------------------------------------------------------------------
// Resolver facade

TEST(ResolverTest, StreamedMicroBatchesEqualFromScratchBatch) {
  constexpr size_t kHeldBack = 32;
  constexpr size_t kBatchSize = 4;
  auto setup = MakeStreamSetup(120, kHeldBack);
  auto resolver = Resolver::Open(std::move(setup.prefix), setup.rules,
                                 &setup.gd->registry);
  uint64_t last_version = resolver->Snapshot()->version();
  size_t i = 0;
  while (i < setup.tail.size()) {
    TupleBatch batch;
    for (size_t j = 0; j < kBatchSize && i < setup.tail.size(); ++j, ++i) {
      batch.Add(setup.tail[i].first, setup.tail[i].second);
    }
    const size_t batch_size = batch.size();
    AppendOutcome outcome = resolver->Append(std::move(batch));
    EXPECT_EQ(outcome.gids.size(), batch_size);
    EXPECT_GT(outcome.snapshot_version, last_version);
    last_version = outcome.snapshot_version;
  }
  ASSERT_EQ(resolver->dataset().num_tuples(), setup.gd->dataset.num_tuples());

  auto snapshot = resolver->Snapshot();
  auto [scratch_pairs, scratch_ml] = ScratchGamma(*setup.gd);
  EXPECT_EQ(snapshot->MatchedPairs(), scratch_pairs);
  EXPECT_EQ(snapshot->ValidatedMlKeys(), scratch_ml);
  EXPECT_EQ(snapshot->num_tuples(), setup.gd->dataset.num_tuples());
}

TEST(ResolverTest, BorrowedResolverRefusesAppend) {
  EcommerceOptions options;
  options.num_customers = 40;
  auto gd = MakeEcommerce(options);
  auto resolver =
      Resolver::OpenBorrowed(gd->dataset, gd->rules, &gd->registry);
  EXPECT_FALSE(resolver->owns_dataset());
  const size_t before = gd->dataset.num_tuples();
  TupleBatch batch;
  batch.Add(0, gd->dataset.relation(0).row(0));
  AppendOutcome outcome = resolver->Append(std::move(batch));
  EXPECT_EQ(outcome.status.code(), Status::Code::kNotSupported);
  EXPECT_TRUE(outcome.gids.empty());
  EXPECT_EQ(gd->dataset.num_tuples(), before);
}

// A batch is validated whole before its first tuple is appended: each bad
// batch below leads with a valid tuple, and after its refusal the dataset
// and the published snapshot are exactly as before.
TEST(ResolverTest, InvalidBatchIsRefusedBeforeAnyTupleIsAppended) {
  auto setup = MakeStreamSetup(40, 4);
  auto resolver = Resolver::Open(std::move(setup.prefix), setup.rules,
                                 &setup.gd->registry);
  const auto [rel, good] = setup.tail[0];
  const Schema& schema = resolver->dataset().relation(rel).schema();
  size_t string_attr = schema.num_attrs();
  for (size_t a = 0; a < schema.num_attrs(); ++a) {
    if (schema.attr(a).type == ValueType::kString) string_attr = a;
  }
  ASSERT_LT(string_attr, schema.num_attrs());

  Row short_row = good;
  short_row.pop_back();
  Row long_row = good;
  long_row.push_back(Value(int64_t{7}));
  Row wrong_type = good;
  wrong_type[string_attr] = Value(int64_t{7});
  const std::pair<size_t, Row> bad_tuples[] = {
      {resolver->dataset().num_relations(), good},
      {rel, short_row},
      {rel, long_row},
      {rel, wrong_type},
  };
  const size_t tuples = resolver->dataset().num_tuples();
  const uint64_t version = resolver->Snapshot()->version();
  for (const auto& [bad_rel, bad_row] : bad_tuples) {
    TupleBatch batch;
    batch.Add(rel, good);
    batch.Add(bad_rel, bad_row);
    const AppendOutcome outcome = resolver->Append(std::move(batch));
    EXPECT_EQ(outcome.status.code(), Status::Code::kInvalidArgument)
        << outcome.status.ToString();
    EXPECT_TRUE(outcome.gids.empty());
    EXPECT_EQ(resolver->dataset().num_tuples(), tuples);
    EXPECT_EQ(resolver->Snapshot()->version(), version);
  }

  // A NULL cell fits any column, and the resolver still appends after the
  // refusals.
  Row with_null = good;
  with_null[string_attr] = Value::Null();
  TupleBatch batch;
  batch.Add(rel, with_null);
  const AppendOutcome outcome = resolver->Append(std::move(batch));
  EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(outcome.gids.size(), 1u);
  EXPECT_EQ(resolver->dataset().num_tuples(), tuples + 1);
  EXPECT_GT(resolver->Snapshot()->version(), version);
}

TEST(ResolverTest, SnapshotQueriesAgreeWithGamma) {
  EcommerceOptions options;
  options.num_customers = 60;
  auto gd = MakeEcommerce(options);
  auto resolver =
      Resolver::OpenBorrowed(gd->dataset, gd->rules, &gd->registry);
  auto snapshot = resolver->Snapshot();
  auto [pairs, ml] = ScratchGamma(*gd);
  EXPECT_EQ(snapshot->MatchedPairs(), pairs);
  EXPECT_EQ(snapshot->ValidatedMlKeys(), ml);
  for (const auto& [a, b] : pairs) {
    EXPECT_TRUE(resolver->SameEntity(a, b));
    std::vector<Gid> cls = resolver->Resolve(a);
    EXPECT_TRUE(std::find(cls.begin(), cls.end(), b) != cls.end());
  }
}

// The TSan lane's target: readers hammer the published snapshot from
// several threads while one appender streams micro-batches through the
// resolver. Snapshot isolation means no reader ever blocks on or races the
// chase; versions observed by each reader must be monotone.
TEST(ResolverTest, ConcurrentSnapshotReadersWhileAppending) {
  constexpr size_t kHeldBack = 24;
  constexpr size_t kBatchSize = 4;
  auto setup = MakeStreamSetup(80, kHeldBack);
  auto resolver = Resolver::Open(std::move(setup.prefix), setup.rules,
                                 &setup.gd->registry);

  std::atomic<bool> done{false};
  std::atomic<bool> monotone{true};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&resolver, &done, &monotone] {
      uint64_t last = 0;
      Gid probe = 0;
      while (!done.load(std::memory_order_acquire)) {
        auto snap = resolver->Snapshot();
        if (snap->version() < last) {
          monotone.store(false, std::memory_order_relaxed);
        }
        last = snap->version();
        // Read through the snapshot: membership, classes, ML keys.
        snap->SameEntity(probe, probe + 1);
        std::vector<Gid> cls = snap->Entity(probe % snap->num_tuples());
        if (!cls.empty()) probe = cls.back();
        snap->ValidatedMlKeys();
      }
    });
  }

  AppendInBatches(resolver.get(), setup.tail, kBatchSize);
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_TRUE(monotone.load());

  auto [pairs, ml] = ScratchGamma(*setup.gd);
  EXPECT_EQ(resolver->Snapshot()->MatchedPairs(), pairs);
  EXPECT_EQ(resolver->Snapshot()->ValidatedMlKeys(), ml);
}

// A sequential open reports the whole chase: its seconds cover the full
// pass as well as IncDeduce, and its ML counts are the registry's deltas.
TEST(ResolverTest, OpenReportCoversTheWholeChase) {
  auto setup = MakeStreamSetup(300, 0);
  const MlRegistry& registry = setup.gd->registry;
  const uint64_t preds = registry.num_predictions();
  const uint64_t hits = registry.num_cache_hits();
  Timer timer;
  auto resolver =
      Resolver::Open(std::move(setup.prefix), setup.rules, &registry);
  const double wall = timer.ElapsedSeconds();
  const MatchReport* report = resolver->match_report();
  ASSERT_NE(report, nullptr);
  EXPECT_GE(report->seconds, 0.25 * wall);
  EXPECT_EQ(report->ml_predictions, registry.num_predictions() - preds);
  EXPECT_EQ(report->ml_cache_hits, registry.num_cache_hits() - hits);
  EXPECT_GT(report->ml_predictions + report->ml_cache_hits, 0u);
}

// Each Append reports only its own work. The ground truth drives the same
// open and appends on a ChaseEngine directly and reads its running counters
// around each step. A small dependency capacity makes H drop, so
// deps_dropped is nonzero at open — a running total would show up there.
TEST(ResolverTest, AppendReportsCountOnlyTheirOwnWork) {
  constexpr size_t kHeldBack = 8;
  ResolverOptions options;
  options.dependency_capacity = 16;
  auto setup = MakeStreamSetup(80, kHeldBack);
  auto resolver = Resolver::Open(std::move(setup.prefix), setup.rules,
                                 &setup.gd->registry, options);

  auto replica = MakeStreamSetup(80, kHeldBack);
  DatasetView view = DatasetView::Full(replica.prefix);
  MatchContext ctx(replica.prefix);
  DatasetProfiles profiles(replica.prefix, replica.rules, options.ml_profiles);
  ChaseEngine::Options engine_options =
      ChaseEngine::FromEngineOptions(options, &ThreadPool::Global());
  engine_options.profiles = profiles.store();
  ChaseEngine engine(&view, &replica.rules, &replica.gd->registry, &ctx,
                     engine_options);
  Delta open_delta, open_rest;
  engine.Deduce(&open_delta);
  engine.IncDeduce(open_delta, &open_rest);
  ASSERT_GT(engine.stats().deps_dropped, 0u);
  EXPECT_TRUE(resolver->match_report()->chase == engine.stats());

  const MlRegistry& registry = setup.gd->registry;
  uint64_t ml_calls = 0;
  for (size_t b = 0; b < 2; ++b) {
    const ChaseStats before = engine.stats();
    TupleBatch batch;
    std::vector<Gid> gids;
    for (size_t i = b * kHeldBack / 2; i < (b + 1) * kHeldBack / 2; ++i) {
      batch.Add(setup.tail[i].first, setup.tail[i].second);
      gids.push_back(replica.prefix.AppendTuple(replica.tail[i].first,
                                                replica.tail[i].second));
    }
    const uint64_t preds = registry.num_predictions();
    const uint64_t hits = registry.num_cache_hits();
    const AppendOutcome outcome = resolver->Append(std::move(batch));
    EXPECT_EQ(outcome.report.ml_predictions,
              registry.num_predictions() - preds);
    EXPECT_EQ(outcome.report.ml_cache_hits, registry.num_cache_hits() - hits);
    ml_calls += outcome.report.ml_predictions + outcome.report.ml_cache_hits;
    ctx.GrowToDataset();
    for (Gid gid : gids) view.Append(gid);
    profiles.NotifyAppend(gids);
    engine.NotifyAppend(gids);
    Delta delta, rest;
    engine.DeduceForNewTuples(gids, &delta);
    engine.IncDeduce(delta, &rest);
    EXPECT_TRUE(outcome.report.chase == engine.stats() - before)
        << "append " << b << ": deps_dropped "
        << outcome.report.chase.deps_dropped << " vs "
        << (engine.stats() - before).deps_dropped;
  }
  EXPECT_GT(ml_calls, 0u);
}

// ---------------------------------------------------------------------------
// The dataset's ML profile store

// A DMatch open and its first Append build exactly one store: the four
// workers and the incremental engine all read the Resolver's.
TEST(ResolverProfilesTest, DMatchOpenAndFirstAppendBuildOneStore) {
  const bool metrics_were_on = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  obs::Counter* builds =
      obs::MetricsRegistry::Global().GetCounter("ml.profile_builds");
  const uint64_t before = builds->Value();
  auto setup = MakeStreamSetup(80, 8);
  ResolverOptions options;
  options.num_workers = 4;
  auto resolver = Resolver::Open(std::move(setup.prefix), setup.rules,
                                 &setup.gd->registry, options);
  AppendInBatches(resolver.get(), setup.tail, setup.tail.size());
  EXPECT_EQ(builds->Value() - before, 1u);
  EXPECT_NE(resolver->profiles(), nullptr);
  obs::SetMetricsEnabled(metrics_were_on);
}

// Only strings of ML columns are profiled, and an Append that puts an
// already-interned string into an ML column gets it profiled.
TEST(ResolverProfilesTest, ScopeIsTheMlColumnsAndFollowsAppends) {
  auto setup = MakeStreamSetup(40, 0);
  auto resolver = Resolver::Open(std::move(setup.prefix), setup.rules,
                                 &setup.gd->registry);
  const Dataset& d = resolver->dataset();
  const ProfileStore* store = resolver->profiles();
  ASSERT_NE(store, nullptr);
  const size_t customers = d.RelationIndexOrDie("Customers");
  const Relation& rel = d.relation(customers);
  const int name = rel.schema().AttrIndex("name");    // M3 scores it
  const int phone = rel.schema().AttrIndex("phone");  // equality joins only
  ASSERT_FALSE(rel.is_null(0, name));
  ASSERT_FALSE(rel.is_null(0, phone));
  const uint32_t phone_id = rel.column(phone).str_id(0);
  EXPECT_NE(store->Find(rel.column(name).str_id(0)), nullptr);
  EXPECT_EQ(store->Find(phone_id), nullptr);
  const size_t profiled = store->size();
  EXPECT_LT(profiled, d.pool().size());

  const std::string phone_text(rel.string_at(0, phone));
  Row row = rel.row(0);
  row[name] = Value(phone_text);
  TupleBatch batch;
  batch.Add(customers, std::move(row));
  resolver->Append(std::move(batch));
  const ProfileStore::Profile* p = store->Find(phone_id);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->byte_len, phone_text.size());
  EXPECT_EQ(store->size(), profiled + 1);
}

std::unique_ptr<GenDataset> MakeWorkload(std::string_view name) {
  if (name == "tpch") {
    TpchOptions o;
    o.scale = 0.25;
    return MakeTpch(o);
  }
  EcommerceOptions o;
  o.num_customers = 120;
  return MakeEcommerce(o);
}

// Γ and the validated ML keys do not depend on profiles: sequential and
// DMatch opens of the whole dataset, and prefix opens with the tail
// streamed in, with the store on and off. The DMatch(4) opens run their
// workers in parallel over the one store — the TSan lane's check that its
// concurrent readers never race.
class ProfilesOnOffTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ProfilesOnOffTest, GammaBitIdenticalAcrossOpensAndStreams) {
  struct Run {
    std::string tag;
    std::vector<std::pair<Gid, Gid>> pairs;
    std::vector<uint64_t> ml;
  };
  std::vector<Run> runs;
  for (bool profiles : {false, true}) {
    for (int workers : {0, 4}) {
      ResolverOptions options;
      options.ml_profiles = profiles;
      options.num_workers = workers;
      const std::string tag = std::string(profiles ? "on" : "off") +
                              " workers=" + std::to_string(workers);
      auto gd = MakeWorkload(GetParam());
      auto open =
          Resolver::OpenBorrowed(gd->dataset, gd->rules, &gd->registry, options);
      runs.push_back({tag + " open", open->Snapshot()->MatchedPairs(),
                      open->Snapshot()->ValidatedMlKeys()});

      auto setup = MakeStreamSetup(MakeWorkload(GetParam()), 24);
      auto stream = Resolver::Open(std::move(setup.prefix), setup.rules,
                                   &setup.gd->registry, options);
      EXPECT_EQ(stream->profiles() != nullptr, profiles) << tag;
      AppendInBatches(stream.get(), setup.tail, 4);
      runs.push_back({tag + " stream", stream->Snapshot()->MatchedPairs(),
                      stream->Snapshot()->ValidatedMlKeys()});
    }
  }
  EXPECT_FALSE(runs[0].pairs.empty());
  for (const Run& run : runs) {
    EXPECT_EQ(run.pairs, runs[0].pairs) << run.tag;
    EXPECT_EQ(run.ml, runs[0].ml) << run.tag;
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, ProfilesOnOffTest,
                         ::testing::Values("ecommerce", "tpch"));

// ---------------------------------------------------------------------------
// Daemon end to end (loopback TCP)

struct DaemonFixture {
  std::unique_ptr<GenDataset> gd;  // pristine copy for schemas + scratch Γ
  std::vector<std::pair<uint32_t, Row>> tail;
  std::unique_ptr<ResolverDaemon> daemon;

  explicit DaemonFixture(size_t num_customers, size_t held_back,
                         DaemonOptions dopt = {}) {
    auto setup = MakeStreamSetup(num_customers, held_back);
    gd = std::move(setup.gd);
    tail = std::move(setup.tail);
    auto resolver = Resolver::Open(std::move(setup.prefix), setup.rules,
                                   &gd->registry);
    daemon = std::make_unique<ResolverDaemon>(std::move(resolver), dopt);
    Status st = daemon->Start();
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
};

TEST(DaemonTest, ServesQueriesWhileAppendsStream) {
  constexpr size_t kBatchSize = 4;
  DaemonFixture fx(80, 24);
  ResolverClient client;
  ASSERT_TRUE(client.Connect(fx.daemon->port()).ok());

  // A concurrent reader on its own connection keeps querying while the
  // appends stream in; versions it observes must be monotone.
  std::atomic<bool> done{false};
  std::atomic<bool> reader_ok{true};
  std::thread reader([&fx, &done, &reader_ok] {
    ResolverClient c;
    if (!c.Connect(fx.daemon->port()).ok()) {
      reader_ok.store(false);
      return;
    }
    uint64_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      Response r;
      if (!c.SameEntity(0, 1, &r).ok() || r.snapshot_version < last) {
        reader_ok.store(false);
        return;
      }
      last = r.snapshot_version;
    }
  });

  uint64_t last_ack_version = 0;
  size_t appended = 0;
  size_t i = 0;
  while (i < fx.tail.size()) {
    std::vector<std::pair<uint32_t, Row>> rows;
    for (size_t j = 0; j < kBatchSize && i < fx.tail.size(); ++j, ++i) {
      rows.push_back(fx.tail[i]);
    }
    Response resp;
    ASSERT_TRUE(
        client.Append(fx.daemon->resolver().dataset(), rows, &resp).ok());
    ASSERT_EQ(resp.gids.size(), rows.size());
    EXPECT_GT(resp.snapshot_version, last_ack_version);
    last_ack_version = resp.snapshot_version;
    appended += rows.size();

    // Ack implies visibility: a query issued after the APPENDED reply must
    // see at least that snapshot, and the new gids must resolve.
    Response qr;
    ASSERT_TRUE(client.Resolve(resp.gids.back(), &qr).ok());
    EXPECT_GE(qr.snapshot_version, last_ack_version);
    EXPECT_TRUE(std::find(qr.gids.begin(), qr.gids.end(), resp.gids.back()) !=
                qr.gids.end());
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_TRUE(reader_ok.load());
  EXPECT_EQ(appended, fx.tail.size());

  // The daemon's Γ after the stream equals the from-scratch batch Γ.
  auto snapshot = fx.daemon->resolver().Snapshot();
  auto [pairs, ml] = ScratchGamma(*fx.gd);
  EXPECT_EQ(snapshot->MatchedPairs(), pairs);
  EXPECT_EQ(snapshot->ValidatedMlKeys(), ml);

  Response stats;
  ASSERT_TRUE(client.Stats(&stats).ok());
  EXPECT_NE(stats.text.find("\"append_requests\""), std::string::npos);
  fx.daemon->Stop();
}

// APPENDED gids follow the request's tuple blocks, not the caller's row
// order: ResolverClient::Append groups rows into one block per relation
// (ascending relation index, row order kept within a block), and the daemon
// assigns gids while reading the blocks in sequence.
TEST(DaemonTest, AppendedGidsFollowTupleBlockOrder) {
  DaemonFixture fx(40, 8);
  const Dataset& source = fx.gd->dataset;
  std::vector<std::pair<uint32_t, Row>> rows;
  for (size_t i = 0; i < 3; ++i) {  // higher relation first, interleaved
    rows.push_back({1, source.relation(1).row(i)});
    rows.push_back({0, source.relation(0).row(i)});
  }
  std::vector<std::pair<uint32_t, Row>> want = rows;
  std::stable_sort(want.begin(), want.end(), [](const auto& x, const auto& y) {
    return x.first < y.first;
  });

  ResolverClient client;
  ASSERT_TRUE(client.Connect(fx.daemon->port()).ok());
  Response resp;
  ASSERT_TRUE(client.Append(source, rows, &resp).ok());
  ASSERT_EQ(resp.gids.size(), rows.size());
  client.Close();
  fx.daemon->Stop();  // waits out the chase: the dataset is quiescent

  const Dataset& served = fx.daemon->resolver().dataset();
  for (size_t i = 0; i < want.size(); ++i) {
    const TupleLoc loc = served.loc(resp.gids[i]);
    EXPECT_EQ(loc.relation, want[i].first) << "gid #" << i;
    const Row got = served.relation(loc.relation).row(loc.row);
    EXPECT_EQ(got, want[i].second) << "gid #" << i;
  }
}

TEST(DaemonTest, ForeignVersionFrameGetsTypedErrorAndConnectionSurvives) {
  DaemonFixture fx(40, 8);
  ResolverClient client;
  ASSERT_TRUE(client.Connect(fx.daemon->port()).ok());

  Request stats;
  stats.kind = Request::Kind::kStats;
  std::vector<uint8_t> payload;
  EncodeRequest(stats, &payload);
  payload[1] = wire::kWireVersion + 1;  // future revision
  std::vector<uint8_t> reply;
  ASSERT_TRUE(client.CallRaw(payload, &reply).ok());
  Response resp;
  ASSERT_EQ(DecodeResponse(reply, &resp), wire::WireError::kOk);
  EXPECT_EQ(resp.kind, Response::Kind::kError);
  EXPECT_EQ(resp.error, wire::WireError::kVersionMismatch);

  // The framing stayed in sync: the same connection keeps working.
  Response ok;
  EXPECT_TRUE(client.Stats(&ok).ok());
  fx.daemon->Stop();
  EXPECT_GE(fx.daemon->stats().frames_rejected, uint64_t{1});
}

TEST(DaemonTest, OversizedFramePrefixIsRefused) {
  DaemonOptions dopt;
  dopt.max_frame_bytes = 1024;
  DaemonFixture fx(40, 8, dopt);
  ResolverClient client;
  ASSERT_TRUE(client.Connect(fx.daemon->port()).ok());

  // A length prefix past the cap: the daemon must answer with a typed ERROR
  // and close, never waiting for (or buffering) the advertised body.
  std::vector<uint8_t> huge = {0x00, 0x00, 0x10, 0x00};  // 1 MiB little-endian
  ASSERT_TRUE(client.SendBytes(huge).ok());
  Response resp;
  Status st = client.Stats(&resp);
  EXPECT_FALSE(st.ok());  // ERROR reply or connection closed — never a hang

  // The daemon survives and serves fresh connections.
  ResolverClient fresh;
  ASSERT_TRUE(fresh.Connect(fx.daemon->port()).ok());
  Response ok;
  EXPECT_TRUE(fresh.Stats(&ok).ok());
  fx.daemon->Stop();
  EXPECT_GE(fx.daemon->stats().frames_rejected, uint64_t{1});
}

TEST(DaemonTest, KilledClientWithHalfWrittenFrameIsHandled) {
  DaemonFixture fx(40, 8);
  {
    // Write a frame prefix promising 100 bytes, deliver 10, vanish.
    ResolverClient half;
    ASSERT_TRUE(half.Connect(fx.daemon->port()).ok());
    std::vector<uint8_t> partial = {100, 0, 0, 0};
    partial.insert(partial.end(), 10, 0xAB);
    ASSERT_TRUE(half.SendBytes(partial).ok());
    half.Close();
  }
  {
    // Connect and vanish mid-handshake with nothing written at all.
    ResolverClient ghost;
    ASSERT_TRUE(ghost.Connect(fx.daemon->port()).ok());
    ghost.Close();
  }
  // The daemon shrugs both off and keeps serving.
  ResolverClient client;
  ASSERT_TRUE(client.Connect(fx.daemon->port()).ok());
  Response resp;
  EXPECT_TRUE(client.Stats(&resp).ok());
  EXPECT_TRUE(client.SameEntity(0, 0, &resp).ok());
  EXPECT_TRUE(resp.value);
  fx.daemon->Stop();
  EXPECT_GE(fx.daemon->stats().connections_closed, uint64_t{2});
}

TEST(DaemonTest, ShutdownRequestStopsTheDaemon) {
  DaemonFixture fx(40, 8);
  ResolverClient client;
  ASSERT_TRUE(client.Connect(fx.daemon->port()).ok());
  Response resp;
  ASSERT_TRUE(client.Shutdown(&resp).ok());
  EXPECT_TRUE(resp.value);
  // The poll the dcerd binary runs: stop_requested flips, Stop() is clean.
  for (int i = 0; i < 100 && !fx.daemon->stop_requested(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(fx.daemon->stop_requested());
  fx.daemon->Stop();
}

TEST(DaemonTest, ResolveOfUnknownGidIsSingleton) {
  DaemonFixture fx(40, 8);
  ResolverClient client;
  ASSERT_TRUE(client.Connect(fx.daemon->port()).ok());
  const Gid beyond =
      static_cast<Gid>(fx.daemon->resolver().dataset().num_tuples() + 100);
  Response resp;
  ASSERT_TRUE(client.Resolve(beyond, &resp).ok());
  EXPECT_EQ(resp.gids, std::vector<Gid>{beyond});
  Response same;
  ASSERT_TRUE(client.SameEntity(beyond, 0, &same).ok());
  EXPECT_FALSE(same.value);
  fx.daemon->Stop();
}

// ---------------------------------------------------------------------------
// Telemetry plane: exposition endpoints, old-version compat, trace stitching.

// One blocking HTTP/1.0 GET against the daemon's scrape listener.
std::string HttpGet(uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  size_t sent = 0;
  while (sent < req.size()) {
    ssize_t n = ::send(fd, req.data() + sent, req.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return {};
    }
    sent += static_cast<size_t>(n);
  }
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

TEST(DaemonTest, MetricsVerbReturnsParseableExposition) {
  DaemonFixture fx(40, 8);
  ResolverClient client;
  ASSERT_TRUE(client.Connect(fx.daemon->port()).ok());
  // One APPEND through the queue so the request histograms have samples,
  // and one query to publish it.
  Response resp;
  ASSERT_TRUE(
      client.Append(fx.daemon->resolver().dataset(), fx.tail, &resp).ok());
  ASSERT_TRUE(client.Resolve(resp.gids.back(), &resp).ok());

  Response metrics;
  ASSERT_TRUE(client.Metrics(&metrics).ok());
  ASSERT_EQ(metrics.kind, Response::Kind::kMetrics);
  obs::ExpositionParse parsed = obs::ParseExposition(metrics.text);
  ASSERT_TRUE(parsed.ok()) << parsed.error << "\n" << metrics.text;
  // The three per-request histograms of the telemetry plane, in seconds.
  for (const char* fam : {"dcerd_queue_wait_seconds", "dcerd_exec_seconds",
                          "dcerd_publish_lag_seconds"}) {
    EXPECT_TRUE(parsed.HasFamily(fam)) << fam << "\n" << metrics.text;
    EXPECT_GE(parsed.Value(std::string(fam) + "_count"), 1.0) << fam;
  }
  // Registry counters round-trip too.
  EXPECT_GE(parsed.Value("dcerd_append_requests_total"), 1.0) << metrics.text;
  EXPECT_GE(parsed.Value("dcerd_frames_received_total"), 3.0) << metrics.text;
  fx.daemon->Stop();
}

TEST(DaemonTest, HttpEndpointsServeMetricsAndHealth) {
  DaemonOptions dopt;
  dopt.metrics_port = 0;  // ephemeral
  DaemonFixture fx(40, 8, dopt);
  ASSERT_GT(fx.daemon->metrics_port(), 0);
  ResolverClient client;
  ASSERT_TRUE(client.Connect(fx.daemon->port()).ok());
  Response resp;
  ASSERT_TRUE(
      client.Append(fx.daemon->resolver().dataset(), fx.tail, &resp).ok());
  ASSERT_TRUE(client.Resolve(resp.gids.back(), &resp).ok());

  const std::string scrape = HttpGet(fx.daemon->metrics_port(), "/metrics");
  ASSERT_EQ(scrape.compare(0, 12, "HTTP/1.0 200"), 0) << scrape;
  EXPECT_NE(scrape.find("Content-Type: text/plain"), std::string::npos)
      << scrape;
  const size_t body_at = scrape.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  obs::ExpositionParse parsed =
      obs::ParseExposition(scrape.substr(body_at + 4));
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_TRUE(parsed.HasFamily("dcerd_queue_wait_seconds"));
  EXPECT_TRUE(parsed.HasFamily("dcerd_exec_seconds"));
  EXPECT_TRUE(parsed.HasFamily("dcerd_publish_lag_seconds"));

  const std::string health = HttpGet(fx.daemon->metrics_port(), "/healthz");
  EXPECT_EQ(health.compare(0, 12, "HTTP/1.0 200"), 0) << health;
  EXPECT_NE(health.find("ok"), std::string::npos) << health;

  const std::string missing = HttpGet(fx.daemon->metrics_port(), "/nope");
  EXPECT_EQ(missing.compare(0, 12, "HTTP/1.0 404"), 0) << missing;

  // The scrape listener is a separate socket: the wire port still speaks
  // frames, and the daemon survives all the HTTP traffic.
  Response ok;
  EXPECT_TRUE(client.Stats(&ok).ok());
  fx.daemon->Stop();
}

TEST(DaemonTest, PreviousWireVersionClientIsStillServed) {
  DaemonFixture fx(40, 8);
  ResolverClient client;
  ASSERT_TRUE(client.Connect(fx.daemon->port()).ok());

  // A v2 client's STATS frame: header only, no flags byte.
  std::vector<uint8_t> v2_stats = {wire::kMagic, 0x02,
                                   wire::kStatsRequestTag};
  std::vector<uint8_t> reply;
  ASSERT_TRUE(client.CallRaw(v2_stats, &reply).ok());
  Response resp;
  ASSERT_EQ(DecodeResponse(reply, &resp), wire::WireError::kOk);
  EXPECT_EQ(resp.kind, Response::Kind::kStats);
  EXPECT_NE(resp.text.find("\"append_requests\""), std::string::npos);

  // A v2 RESOLVE with its varint gid body still gets the correct entity.
  std::vector<uint8_t> v2_resolve = {wire::kMagic, 0x02,
                                     wire::kResolveRequestTag};
  wire::PutVarint(5, &v2_resolve);
  ASSERT_TRUE(client.CallRaw(v2_resolve, &reply).ok());
  ASSERT_EQ(DecodeResponse(reply, &resp), wire::WireError::kOk);
  ASSERT_EQ(resp.kind, Response::Kind::kEntity);
  EXPECT_TRUE(std::find(resp.gids.begin(), resp.gids.end(), Gid{5}) !=
              resp.gids.end());

  // Below the compat window is still a typed refusal.
  std::vector<uint8_t> v1 = {wire::kMagic, 0x01, wire::kStatsRequestTag};
  ASSERT_TRUE(client.CallRaw(v1, &reply).ok());
  ASSERT_EQ(DecodeResponse(reply, &resp), wire::WireError::kOk);
  EXPECT_EQ(resp.kind, Response::Kind::kError);
  EXPECT_EQ(resp.error, wire::WireError::kVersionMismatch);
  fx.daemon->Stop();
}

// Events serialize as one flat object with "name" first and "trace_id"
// inside "args", so a span's id is the trace_id between its name and the
// next event's name. A name can occur several times — spans recorded
// outside any request (the startup fixpoint) carry no trace_id — so the
// helpers scan every occurrence.

// The args.trace_id of the first *tagged* event named `span`, or "".
std::string TraceIdOfSpan(const std::string& json, const std::string& span) {
  const std::string needle = "\"name\":\"" + span + "\"";
  for (size_t at = json.find(needle); at != std::string::npos;
       at = json.find(needle, at + 1)) {
    const size_t next = json.find("\"name\":\"", at + 1);
    const size_t id_at = json.find("\"trace_id\":\"", at);
    if (id_at == std::string::npos) return {};
    if (next != std::string::npos && id_at > next) continue;  // untagged
    const size_t start = id_at + 12;
    const size_t end = json.find('"', start);
    if (end == std::string::npos) return {};
    return json.substr(start, end - start);
  }
  return {};
}

// True iff some event named `span` carries args.trace_id == `id`.
bool SpanCarriesTraceId(const std::string& json, const std::string& span,
                        const std::string& id) {
  const std::string needle = "\"name\":\"" + span + "\"";
  const std::string tagged = "\"trace_id\":\"" + id + "\"";
  for (size_t at = json.find(needle); at != std::string::npos;
       at = json.find(needle, at + 1)) {
    const size_t next = json.find("\"name\":\"", at + 1);
    const size_t id_at = json.find(tagged, at);
    if (id_at != std::string::npos &&
        (next == std::string::npos || id_at < next)) {
      return true;
    }
  }
  return false;
}

TEST(DaemonTest, AppendTraceStitchesAcrossClientDaemonAndChase) {
  obs::SetTraceEnabled(true);
  obs::ClearTrace();
  {
    DaemonFixture fx(40, 8);
    ResolverClient client;
    ASSERT_TRUE(client.Connect(fx.daemon->port()).ok());
    Response resp;
    ASSERT_TRUE(
        client.Append(fx.daemon->resolver().dataset(), fx.tail, &resp).ok());
    client.Close();
    // Stop() drains the in-flight chase, so every daemon-side span for the
    // append has closed (and recorded) by the time we flush.
    fx.daemon->Stop();
  }
  const std::string json = obs::ChromeTraceJson();
  obs::SetTraceEnabled(false);
  obs::ClearTrace();

  // One request, one trace: the client span, the daemon's drain, the
  // resolver's append and the chase's incremental fixpoint all carry the
  // same wire-propagated trace_id.
  const std::string client_id = TraceIdOfSpan(json, "client.append");
  ASSERT_FALSE(client_id.empty()) << json;
  EXPECT_TRUE(SpanCarriesTraceId(json, "dcerd.drain", client_id)) << json;
  EXPECT_TRUE(SpanCarriesTraceId(json, "resolver.append", client_id)) << json;
  EXPECT_TRUE(SpanCarriesTraceId(json, "chase.inc_deduce", client_id)) << json;
}

}  // namespace
}  // namespace dcer
