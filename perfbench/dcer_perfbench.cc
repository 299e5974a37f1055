// dcer_perfbench — the end-to-end benchmark of dcer.
//
// One process runs one workload (or, with --smoke, every workload at tiny
// sizes). Every workload drives the system only through what a user calls:
// Resolver::Open / Append, and a ResolverClient against an in-process
// ResolverDaemon over loopback. A run is
//
//   set-ups     kSetUps times: generate the workload from --seed, hold back a
//               seeded sample of tuples, parse the rules, open a sequential
//               resolver on the rest and start dcerd on it. The first serves
//               the stream, the second takes in-process appends, the third
//               gives the batch opens their inputs, the rest only add
//               samples of setup_s;
//   iterations  a fixed number (--seconds over the workload's nominal
//               iteration time), each of
//                 batch   Resolver::Open on the whole generated dataset,
//                         sequentially and with DMatch(4), then the first
//                         8-tuple Append after the DMatch open;
//                 append  the next stream batches through Resolver::Append
//                         on the second set-up's resolver;
//                 serve   a closed-loop window of back-to-back appenders
//                         against the first set-up's dcerd;
//               and, once, in the middle iteration, an open-loop window
//               (APPENDs and RESOLVE/SAME queries on fixed schedules, each
//               timed from when it was due).
//
// Every timing is a median over the iterations (or over all timed calls), and
// the phases are interleaved, so that a burst of load from other tenants of
// the host moves a few samples of every metric, not the result. Append
// latency is gated in process; the served latencies, timed from due time
// through loopback and two client threads, swing by whole multiples on a
// shared host when its CPU is contended, so they are printed and reported by
// the traced run but not gated. The served path is gated by closed-loop
// throughput.
//
// Checks, counted in attempted/failed: Γ of the sequential and DMatch opens
// agree; the final served snapshot equals a from-scratch open of the same
// tuples at the same gids; every read-your-writes query saw a snapshot at
// least as new as the ack it followed; every ack covered its batch.
//
// With --trace 1 the run also calls each layer's public functions directly
// (HyPart, engine::Match, engine::DMatch, ChaseEngine, MakeSnapshot, the
// protocol decoders, the METRICS scrape), records a span around every such
// call, reports per-layer metrics and writes one Chrome trace_event file.
// End-to-end numbers come from --trace 0 runs only.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "chase/deduce.h"
#include "chase/match.h"
#include "chase/match_context.h"
#include "chase/view.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "datagen/tpch_lite.h"
#include "ml/profile.h"
#include "ml/simd.h"
#include "obs/exposition.h"
#include "parallel/dmatch.h"
#include "partition/hypart.h"
#include "rules/parser.h"
#include "service/client.h"
#include "service/daemon.h"
#include "service/protocol.h"
#include "service/resolver.h"

#ifndef DCER_BUILD_TYPE
#define DCER_BUILD_TYPE "unknown"
#endif
#ifndef DCER_COMPILER
#define DCER_COMPILER "unknown"
#endif

namespace dcer {
namespace {

using Clock = std::chrono::steady_clock;
using Rows = std::vector<std::pair<uint32_t, Row>>;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

constexpr size_t kBatchTuples = 8;  // tuples per APPEND frame / Append call
constexpr int kDMatchWorkers = 4;
// Appends made before the first iteration (to dcerd and in process) and not
// timed: the first appends after an open build engine state lazily, a cost a
// resolver pays once, not per request.
constexpr size_t kWarmupAppends = 16;
// Relations holding less than this share of the tuples are never streamed.
constexpr double kMinStreamedShare = 0.01;
// Set-ups per run; setup_s is their median. The run keeps the state of the
// first three (see the top of the file) and tears the others down at once.
constexpr int kSetUps = 5;
// Fewest iterations a run makes, whatever --seconds says.
constexpr int kMinIterations = 3;

// ---------------------------------------------------------------------------
// Workloads

// The serving side: once per run, an open loop of APPEND frames at
// kAppendRate on one connection with queries at kQueryRate on a second; in
// every iteration, a closed loop of three back-to-back appenders on those
// two connections and a third. The generator never uses more than 3 threads
// or connections. 50 frames/s keeps the appender below half of dcerd's
// capacity even on a host running at half speed; nearer saturation the open
// loop's queue turns host noise into latency many times larger.
constexpr double kAppendRate = 50.0;   // frames per second
constexpr double kQueryRate = 1000.0;  // queries per second

// Both workloads are TPC-H lite (5 deep rules, 5 classifiers) at a scale
// factor; they differ in where the time goes.
struct WorkloadSpec {
  const char* name;
  double scale_factor;
  // Nominal wall time of one iteration on a 4-vCPU host; --seconds buys
  // seconds / iteration_s iterations. The count, not a deadline, ends the
  // run, so every run of a workload does the same work.
  double iteration_s;
  size_t open_loop_appends;  // APPEND frames of the run's open-loop window
  size_t closed_batches;     // closed-loop APPEND frames per iteration
  size_t inproc_appends;     // timed in-process Appends per iteration
};

// Why each workload exists (the same reasons are recorded in BENCHMARK.json):
//  - tpch_batch (SF 2): join- and partition-bound. HyPart replicates nearly
//    every tuple to every worker, so it loads partition/parallel and exposes
//    DMatch's work inflation over Match; its ML predicates sit behind
//    equality joins, so ml is a small share.
//  - serve_stream (SF 4): the served path at twice tpch_batch's size; every
//    append runs the incremental chase and an O(|D|) snapshot publish while
//    queries read snapshots.
const WorkloadSpec kWorkloads[] = {
    {"tpch_batch", 2.0, 2.8, 150, 200, 40},
    {"serve_stream", 4.0, 6.0, 150, 200, 40},
};

// The same workloads at tiny sizes, for the smoke test.
WorkloadSpec SmokeSpec(const WorkloadSpec& w) {
  WorkloadSpec s = w;
  s.scale_factor = w.scale_factor / 20;
  s.open_loop_appends = 24;
  s.closed_batches = 12;
  s.inproc_appends = 8;
  return s;
}

// ---------------------------------------------------------------------------
// Spans recorded from the benchmark's own code around each layer call.

class Tracer {
 public:
  struct Record {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    uint32_t id;
    uint32_t parent;  // 0 = root
    uint64_t request;
    uint32_t thread;
  };

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                 origin_)
        .count();
  }

  uint32_t Begin() {
    const uint32_t id = next_id_.fetch_add(1) + 1;
    Stack().push_back(id);
    return id;
  }

  void End(const char* name, uint32_t id, int64_t start_ns, int64_t end_ns,
           uint64_t request) {
    auto& stack = Stack();
    stack.pop_back();
    const uint32_t parent = stack.empty() ? 0 : stack.back();
    std::lock_guard<std::mutex> lock(mu_);
    records_.push_back(
        {name, start_ns, end_ns, id, parent, request, ThreadNumber()});
  }

  std::vector<Record> records() const {
    std::lock_guard<std::mutex> lock(mu_);
    return records_;
  }

 private:
  static std::vector<uint32_t>& Stack() {
    thread_local std::vector<uint32_t> stack;
    return stack;
  }
  uint32_t ThreadNumber() {
    thread_local uint32_t n = next_thread_.fetch_add(1) + 1;
    return n;
  }

  std::atomic<bool> enabled_{false};
  const Clock::time_point origin_ = Clock::now();
  std::atomic<uint32_t> next_id_{0};
  std::atomic<uint32_t> next_thread_{0};
  mutable std::mutex mu_;
  std::vector<Record> records_;
};

Tracer g_tracer;

// Times a scope; when tracing is on, also records it as a span whose parent
// is the innermost open span of the same thread. Names are "<layer>.<call>".
class Span {
 public:
  explicit Span(const char* name, uint64_t request = 0)
      : name_(name), request_(request) {
    if (g_tracer.enabled()) {
      id_ = g_tracer.Begin();
      start_ns_ = g_tracer.NowNs();
    }
    start_ = Clock::now();
  }
  ~Span() { Finish(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span (idempotent) and returns its duration in seconds.
  double Finish() {
    if (!done_) {
      seconds_ = Seconds(Clock::now() - start_);
      done_ = true;
      if (id_ != 0) {
        g_tracer.End(name_, id_, start_ns_, g_tracer.NowNs(), request_);
      }
    }
    return seconds_;
  }

 private:
  const char* name_;
  uint64_t request_;
  uint32_t id_ = 0;
  int64_t start_ns_ = 0;
  Clock::time_point start_;
  bool done_ = false;
  double seconds_ = 0;
};

// ---------------------------------------------------------------------------
// Small statistics helpers.

// Nearest-rank quantile; 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

// Median (the mean of the middle two for an even count).
double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// The highest of p99.9/p99/p90 with at least ten samples beyond it, else
// the maximum.
std::string TailSummary(const std::vector<double>& v) {
  const double qs[] = {0.999, 0.99, 0.9};
  const char* names[] = {"p99.9", "p99", "p90"};
  char buf[96];
  for (int i = 0; i < 3; ++i) {
    if (static_cast<double>(v.size()) * (1.0 - qs[i]) >= 10.0) {
      std::snprintf(buf, sizeof(buf), "%s=%.6g", names[i], Quantile(v, qs[i]));
      return buf;
    }
  }
  std::snprintf(buf, sizeof(buf), "max=%.6g", Quantile(v, 1.0));
  return buf;
}

// A (before, after) pair of METRICS scrapes around one open-loop window.
using ScrapePair = std::pair<obs::ExpositionParse, obs::ExpositionParse>;

// Per-bucket counts of a scraped histogram family. The exposition lists the
// cumulative counts of buckets 0..top (bucket b: samples of bit width b),
// then +Inf.
std::vector<double> BucketCounts(const obs::ExpositionParse& parse,
                                 const std::string& family) {
  std::vector<double> counts = parse.BucketCounts(family);
  if (!counts.empty()) counts.pop_back();  // +Inf
  for (size_t b = counts.size(); b-- > 1;) counts[b] -= counts[b - 1];
  return counts;
}

// The samples a dcerd timing histogram gained inside the given windows, as a
// registry snapshot, so its Quantile() interpolates exactly as the daemon's.
obs::HistogramSnapshot WindowHistogram(const std::vector<ScrapePair>& windows,
                                       const std::string& family) {
  obs::HistogramSnapshot h;
  h.unit = obs::Histogram::Unit::kNanos;
  h.buckets.assign(obs::Histogram::kBuckets, 0);
  for (const auto& [before, after] : windows) {
    const std::vector<double> gained = BucketCounts(after, family);
    const std::vector<double> had = BucketCounts(before, family);
    for (size_t b = 0; b < gained.size() && b < h.buckets.size(); ++b) {
      h.buckets[b] += static_cast<uint64_t>(
          gained[b] - (b < had.size() ? had[b] : 0.0));
    }
    h.count += static_cast<uint64_t>(after.Value(family + "_count") -
                                     before.Value(family + "_count"));
    h.sum += static_cast<uint64_t>(
        (after.Value(family + "_sum") - before.Value(family + "_sum")) * 1e9);
  }
  return h;
}

// A number field of the flat STATS JSON object; 0 if absent.
double JsonNumber(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return 0;
  return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// Inputs

// The generated workload split into the base the resolvers open on and the
// held-back stream dcerd receives. Both index the generator's dataset.
struct Inputs {
  std::unique_ptr<GenDataset> gen;
  std::vector<Gid> all;     // every generated gid, ascending
  std::vector<Gid> base;    // base gid -> generated gid (ascending)
  std::vector<Gid> stream;  // stream position -> generated gid
  RuleSet rules;            // parsed against the generator's schema
};

// Copies the given generated tuples, in order, into a fresh dataset with the
// generator's schemas; gid i of the copy is tuples[i].
std::unique_ptr<Dataset> CopyTuples(const Dataset& src,
                                    const std::vector<Gid>& tuples) {
  auto out = std::make_unique<Dataset>();
  for (size_t r = 0; r < src.num_relations(); ++r) {
    out->AddRelation(src.relation(r).schema());
  }
  for (Gid g : tuples) {
    const TupleLoc loc = src.loc(g);
    out->AppendTuple(loc.relation, src.relation(loc.relation).row(loc.row));
  }
  return out;
}

// The rows of one stream batch. Inputs::stream keeps each batch grouped by
// relation, because an APPENDED reply lists the assigned gids in that order
// (the request carries one tuple block per relation).
Rows StreamBatch(const Inputs& in, size_t batch) {
  Rows rows;
  const Dataset& src = in.gen->dataset;
  for (size_t i = batch * kBatchTuples; i < (batch + 1) * kBatchTuples; ++i) {
    const TupleLoc loc = src.loc(in.stream[i]);
    rows.emplace_back(loc.relation, src.relation(loc.relation).row(loc.row));
  }
  return rows;
}

TupleBatch ToTupleBatch(Rows rows) {
  TupleBatch batch;
  for (auto& [rel, row] : rows) batch.Add(rel, std::move(row));
  return batch;
}

// Batches dcerd receives in a run; the in-process appends replay a prefix of
// the same stream on their own resolver.
size_t StreamBatches(const WorkloadSpec& spec, int iterations) {
  const size_t n = static_cast<size_t>(iterations);
  return kWarmupAppends +
         std::max(spec.open_loop_appends + n * spec.closed_batches,
                  n * spec.inproc_appends);
}

Inputs Generate(const WorkloadSpec& spec, uint64_t seed, int iterations) {
  Inputs in;
  {
    Span span("datagen.generate");
    TpchOptions o;
    o.scale_factor = spec.scale_factor;
    o.seed = seed;
    in.gen = MakeTpch(o);
  }
  // Hold back a seeded sample of the larger relations' tuples (partial
  // Fisher-Yates); it is streamed in sample order, each batch grouped by
  // relation. Small dimension tables (TPC-H's regions, nations, suppliers)
  // are reference data that does not arrive as a stream.
  const Dataset& gen = in.gen->dataset;
  std::vector<Gid> order;
  for (Gid g = 0; g < gen.num_tuples(); ++g) {
    if (static_cast<double>(gen.relation(gen.relation_of(g)).num_rows()) >=
        kMinStreamedShare * static_cast<double>(gen.num_tuples())) {
      order.push_back(g);
    }
  }
  const size_t eligible = order.size();
  const size_t held = kBatchTuples * StreamBatches(spec, iterations);
  if (held * 10 > eligible * 9) {
    std::fprintf(stderr,
                 "workload %s: held-back sample (%zu) too large for %zu "
                 "tuples\n",
                 spec.name, held, eligible);
    std::exit(1);
  }
  Rng rng = Rng(seed).Fork(0x5eed);
  for (size_t i = 0; i < held; ++i) {
    std::swap(order[i], order[i + rng.Uniform(eligible - i)]);
  }
  in.stream.assign(order.begin(), order.begin() + held);
  for (size_t b = 0; b < held; b += kBatchTuples) {
    std::stable_sort(in.stream.begin() + b,
                     in.stream.begin() + b + kBatchTuples, [&](Gid x, Gid y) {
                       return in.gen->dataset.relation_of(x) <
                              in.gen->dataset.relation_of(y);
                     });
  }
  std::vector<bool> streamed(gen.num_tuples(), false);
  for (Gid g : in.stream) streamed[g] = true;
  for (Gid g = 0; g < gen.num_tuples(); ++g) {
    in.all.push_back(g);
    if (!streamed[g]) in.base.push_back(g);
  }

  Span span("rules.parse");
  const Status st = ParseRuleSet(in.gen->rules.ToString(in.gen->dataset),
                                 in.gen->dataset, in.gen->registry, &in.rules);
  if (!st.ok()) {
    std::fprintf(stderr, "rules failed to parse: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  return in;
}

ResolverOptions SequentialOptions() { return ResolverOptions{}; }

ResolverOptions DMatchResolverOptions() {
  ResolverOptions o;
  o.num_workers = kDMatchWorkers;
  o.threads = 1;
  return o;
}

// ---------------------------------------------------------------------------
// Run accounting

struct Ledger {
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};
  std::mutex mu;
  std::vector<std::string> failures;  // guarded by mu; first few only

  // Counts one operation; returns ok.
  bool Count(bool ok, const std::string& what) {
    attempted.fetch_add(1);
    if (!ok) {
      failed.fetch_add(1);
      std::lock_guard<std::mutex> lock(mu);
      if (failures.size() < 20) failures.push_back(what);
    }
    return ok;
  }
};

bool SameGamma(const GammaSnapshot& a, const GammaSnapshot& b) {
  return a.MatchedPairs() == b.MatchedPairs() &&
         a.ValidatedMlKeys() == b.ValidatedMlKeys();
}

// Everything one run measures: per-set-up and per-iteration values, and
// pooled samples.
struct Results {
  std::vector<double> setup_s;
  std::vector<double> resolve_seq_s;
  std::vector<double> resolve_dmatch_s;
  std::vector<double> first_append_s;
  std::vector<double> append_inproc_s;  // Resolver::Append, in process
  std::vector<double> tuples_per_s;     // one per closed-loop window
  // The open-loop window's requests.
  std::vector<double> append_visible_s;  // open loop, from due time
  std::vector<double> append_sent_s;     // open loop, from actual send
  std::vector<double> query_s;           // open loop, from due time
  std::vector<double> generator_late_s;  // send time - due time
  uint64_t ryw_queries = 0;

  // Traced run only.
  std::map<std::string, double> layer;      // per-layer metric -> value
  std::vector<double> traced_resolve_seq_s;  // for obs.trace_overhead_ratio
};

// ---------------------------------------------------------------------------
// Set-up: inputs, a sequential open, and dcerd on top.

struct SetUp {
  Inputs in;
  std::unique_ptr<service::ResolverDaemon> daemon;
};

SetUp RunSetUp(const WorkloadSpec& spec, uint64_t seed, int iterations,
               Results* res) {
  SetUp s;
  Span span("bench.setup");
  s.in = Generate(spec, seed, iterations);
  std::unique_ptr<Dataset> base;
  {
    Span copy("relational.copy_base");
    base = CopyTuples(s.in.gen->dataset, s.in.base);
  }
  std::unique_ptr<Resolver> resolver;
  {
    Span open("service.open_serving");
    resolver = Resolver::Open(std::move(*base), s.in.rules,
                              &s.in.gen->registry, SequentialOptions());
  }
  {
    Span start("service.daemon_start");
    s.daemon = std::make_unique<service::ResolverDaemon>(std::move(resolver));
    if (Status st = s.daemon->Start(); !st.ok()) {
      std::fprintf(stderr, "dcerd failed to start: %s\n",
                   st.ToString().c_str());
      std::exit(1);
    }
  }
  res->setup_s.push_back(span.Finish());
  return s;
}

// The whole generated dataset opened sequentially and with DMatch, Γ of the
// two compared, then the first Append after the DMatch open, which re-seeds
// the incremental engine (its tuples re-send 8 of the dataset's own rows).
void RunBatch(const Inputs& in, Ledger* ledger, Results* res) {
  MlRegistry& registry = in.gen->registry;
  std::shared_ptr<const GammaSnapshot> seq_gamma;
  {
    auto data = CopyTuples(in.gen->dataset, in.all);
    registry.ClearCache();  // a fresh open, as after a restart
    Span span("service.open_seq");
    auto resolver = Resolver::Open(std::move(*data), in.rules, &registry,
                                   SequentialOptions());
    (g_tracer.enabled() ? res->traced_resolve_seq_s : res->resolve_seq_s)
        .push_back(span.Finish());
    seq_gamma = resolver->Snapshot();
  }
  auto data = CopyTuples(in.gen->dataset, in.all);
  registry.ClearCache();
  Span span("service.open_dmatch");
  auto resolver = Resolver::Open(std::move(*data), in.rules, &registry,
                                 DMatchResolverOptions());
  res->resolve_dmatch_s.push_back(span.Finish());
  {
    Span check("bench.gamma_check");
    ledger->Count(SameGamma(*seq_gamma, *resolver->Snapshot()),
                  "sequential and DMatch opens disagree on Gamma");
  }
  TupleBatch batch = ToTupleBatch(StreamBatch(in, 0));
  Span append("service.first_append");
  const AppendOutcome out = resolver->Append(std::move(batch));
  res->first_append_s.push_back(append.Finish());
  ledger->Count(out.gids.size() == kBatchTuples && out.snapshot_version > 1,
                "first append after a DMatch open");
}

// Stream batches [first, first + count) through Resolver::Append on a
// set-up's resolver, the embedded path (no socket, no daemon; dcerd stays
// idle). Untimed calls warm the resolver up, as on the served path.
void RunInProcessAppends(SetUp* s, size_t first, size_t count, bool timed,
                         Ledger* ledger, Results* res) {
  Resolver& resolver = s->daemon->resolver();
  for (size_t b = first; b < first + count; ++b) {
    TupleBatch batch = ToTupleBatch(StreamBatch(s->in, b));
    Span span("service.append_inproc");
    const AppendOutcome out = resolver.Append(std::move(batch));
    const double seconds = span.Finish();
    if (ledger->Count(out.gids.size() == kBatchTuples, "in-process append") &&
        timed) {
      res->append_inproc_s.push_back(seconds);
    }
  }
}

// ---------------------------------------------------------------------------
// Serving: dcerd over the first set-up, fed the held-back stream.

struct LatestAck {
  std::mutex mu;
  uint64_t version = 0;    // guarded by mu
  std::vector<Gid> gids;   // guarded by mu
};

class Server {
 public:
  Server(const WorkloadSpec& spec, SetUp s, uint64_t seed, Ledger* ledger)
      : spec_(spec), s_(std::move(s)), ledger_(ledger),
        query_rng_(Rng(seed).Fork(0x9e7)) {
    const size_t base_n = s_.in.base.size();
    for (size_t b = 0; b < s_.in.stream.size() / kBatchTuples; ++b) {
      batches_.push_back(StreamBatch(s_.in, b));
    }
    source_of_gid_.assign(base_n + s_.in.stream.size(), kInvalidGid);
    for (size_t g = 0; g < base_n; ++g) source_of_gid_[g] = s_.in.base[g];
    known_tuples_ = base_n;
  }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  const Inputs& inputs() const { return s_.in; }

  // Connects every client and sends the warm-up appends.
  bool Start() {
    const bool ok = appender_.Connect(s_.daemon->port()).ok() &&
                    querier_.Connect(s_.daemon->port()).ok() &&
                    third_.Connect(s_.daemon->port()).ok();
    if (!ledger_->Count(ok, "connect to dcerd")) return false;
    for (size_t w = 0; w < kWarmupAppends; ++w) {
      service::Response resp;
      const size_t b = next_batch_++;
      const Status st =
          appender_.Append(s_.in.gen->dataset, batches_[b], &resp);
      if (!ledger_->Count(st.ok() && RecordAck(b, resp), "warm-up append")) {
        return false;
      }
    }
    return true;
  }

  // One open-loop window: APPENDs and queries on fixed schedules, each
  // timed from when it was due.
  void OpenLoopWindow(Results* res);

  // One closed-loop window: back-to-back appenders, so the daemon's
  // micro-batching engages. Tuples acked per second of window wall time.
  void ClosedLoopWindow(Results* res);

  // Traced run: the dcerd histograms of the open-loop window (scraped with
  // METRICS around it) and the STATS batching ratio.
  void ReportDaemon(Results* res);

  // Stops dcerd and returns its final snapshot, having counted in the
  // ledger whether it equals a from-scratch open of the same tuples laid out
  // at the same gids.
  std::shared_ptr<const GammaSnapshot> StopAndCheck();

 private:
  // METRICS through the appender's connection, parsed; false on failure.
  bool Scrape(obs::ExpositionParse* out) {
    service::Response resp;
    bool ok;
    {
      Span span("service.metrics_scrape");
      ok = appender_.Metrics(&resp).ok();
    }
    Span span("obs.parse_exposition");
    if (ok) *out = obs::ParseExposition(resp.text);
    return ledger_->Count(ok && out->ok(), "METRICS scrape");
  }

  // Records the daemon gids an ack assigned; false if the ack is malformed.
  bool RecordAck(size_t batch, const service::Response& resp) {
    if (resp.gids.size() != kBatchTuples) return false;
    for (size_t k = 0; k < kBatchTuples; ++k) {
      const Gid g = resp.gids[k];
      if (g >= source_of_gid_.size()) return false;
      source_of_gid_[g] = s_.in.stream[batch * kBatchTuples + k];
    }
    known_tuples_.fetch_add(kBatchTuples);
    return true;
  }

  const WorkloadSpec& spec_;
  SetUp s_;
  Ledger* ledger_;
  std::vector<Rows> batches_;
  // Daemon gid -> generated gid. Acks write disjoint entries.
  std::vector<Gid> source_of_gid_;
  size_t next_batch_ = 0;
  std::atomic<size_t> known_tuples_{0};
  LatestAck latest_;
  Rng query_rng_;
  std::atomic<uint64_t> next_request_{1};
  service::ResolverClient appender_, querier_;
  service::ResolverClient third_;  // the closed loop's third appender
  std::vector<ScrapePair> open_loop_scrapes_;  // traced run only
};

void Server::OpenLoopWindow(Results* res) {
  ScrapePair scrapes;
  const bool scrape = g_tracer.enabled() && Scrape(&scrapes.first);
  Span loop_span("bench.open_loop");
  const Dataset& schema = s_.in.gen->dataset;
  const size_t first = next_batch_;
  next_batch_ += spec_.open_loop_appends;
  const size_t num_queries = static_cast<size_t>(
      static_cast<double>(spec_.open_loop_appends) / kAppendRate * kQueryRate);
  const auto period_of = [](double rate) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / rate));
  };
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  std::vector<double> append_due, append_sent, append_late;
  std::vector<double> query_due, query_late;

  std::thread append_thread([&] {
    const Clock::duration period = period_of(kAppendRate);
    for (size_t i = 0; i < spec_.open_loop_appends; ++i) {
      const Clock::time_point due = t0 + period * static_cast<int64_t>(i);
      std::this_thread::sleep_until(due);
      const Clock::time_point sent = Clock::now();
      append_late.push_back(Seconds(sent - due));
      service::Response resp;
      Status st;
      {
        Span span("service.append", next_request_.fetch_add(1));
        st = appender_.Append(schema, batches_[first + i], &resp);
      }
      const Clock::time_point acked = Clock::now();
      if (!ledger_->Count(st.ok() && RecordAck(first + i, resp),
                          "open-loop append")) {
        continue;
      }
      append_due.push_back(Seconds(acked - due));
      append_sent.push_back(Seconds(acked - sent));
      std::lock_guard<std::mutex> lock(latest_.mu);
      latest_.version = resp.snapshot_version;
      latest_.gids = resp.gids;
    }
  });
  std::thread query_thread([&] {
    const Clock::duration period = period_of(kQueryRate);
    for (size_t j = 0; j < num_queries; ++j) {
      const Clock::time_point due = t0 + period * static_cast<int64_t>(j);
      std::this_thread::sleep_until(due);
      // Even queries target uniformly random gids; odd ones a gid of the
      // latest ack (read-your-writes).
      uint64_t min_version = 0;
      Gid target = static_cast<Gid>(query_rng_.Uniform(known_tuples_.load()));
      if (j % 2 == 1) {
        std::lock_guard<std::mutex> lock(latest_.mu);
        if (!latest_.gids.empty()) {
          min_version = latest_.version;
          target = latest_.gids[query_rng_.Uniform(latest_.gids.size())];
        }
      }
      const Gid other =
          static_cast<Gid>(query_rng_.Uniform(known_tuples_.load()));
      const bool resolve = (j / 2) % 2 == 0;
      const Clock::time_point sent = Clock::now();
      query_late.push_back(Seconds(sent - due));
      service::Response resp;
      Status st;
      {
        Span span("service.query", next_request_.fetch_add(1));
        st = resolve ? querier_.Resolve(target, &resp)
                     : querier_.SameEntity(target, other, &resp);
      }
      const Clock::time_point answered = Clock::now();
      bool ok = st.ok();
      if (ok && resolve) {
        ok = std::find(resp.gids.begin(), resp.gids.end(), target) !=
             resp.gids.end();
      }
      if (ok && min_version > 0) {
        ++res->ryw_queries;
        ok = resp.snapshot_version >= min_version;
      }
      if (ledger_->Count(ok, "open-loop query")) {
        query_due.push_back(Seconds(answered - due));
      }
    }
  });
  append_thread.join();
  query_thread.join();

  auto pool = [](std::vector<double>* into, const std::vector<double>& v) {
    into->insert(into->end(), v.begin(), v.end());
  };
  pool(&res->append_visible_s, append_due);
  pool(&res->append_sent_s, append_sent);
  pool(&res->query_s, query_due);
  pool(&res->generator_late_s, append_late);
  pool(&res->generator_late_s, query_late);
  loop_span.Finish();
  if (scrape && Scrape(&scrapes.second)) {
    open_loop_scrapes_.push_back(std::move(scrapes));
  }
}

void Server::ClosedLoopWindow(Results* res) {
  Span loop_span("bench.closed_loop");
  const size_t end = next_batch_ + spec_.closed_batches;
  std::atomic<size_t> next{next_batch_};
  next_batch_ = end;
  std::atomic<size_t> acked_tuples{0};
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> threads;
  for (service::ResolverClient* c : {&appender_, &querier_, &third_}) {
    threads.emplace_back([&, c] {
      for (size_t b = next.fetch_add(1); b < end; b = next.fetch_add(1)) {
        service::Response resp;
        Status st;
        {
          Span span("service.append", next_request_.fetch_add(1));
          st = c->Append(s_.in.gen->dataset, batches_[b], &resp);
        }
        if (ledger_->Count(st.ok() && RecordAck(b, resp),
                           "closed-loop append")) {
          acked_tuples.fetch_add(kBatchTuples);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const double wall = Seconds(Clock::now() - t0);
  res->tuples_per_s.push_back(
      wall > 0 ? static_cast<double>(acked_tuples.load()) / wall : 0);
}

std::shared_ptr<const GammaSnapshot> Server::StopAndCheck() {
  std::shared_ptr<const GammaSnapshot> served =
      s_.daemon->resolver().Snapshot();
  appender_.Close();
  querier_.Close();
  third_.Close();
  s_.daemon->Stop();
  // Only the tuples actually streamed are compared; unsent ones stay out.
  std::vector<Gid> sent;
  for (Gid g : source_of_gid_) {
    if (g != kInvalidGid) sent.push_back(g);
  }
  Span span("bench.gamma_check");
  const bool complete = served->num_tuples() == sent.size() &&
                        std::equal(sent.begin(), sent.end(),
                                   source_of_gid_.begin());
  if (!ledger_->Count(complete, "served snapshot does not cover the stream")) {
    return served;
  }
  auto all = CopyTuples(s_.in.gen->dataset, sent);
  s_.in.gen->registry.ClearCache();
  auto scratch = Resolver::Open(std::move(*all), s_.in.rules,
                                &s_.in.gen->registry, SequentialOptions());
  ledger_->Count(SameGamma(*served, *scratch->Snapshot()),
                 "served Gamma differs from a from-scratch open");
  return served;
}

void Server::ReportDaemon(Results* res) {
  service::Response stats;
  {
    Span span("service.stats");
    if (!ledger_->Count(appender_.Stats(&stats).ok(), "STATS")) return;
  }
  auto daemon_s = [&](const char* family, double q) {
    return WindowHistogram(open_loop_scrapes_, family).Quantile(q) / 1e9;
  };
  auto& L = res->layer;
  L["service.queue_wait_p99_s"] = daemon_s("dcerd_queue_wait_seconds", 0.99);
  L["service.exec_p50_s"] = daemon_s("dcerd_exec_seconds", 0.5);
  L["service.exec_p99_s"] = daemon_s("dcerd_exec_seconds", 0.99);
  L["service.publish_lag_p50_s"] = daemon_s("dcerd_publish_lag_seconds", 0.5);
  L["service.query_daemon_p99_s"] = daemon_s("dcerd_query_seconds", 0.99);
  // Means, not p50s: the daemon's power-of-two buckets are too coarse to
  // subtract from an exact client-side percentile.
  const obs::HistogramSnapshot lag =
      WindowHistogram(open_loop_scrapes_, "dcerd_visibility_lag_seconds");
  L["service.net_overhead_mean_s"] =
      Mean(res->append_sent_s) -
      (lag.count > 0 ? static_cast<double>(lag.sum) / 1e9 /
                           static_cast<double>(lag.count)
                     : 0);
  const double batches = JsonNumber(stats.text, "append_batches");
  L["service.appends_per_fixpoint"] =
      batches > 0 ? JsonNumber(stats.text, "append_requests") / batches : 0;
}

// In-process point queries on the final served snapshot: ns per query, half
// Entity and half SameEntity.
double SnapshotQueryNs(const GammaSnapshot& snap, uint64_t seed) {
  Rng rng = Rng(seed).Fork(0x51a9);
  constexpr int kQueries = 200000;
  const uint64_t n = snap.num_tuples();
  size_t sink = 0;
  Span span("chase.snapshot_queries");
  for (int i = 0; i < kQueries; i += 2) {
    const Gid a = static_cast<Gid>(rng.Uniform(n));
    const Gid b = static_cast<Gid>(rng.Uniform(n));
    sink += snap.Entity(a).size();
    sink += snap.SameEntity(a, b) ? 1 : 0;
  }
  const double s = span.Finish();
  if (sink == 0) std::fprintf(stderr, "snapshot queries found no entities\n");
  return s * 1e9 / kQueries;
}

// A sequential open replayed step by step through ChaseEngine, the way
// Resolver::Open runs it. Owns everything the engine points into (members
// are destroyed engine first).
struct EngineReplay {
  std::unique_ptr<Dataset> data;
  std::unique_ptr<DatasetView> view;
  std::unique_ptr<MatchContext> ctx;
  std::unique_ptr<ChaseEngine> engine;
  double steps_s = 0;  // construct + Deduce + IncDeduce + MakeSnapshot
};

EngineReplay ReplayOpen(const Inputs& in, const std::vector<Gid>& tuples,
                        std::map<std::string, double>* layer) {
  EngineReplay r;
  r.data = CopyTuples(in.gen->dataset, tuples);
  r.view = std::make_unique<DatasetView>(DatasetView::Full(*r.data));
  r.ctx = std::make_unique<MatchContext>(*r.data);
  in.gen->registry.ClearCache();
  double construct_s, deduce_s, inc_s, snapshot_s;
  {
    Span span("chase.construct");
    r.engine = std::make_unique<ChaseEngine>(
        r.view.get(), &in.rules, &in.gen->registry, r.ctx.get(),
        ChaseEngine::FromEngineOptions(SequentialOptions(),
                                       &ThreadPool::Global()));
    construct_s = span.Finish();
  }
  Delta delta, rest;
  {
    Span span("chase.deduce");
    r.engine->Deduce(&delta);
    deduce_s = span.Finish();
  }
  {
    Span span("chase.inc_deduce");
    r.engine->IncDeduce(delta, &rest);
    inc_s = span.Finish();
  }
  {
    Span span("chase.snapshot");
    r.ctx->MakeSnapshot(1);
    snapshot_s = span.Finish();
  }
  r.steps_s = construct_s + deduce_s + inc_s + snapshot_s;
  if (layer != nullptr) {
    (*layer)["chase.deduce_s"] = deduce_s;
    (*layer)["chase.inc_deduce_s"] = inc_s;
  }
  return r;
}

// Traced run: each layer's public functions called directly — over the
// whole generated dataset for the open-side layers, over the served base
// and stream for the append side.
void LayerReplays(const Inputs& in, size_t replay_batches, Ledger* ledger,
                  Results* res) {
  MlRegistry& registry = in.gen->registry;
  auto& L = res->layer;
  auto data = CopyTuples(in.gen->dataset, in.all);
  const DatasetView full = DatasetView::Full(*data);

  // chase: engine::Match.
  MatchReport match;
  std::shared_ptr<const GammaSnapshot> match_gamma;
  {
    registry.ClearCache();
    MatchContext ctx(*data);
    {
      Span span("chase.match");
      match = engine::Match(full, in.rules, registry, MatchOptions{}, &ctx);
      L["chase.match_s"] = span.Finish();
    }
    match_gamma = ctx.MakeSnapshot(1);
  }
  L["chase.valuations"] = static_cast<double>(match.chase.valuations);
  L["chase.join_candidates"] = static_cast<double>(match.chase.join_candidates);
  L["chase.deps_added"] = static_cast<double>(match.chase.deps_added);
  L["chase.deps_dropped"] = static_cast<double>(match.chase.deps_dropped);
  L["chase.seeded_joins"] = static_cast<double>(match.chase.seeded_joins);
  const double calls =
      static_cast<double>(match.ml_predictions + match.ml_cache_hits);
  L["ml.predictions"] = static_cast<double>(match.ml_predictions);
  L["ml.cache_hits"] = static_cast<double>(match.ml_cache_hits);
  L["ml.cache_hit_ratio"] =
      calls > 0 ? static_cast<double>(match.ml_cache_hits) / calls : 0;
  L["ml.validated_per_prediction"] =
      match.ml_predictions > 0
          ? static_cast<double>(match.validated_ml) /
                static_cast<double>(match.ml_predictions)
          : 0;

  // ml: profile build over the dataset's string pool.
  {
    ProfileStore store(&data->pool());
    Span span("ml.profile_build");
    store.Sync();
    L["ml.profile_build_s"] = span.Finish();
  }

  // partition: HyPart with the options DMatch(4) uses.
  {
    HyPartOptions o;
    o.num_workers = kDMatchWorkers;
    Span span("partition.hypart");
    const Partition p = HyPart(*data, in.rules, o);
    L["partition.hypart_s"] = span.Finish();
    L["partition.replication_factor"] = p.stats.replication_factor;
    L["partition.generated_tuples"] =
        static_cast<double>(p.stats.generated_tuples);
    L["partition.skew"] = p.stats.skew;
  }

  // parallel: engine::DMatch, then the re-seed a first Append pays.
  double dmatch_s;
  {
    registry.ClearCache();
    MatchContext ctx(*data);
    DMatchOptions o;
    static_cast<EngineOptions&>(o) = DMatchResolverOptions();
    o.num_workers = kDMatchWorkers;
    DMatchReport dm;
    {
      Span span("parallel.dmatch");
      dm = engine::DMatch(*data, in.rules, registry, o, &ctx);
      dmatch_s = span.Finish();
    }
    ledger->Count(SameGamma(*match_gamma, *ctx.MakeSnapshot(1)),
                  "engine::Match and engine::DMatch disagree on Gamma");
    L["parallel.dmatch_s"] = dmatch_s;
    L["parallel.bsp_s"] = dm.er_seconds;
    L["parallel.route_s"] = dm.route_seconds;
    L["parallel.supersteps"] = dm.supersteps;
    L["parallel.wire_bytes"] = static_cast<double>(dm.bytes + dm.outbox_bytes);
    L["parallel.step0_skew"] =
        dm.superstep_stats.empty() ? 0 : dm.superstep_stats[0].skew;
    L["parallel.unattributed_s"] =
        dmatch_s - dm.partition_seconds - dm.er_seconds;
    L["parallel.work_inflation"] =
        match.chase.valuations > 0
            ? static_cast<double>(dm.chase.valuations) /
                  static_cast<double>(match.chase.valuations)
            : 0;

    DatasetView view = DatasetView::Full(*data);
    ChaseEngine engine(&view, &in.rules, &registry, &ctx,
                       ChaseEngine::FromEngineOptions(SequentialOptions(),
                                                      &ThreadPool::Global()));
    Span span("chase.reseed");
    Delta warmup, rest;
    engine.Deduce(&warmup);
    engine.IncDeduce(warmup, &rest);
    L["chase.reseed_s"] = span.Finish();
  }

  // chase, open side: the sequential open replayed step by step, next to
  // Resolver::Open of the same data.
  {
    const EngineReplay open = ReplayOpen(in, in.all, &L);
    L["service.open_seq_unattributed_share"] =
        1.0 - open.steps_s / Median(res->traced_resolve_seq_s);
    L["service.open_dmatch_unattributed_share"] =
        1.0 - dmatch_s / Median(res->resolve_dmatch_s);
  }

  // Append side: the stream's first batches step by step through
  // ChaseEngine over the served base, next to the run's in-process
  // Resolver::Append of the same batches.
  {
    EngineReplay r = ReplayOpen(in, in.base, nullptr);
    std::vector<double> notify_s, deduce_new_s, inc_s, snapshot_s;
    for (size_t b = 0; b < replay_batches; ++b) {
      std::vector<Gid> gids;
      for (auto& [rel, row] : StreamBatch(in, b)) {
        gids.push_back(r.data->AppendTuple(rel, std::move(row)));
      }
      r.ctx->GrowToDataset();
      for (Gid g : gids) r.view->Append(g);
      Delta d, out;
      {
        Span span("chase.notify_append");
        r.engine->NotifyAppend(gids);
        notify_s.push_back(span.Finish());
      }
      {
        Span span("chase.deduce_new");
        r.engine->DeduceForNewTuples(gids, &d);
        deduce_new_s.push_back(span.Finish());
      }
      {
        Span span("chase.inc_deduce_append");
        r.engine->IncDeduce(d, &out);
        inc_s.push_back(span.Finish());
      }
      {
        Span span("chase.snapshot");
        r.ctx->MakeSnapshot(b + 2);
        snapshot_s.push_back(span.Finish());
      }
    }
    L["chase.notify_append_s"] = Median(notify_s);
    L["chase.deduce_new_s"] = Median(deduce_new_s);
    L["chase.inc_deduce_append_s"] = Median(inc_s);
    L["chase.snapshot_s"] = Median(snapshot_s);
    const double steps = L["chase.notify_append_s"] + L["chase.deduce_new_s"] +
                         L["chase.inc_deduce_append_s"] +
                         L["chase.snapshot_s"];
    L["service.append_unattributed_share"] =
        1.0 - steps / Quantile(res->append_inproc_s, 0.5);
  }

  // service: the APPEND decoders, per frame.
  {
    std::vector<double> decode_us;
    for (size_t b = 0; b < replay_batches; ++b) {
      std::vector<uint8_t> frame;
      service::EncodeRequest(
          service::MakeAppendRequest(in.gen->dataset, StreamBatch(in, b)),
          &frame);
      Span span("service.decode_append");
      service::Request req;
      TupleBatch batch;
      const bool ok =
          service::DecodeRequest(frame, &req) == wire::WireError::kOk &&
          service::DecodeAppendBlocks(req, in.gen->dataset, &batch) ==
              wire::WireError::kOk &&
          batch.size() == kBatchTuples;
      decode_us.push_back(span.Finish() * 1e6);
      ledger->Count(ok, "APPEND frame decode");
    }
    L["service.decode_append_us"] = Median(decode_us);
  }
}

// ---------------------------------------------------------------------------
// One run

// name -> (value, unit)
using Metrics =
    std::vector<std::pair<std::string, std::pair<double, const char*>>>;

struct RunOutput {
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics metrics;
};

// Every metric BENCHMARK.json names for each mode, with its unit.
const char* const kEndToEnd[][2] = {
    {"setup_s", "s"},
    {"resolve_seq_s", "s"},
    {"resolve_dmatch_s", "s"},
    {"first_append_after_dmatch_s", "s"},
    {"append_inproc_p50_s", "s"},
    {"append_tuples_per_s", "tuples/s"},
    {"peak_rss_mb", "MiB"},
};

// The modules under src/ that spans are attributed to, plus the harness.
const char* const kLayers[] = {"datagen",  "rules",   "relational", "chase",
                               "ml",       "partition", "parallel", "service",
                               "obs",      "bench"};

// Per-layer metric, its unit, and the end-to-end metric it should move (and
// on which workload).
const char* const kPerLayer[][3] = {
    {"partition.hypart_s", "s", "resolve_dmatch_s on tpch_batch"},
    {"partition.replication_factor", "ratio", "resolve_dmatch_s on tpch_batch"},
    {"partition.generated_tuples", "count", "resolve_dmatch_s on tpch_batch"},
    {"partition.skew", "ratio", "resolve_dmatch_s on tpch_batch"},
    {"parallel.dmatch_s", "s", "resolve_dmatch_s on tpch_batch"},
    {"parallel.bsp_s", "s", "resolve_dmatch_s on tpch_batch"},
    {"parallel.route_s", "s", "resolve_dmatch_s on tpch_batch"},
    {"parallel.supersteps", "count",
     "resolve_dmatch_s on tpch_batch"},
    {"parallel.wire_bytes", "bytes",
     "resolve_dmatch_s on tpch_batch"},
    {"parallel.step0_skew", "ratio",
     "resolve_dmatch_s on tpch_batch"},
    {"parallel.unattributed_s", "s",
     "resolve_dmatch_s on tpch_batch"},
    {"parallel.work_inflation", "ratio",
     "resolve_dmatch_s on tpch_batch"},
    {"chase.match_s", "s", "resolve_seq_s on tpch_batch"},
    {"chase.valuations", "count", "resolve_seq_s on tpch_batch"},
    {"chase.join_candidates", "count",
     "resolve_seq_s on tpch_batch"},
    {"chase.deps_added", "count", "resolve_seq_s on tpch_batch"},
    {"chase.deps_dropped", "count", "resolve_seq_s on tpch_batch"},
    {"chase.seeded_joins", "count",
     "resolve_seq_s on tpch_batch"},
    {"chase.deduce_s", "s", "resolve_seq_s on tpch_batch"},
    {"chase.inc_deduce_s", "s", "resolve_seq_s on tpch_batch"},
    {"chase.reseed_s", "s", "first_append_after_dmatch_s on tpch_batch"},
    {"chase.notify_append_s", "s", "append_inproc_p50_s on serve_stream"},
    {"chase.deduce_new_s", "s", "append_inproc_p50_s on serve_stream"},
    {"chase.inc_deduce_append_s", "s", "append_inproc_p50_s on serve_stream"},
    {"chase.snapshot_s", "s",
     "append_inproc_p50_s on serve_stream; resolve_* unmoved"},
    {"ml.predictions", "count", "resolve_seq_s on tpch_batch"},
    {"ml.cache_hits", "count", "resolve_seq_s on tpch_batch"},
    {"ml.cache_hit_ratio", "ratio", "resolve_seq_s on tpch_batch"},
    {"ml.validated_per_prediction", "ratio", "resolve_seq_s on tpch_batch"},
    {"ml.profile_build_s", "s", "resolve_seq_s on tpch_batch"},
    {"service.decode_append_us", "us", "append_tuples_per_s on serve_stream"},
    {"service.queue_wait_p99_s", "s",
     "append_tuples_per_s, bench.append_visible_* on serve_stream"},
    {"service.exec_p50_s", "s",
     "append_tuples_per_s, bench.append_visible_* on serve_stream"},
    {"service.exec_p99_s", "s",
     "append_tuples_per_s, bench.append_visible_* on serve_stream"},
    {"service.publish_lag_p50_s", "s",
     "append_tuples_per_s, bench.append_visible_* on serve_stream"},
    {"service.query_daemon_p99_s", "s", "bench.query_* on serve_stream"},
    {"service.net_overhead_mean_s", "s",
     "append_tuples_per_s, bench.append_visible_* on serve_stream"},
    {"service.appends_per_fixpoint", "ratio",
     "append_tuples_per_s on serve_stream"},
    {"service.snapshot_query_ns", "ns", "bench.query_* on serve_stream"},
    {"service.open_seq_unattributed_share", "ratio", "resolve_seq_s"},
    {"service.open_dmatch_unattributed_share", "ratio", "resolve_dmatch_s"},
    {"service.append_unattributed_share", "ratio", "append_inproc_p50_s"},
    {"obs.trace_overhead_ratio", "ratio", "reported, not gated"},
    {"bench.gen_late_p99_s", "s", "reported, not gated"},
    {"bench.append_inproc_p90_s", "s", "reported, not gated"},
    {"bench.append_visible_p50_s", "s", "reported, not gated"},
    {"bench.append_visible_p90_s", "s", "reported, not gated"},
    {"bench.append_visible_p99_s", "s", "reported, not gated"},
    {"bench.query_p50_s", "s", "reported, not gated"},
    {"bench.query_p90_s", "s", "reported, not gated"},
    {"bench.query_p99_s", "s", "reported, not gated"},
};

int IterationsFor(const WorkloadSpec& spec, double seconds) {
  return std::max(kMinIterations,
                  static_cast<int>(std::lround(seconds / spec.iteration_s)));
}

RunOutput RunWorkload(const WorkloadSpec& spec, uint64_t seed, int iterations,
                      bool trace, const std::string& trace_file) {
  Ledger ledger;
  Results res;
  std::unique_ptr<Server> server;
  {
    g_tracer.set_enabled(trace);
    SetUp served = RunSetUp(spec, seed, iterations, &res);
    SetUp inproc = RunSetUp(spec, seed, iterations, &res);
    SetUp batch = RunSetUp(spec, seed, iterations, &res);
    batch.daemon.reset();  // only its inputs are used
    for (int i = 3; i < kSetUps; ++i) RunSetUp(spec, seed, iterations, &res);
    server = std::make_unique<Server>(spec, std::move(served), seed, &ledger);
    const bool serving = server->Start();
    RunInProcessAppends(&inproc, 0, kWarmupAppends, false, &ledger, &res);
    for (int it = 0; serving && it < iterations; ++it) {
      // In a traced run the first iteration stays untraced: it is the
      // baseline of obs.trace_overhead_ratio.
      g_tracer.set_enabled(trace && it > 0);
      Span span("bench.iteration");
      RunBatch(batch.in, &ledger, &res);
      RunInProcessAppends(&inproc, kWarmupAppends + it * spec.inproc_appends,
                          spec.inproc_appends, true, &ledger, &res);
      if (it == iterations / 2) server->OpenLoopWindow(&res);
      server->ClosedLoopWindow(&res);
      std::fprintf(stderr, "[%s] iteration %d/%d done\n", spec.name, it + 1,
                   iterations);
    }
  }  // the in-process and batch set-ups are torn down here
  g_tracer.set_enabled(trace);
  if (trace) server->ReportDaemon(&res);
  std::shared_ptr<const GammaSnapshot> served = server->StopAndCheck();
  if (trace) {
    res.layer["service.snapshot_query_ns"] = SnapshotQueryNs(*served, seed);
  }
  served.reset();
  const Inputs& in = server->inputs();
  if (trace) {
    LayerReplays(in, std::min<size_t>(200, in.stream.size() / kBatchTuples),
                 &ledger, &res);
  }

  RunOutput out;
  out.attempted = ledger.attempted.load();
  out.failed = ledger.failed.load();
  {
    std::lock_guard<std::mutex> lock(ledger.mu);
    for (const auto& f : ledger.failures) {
      std::fprintf(stderr, "FAILED: %s\n", f.c_str());
    }
  }

  // Host and build fingerprint, then the samples behind each number.
  std::printf(
      "fingerprint {\"workload\":\"%s\",\"seed\":%llu,\"set_ups\":%d,"
      "\"iterations\":%d,\"trace\":%d,\"nproc\":%u,\"simd\":\"%s\","
      "\"build_type\":\"%s\",\"compiler\":\"%s\",\"tuples_generated\":%zu,"
      "\"tuples_base\":%zu,\"tuples_streamed\":%zu,\"dmatch_workers\":%d}\n",
      spec.name, static_cast<unsigned long long>(seed), kSetUps, iterations,
      trace ? 1 : 0, std::thread::hardware_concurrency(),
      simd::LevelName(simd::ActiveLevel()), DCER_BUILD_TYPE, DCER_COMPILER,
      in.gen->dataset.num_tuples(), in.base.size(), in.stream.size(),
      kDMatchWorkers);
  auto line = [](const char* name, const std::vector<double>& v,
                 const char* what) {
    std::printf("  %-28s median=%.6g %s n=%zu %s", name, Median(v),
                TailSummary(v).c_str(), v.size(), what);
    if (v.size() <= 20) {
      for (double x : v) std::printf(" %.4g", x);
    }
    std::printf("\n");
  };
  std::printf("samples (s unless noted):\n");
  line("setup_s", res.setup_s, "set-ups");
  line("resolve_seq_s", res.resolve_seq_s, "iterations");
  line("resolve_dmatch_s", res.resolve_dmatch_s, "iterations");
  line("first_append_after_dmatch_s", res.first_append_s, "iterations");
  line("append_inproc_s", res.append_inproc_s, "appends");
  line("append_visible_s (open loop)", res.append_visible_s, "appends");
  line("query_s (open loop)", res.query_s, "queries");
  line("generator lateness", res.generator_late_s, "requests");
  line("append_tuples_per_s", res.tuples_per_s, "windows (tuples/s)");
  std::printf("  %-28s %.6g (%llu failed of %llu attempted; %llu "
              "read-your-writes queries)\n",
              "error_rate",
              out.attempted ? static_cast<double>(out.failed) /
                                  static_cast<double>(out.attempted)
                            : 0.0,
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(res.ryw_queries));

  if (!trace) {
    const double values[] = {
        Median(res.setup_s),          Median(res.resolve_seq_s),
        Median(res.resolve_dmatch_s), Median(res.first_append_s),
        Quantile(res.append_inproc_s, 0.5), Median(res.tuples_per_s),
        PeakRssMiB()};
    for (size_t i = 0; i < std::size(kEndToEnd); ++i) {
      out.metrics.push_back({kEndToEnd[i][0], {values[i], kEndToEnd[i][1]}});
    }
    out.correct = out.failed == 0;
    return out;
  }

  // Traced run: per-layer metrics, self time per layer, the trace file.
  res.layer["obs.trace_overhead_ratio"] =
      Median(res.traced_resolve_seq_s) / Median(res.resolve_seq_s);
  res.layer["bench.gen_late_p99_s"] = Quantile(res.generator_late_s, 0.99);
  res.layer["bench.append_inproc_p90_s"] = Quantile(res.append_inproc_s, 0.9);
  res.layer["bench.append_visible_p50_s"] = Quantile(res.append_visible_s, 0.5);
  res.layer["bench.append_visible_p90_s"] = Quantile(res.append_visible_s, 0.9);
  res.layer["bench.append_visible_p99_s"] =
      Quantile(res.append_visible_s, 0.99);
  res.layer["bench.query_p50_s"] = Quantile(res.query_s, 0.5);
  res.layer["bench.query_p90_s"] = Quantile(res.query_s, 0.9);
  res.layer["bench.query_p99_s"] = Quantile(res.query_s, 0.99);
  const std::vector<Tracer::Record> spans = g_tracer.records();
  std::map<uint32_t, double> child_s;
  for (const auto& r : spans) {
    if (r.parent != 0) child_s[r.parent] += (r.end_ns - r.start_ns) * 1e-9;
  }
  std::map<std::string, double> self_s;
  for (const auto& r : spans) {
    const std::string name = r.name;
    self_s[name.substr(0, name.find('.'))] +=
        (r.end_ns - r.start_ns) * 1e-9 - child_s[r.id];
  }
  std::printf("per-layer metric -> end-to-end metric it should move:\n");
  for (const auto& m : kPerLayer) {
    const auto it = res.layer.find(m[0]);
    const double v = it == res.layer.end() ? NAN : it->second;
    std::printf("  %-40s %-12.6g %-6s -> %s\n", m[0], v, m[1], m[2]);
    out.metrics.push_back({m[0], {v, m[1]}});
  }
  std::printf("self time by layer (traced spans, %zu spans):\n", spans.size());
  for (const char* layer : kLayers) {
    std::printf("  %-12s %.6g s\n", layer, self_s[layer]);
    out.metrics.push_back(
        {std::string("self.") + layer + "_s", {self_s[layer], "s"}});
  }

  if (!trace_file.empty()) {
    FILE* f = std::fopen(trace_file.c_str(), "w");
    if (ledger.Count(f != nullptr, "open trace file " + trace_file)) {
      std::fprintf(f, "{\"traceEvents\":[");
      for (size_t i = 0; i < spans.size(); ++i) {
        const auto& r = spans[i];
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\","
                     "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                     "\"args\":{\"span\":%u,\"parent\":%u,\"request\":%llu}}",
                     i ? "," : "", r.name,
                     static_cast<int>(std::strcspn(r.name, ".")), r.name,
                     r.start_ns / 1e3, (r.end_ns - r.start_ns) / 1e3, r.thread,
                     r.id, r.parent,
                     static_cast<unsigned long long>(r.request));
      }
      std::fprintf(f, "\n]}\n");
      ledger.Count(std::fclose(f) == 0, "write trace file " + trace_file);
      std::fprintf(stderr, "[%s] wrote %zu spans to %s\n", spec.name,
                   spans.size(), trace_file.c_str());
    }
    out.attempted = ledger.attempted.load();
    out.failed = ledger.failed.load();
  }
  out.correct = out.failed == 0;
  return out;
}

void PrintResult(const RunOutput& out) {
  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : out.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(vu.first) ? vu.first : 0.0);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + value +
            ", \"unit\": \"" + vu.second + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// Smoke mode: all workloads at tiny sizes, both modes; every named metric is
// present, finite and carries a unit, and every check passes.
int Smoke() {
  int failures = 0;
  for (const WorkloadSpec& w : kWorkloads) {
    const WorkloadSpec spec = SmokeSpec(w);
    for (bool trace : {false, true}) {
      const RunOutput out = RunWorkload(spec, 7, 2, trace, "");
      PrintResult(out);
      std::vector<std::string> expected;
      for (const auto& m : kEndToEnd) {
        if (!trace) expected.push_back(m[0]);
      }
      for (const auto& m : kPerLayer) {
        if (trace) expected.push_back(m[0]);
      }
      for (const std::string& name : expected) {
        const auto it =
            std::find_if(out.metrics.begin(), out.metrics.end(),
                         [&](const auto& m) { return m.first == name; });
        if (it == out.metrics.end() || !std::isfinite(it->second.first) ||
            std::strlen(it->second.second) == 0) {
          std::fprintf(stderr, "smoke %s: metric %s missing or not finite\n",
                       spec.name, name.c_str());
          ++failures;
        }
      }
      if (!out.correct || out.attempted == 0) {
        std::fprintf(stderr, "smoke %s (trace=%d): checks failed\n", spec.name,
                     trace ? 1 : 0);
        ++failures;
      }
    }
  }
  std::printf("smoke: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: dcer_perfbench --workload <tpch_batch|serve_stream> "
               "--seed <n> --seconds <s> --trace <0|1> "
               "[--trace-file <path>]\n"
               "       dcer_perfbench --smoke\n");
  return 2;
}

}  // namespace
}  // namespace dcer

int main(int argc, char** argv) {
  using namespace dcer;
  std::string workload, trace_file;
  uint64_t seed = 1;
  double seconds = 25;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") return Smoke();
    if (i + 1 >= argc) return Usage();
    const std::string val = argv[++i];
    if (arg == "--workload") {
      workload = val;
    } else if (arg == "--seed") {
      seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(val.c_str(), nullptr);
    } else if (arg == "--trace") {
      trace = val == "1";
    } else if (arg == "--trace-file") {
      trace_file = val;
    } else {
      return Usage();
    }
  }
  for (const WorkloadSpec& spec : kWorkloads) {
    if (workload == spec.name) {
      PrintResult(
          RunWorkload(spec, seed, IterationsFor(spec, seconds), trace,
                      trace_file));
      return 0;
    }
  }
  std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
  return Usage();
}
