#include "parallel/dmatch.h"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <optional>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/master.h"
#include "parallel/wire.h"
#include "parallel/worker.h"

namespace dcer {

namespace {

// Runs one superstep across all workers (pool tasks or sequentially) and
// returns the slowest worker's time. The pool is persistent: it outlives
// every superstep and every DMatch call, so a superstep is a fork/join on
// already-running threads rather than a spawn/join of fresh ones.
double RunSuperstep(std::vector<std::unique_ptr<Worker>>& workers,
                    const std::vector<std::vector<Fact>>* inboxes,
                    bool run_parallel, ThreadPool* pool) {
  auto run_one = [&](size_t w) {
    if (inboxes == nullptr) {
      workers[w]->RunPartial();
    } else {
      workers[w]->RunIncremental((*inboxes)[w]);
    }
  };
  if (run_parallel) {
    // Re-install the dispatching thread's trace context on each pool worker
    // so superstep spans keep the request's trace_id.
    const obs::TraceContext trace_ctx = obs::CurrentTraceContext();
    TaskGroup group(pool);
    for (size_t w = 0; w < workers.size(); ++w) {
      group.Run([&run_one, w, trace_ctx] {
        obs::TraceContextScope trace_scope(trace_ctx);
        run_one(w);
      });
    }
    group.Wait();
  } else {
    for (size_t w = 0; w < workers.size(); ++w) run_one(w);
  }
  double slowest = 0;
  for (const auto& w : workers) {
    slowest = std::max(slowest, w->last_step_seconds());
  }
  return slowest;
}

}  // namespace

void DMatchReport::ExtraJson(JsonWriter* w) const {
  w->KV("num_supersteps", supersteps);
  w->KV("messages", messages);
  w->KV("bytes", bytes);
  w->KV("outbox_messages", outbox_messages);
  w->KV("outbox_bytes", outbox_bytes);
  w->KV("partition_seconds", partition_seconds);
  w->KV("er_seconds", er_seconds);
  w->KV("teardown_seconds", teardown_seconds);
  w->KV("simulated_seconds", simulated_seconds);
  w->KV("route_seconds", route_seconds);
  w->Key("partition").BeginObject();
  w->KV("generated_tuples", partition.generated_tuples);
  w->KV("fragment_tuples", partition.fragment_tuples);
  w->KV("hash_computations", partition.hash_computations);
  w->KV("hash_cache_hits", partition.hash_cache_hits);
  w->KV("num_hash_functions", partition.num_hash_functions);
  w->KV("replication_factor", partition.replication_factor);
  w->KV("skew", partition.skew);
  w->KV("seconds", partition.seconds);
  w->EndObject();
}

DMatchReport engine::DMatch(const Dataset& dataset, const RuleSet& rules,
                            const MlRegistry& registry,
                            const DMatchOptions& options,
                            MatchContext* result,
                            const DatasetProfiles* profiles) {
  obs::InitFromEnv();
  DCER_TRACE("dmatch");
  DMatchReport report;
  const bool observe = obs::MetricsEnabled();
  obs::MetricsSnapshot metrics_before;
  if (observe) metrics_before = obs::MetricsRegistry::Global().Snapshot();
  const uint64_t preds_before = registry.num_predictions();
  const uint64_t hits_before = registry.num_cache_hits();

  // Step 1: partition D with HyPart (in place of blocking).
  HyPartOptions part_options;
  part_options.num_workers = options.num_workers;
  part_options.use_mqo = options.use_mqo;
  part_options.use_virtual_blocks = options.use_virtual_blocks;
  Partition partition;
  {
    DCER_TRACE("hypart");
    partition = HyPart(dataset, rules, part_options);
  }
  report.partition = partition.stats;
  report.partition_seconds = partition.stats.seconds;

  // Step 2: the BSP fixpoint, executed on the process-wide persistent pool.
  ThreadPool& pool = ThreadPool::Global();
  Timer er_timer;
  std::optional<DatasetProfiles> own_profiles;
  if (profiles == nullptr) {
    profiles = &own_profiles.emplace(dataset, rules, options.ml_profiles);
  }
  ChaseEngine::Options engine_options =
      ChaseEngine::FromEngineOptions(options, &pool);
  engine_options.profiles = profiles->store();

  std::vector<std::unique_ptr<Worker>> workers;
  workers.reserve(options.num_workers);
  for (int w = 0; w < options.num_workers; ++w) {
    workers.push_back(std::make_unique<Worker>(
        w, dataset, std::move(partition.fragments[w]),
        std::move(partition.rule_blocks[w]), &rules, &registry,
        engine_options));
  }
  Master::Options master_options;
  master_options.pool = options.run_parallel ? &pool : nullptr;
  Master master(&partition.hosts, options.num_workers, dataset.num_tuples(),
                master_options);

  // Runs one superstep and records its per-worker times and skew. The
  // messages/bytes the master routes afterwards are filled in by the
  // dispatch below, attributing them to the step that produced them.
  auto run_step = [&](int step, const std::vector<std::vector<Fact>>* inboxes) {
    std::optional<obs::TraceSpan> span;
    if (obs::TraceEnabled()) span.emplace("superstep:" + std::to_string(step));
    double slowest = RunSuperstep(workers, inboxes, options.run_parallel,
                                  &pool);
    SuperstepStats ss;
    ss.step = step;
    ss.max_seconds = slowest;
    double sum = 0;
    ss.worker_seconds.reserve(workers.size());
    for (const auto& w : workers) {
      ss.worker_seconds.push_back(w->last_step_seconds());
      sum += w->last_step_seconds();
    }
    ss.mean_seconds = workers.empty() ? 0 : sum / workers.size();
    ss.skew = ss.mean_seconds > 0 ? ss.max_seconds / ss.mean_seconds : 0;
    for (const auto& w : workers) {
      const Worker::StepIncStats& inc = w->last_step_inc_stats();
      ss.inc_rounds = std::max(ss.inc_rounds, inc.inc_rounds);
      ss.inc_frontier_items += inc.inc_frontier_items;
      ss.inc_dedup_hits += inc.inc_dedup_hits;
      ss.seeded_joins += inc.seeded_joins;
    }
    report.superstep_stats.push_back(std::move(ss));
    return slowest;
  };

  // Collects every worker's outbox through the wire: encode it and let the
  // master decode the bytes. The collect-side wire volume is charged to the
  // superstep whose stats entry is current (the step that produced the
  // outboxes).
  auto exchange_outboxes = [&] {
    const uint64_t msgs_before = master.outbox_messages();
    const uint64_t bytes_before = master.outbox_bytes();
    for (auto& w : workers) {
      std::vector<Fact> out = w->TakeOutbox();
      std::vector<uint8_t> bytes;
      if (!out.empty()) wire::EncodeFactBatch(out, &bytes);
      const wire::WireError err =
          master.CollectFromWorker(w->id(), std::move(bytes));
      if (err != wire::WireError::kOk) {
        // Both ends run in this process: a rejected batch is a codec bug,
        // and continuing would silently drop facts from Γ.
        DCER_LOG(Error) << "dmatch: outbox of worker " << w->id()
                        << " failed to decode: " << wire::WireErrorName(err);
        std::abort();
      }
    }
    SuperstepStats& ss = report.superstep_stats.back();
    ss.outbox_messages = master.outbox_messages() - msgs_before;
    ss.outbox_bytes = master.outbox_bytes() - bytes_before;
  };

  // Superstep 0: partial evaluation A on every worker in parallel.
  report.simulated_seconds += run_step(0, nullptr);
  report.supersteps = 1;
  exchange_outboxes();

  // Supersteps r > 0: incremental A_Δ until no messages flow (ΔΓ = ∅).
  std::vector<std::vector<Fact>> inboxes;
  while (master.Dispatch(&inboxes)) {
    report.superstep_stats.back().messages = master.last_dispatch_messages();
    report.superstep_stats.back().bytes = master.last_dispatch_bytes();
    report.simulated_seconds += run_step(report.supersteps, &inboxes);
    ++report.supersteps;
    exchange_outboxes();
  }

  // Γ = ∪_i Γ_i: union the locally derived facts into the result context.
  for (const auto& w : workers) {
    for (const Fact& f : w->derived_facts()) result->Apply(f, nullptr);
    report.chase += w->stats();
  }
  report.er_seconds = er_timer.ElapsedSeconds();

  // Teardown: each worker's engine, indices, views and context are freed in
  // a pool task of their own (run_parallel), not one after another on this
  // thread.
  Timer teardown_timer;
  if (options.run_parallel) {
    TaskGroup group(&pool);
    for (auto& w : workers) group.Run([&w] { w.reset(); });
    group.Wait();
  }
  workers.clear();
  report.teardown_seconds = teardown_timer.ElapsedSeconds();

  report.seconds =
      report.partition_seconds + report.er_seconds + report.teardown_seconds;
  report.messages = master.messages_routed();
  report.bytes = master.bytes_routed();
  report.outbox_messages = master.outbox_messages();
  report.outbox_bytes = master.outbox_bytes();
  report.route_seconds = master.route_seconds();
  report.matched_pairs = result->num_matched_pairs();
  report.validated_ml = result->num_validated_ml();
  report.ml_predictions = registry.num_predictions() - preds_before;
  report.ml_cache_hits = registry.num_cache_hits() - hits_before;
  if (observe) {
    // Fed once, from this thread, after the BSP phase: the registry's
    // counter section stays deterministic under any worker/thread setting.
    report.chase.AddToRegistry();
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    reg.GetCounter("dmatch.supersteps")->Add(report.supersteps);
    reg.GetCounter("dmatch.messages")->Add(report.messages);
    reg.GetCounter("dmatch.bytes")->Add(report.bytes);
    reg.GetCounter("dmatch.outbox_messages")->Add(report.outbox_messages);
    reg.GetCounter("dmatch.outbox_bytes")->Add(report.outbox_bytes);
    reg.GetCounter("hypart.generated_tuples")
        ->Add(report.partition.generated_tuples);
    reg.GetCounter("hypart.fragment_tuples")
        ->Add(report.partition.fragment_tuples);
    reg.GetCounter("hypart.hash_computations")
        ->Add(report.partition.hash_computations);
    reg.GetCounter("hypart.hash_cache_hits")
        ->Add(report.partition.hash_cache_hits);
    obs::Histogram* step_hist = reg.GetHistogram(
        "dmatch.superstep_seconds", obs::Histogram::Unit::kNanos);
    for (const SuperstepStats& s : report.superstep_stats) {
      step_hist->RecordSeconds(s.max_seconds);
    }
    report.metrics = reg.Snapshot().Delta(metrics_before);
  }
  return report;
}

}  // namespace dcer
