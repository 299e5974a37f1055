#ifndef DCER_OBS_REPORT_H_
#define DCER_OBS_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace dcer {

class JsonWriter;

/// Counters exposed by the chase (computation-cost metrics of Sec. VI).
/// Every field is deterministic for a given input: each engine runs on one
/// thread, and DMatch sums its workers' stats, so the totals are the same
/// whether the workers run on the pool or one after another (run_parallel).
struct ChaseStats {
  uint64_t valuations = 0;      // leaf valuations inspected (emitted joins)
  uint64_t matches = 0;         // direct id facts applied
  uint64_t validated_ml = 0;    // ML facts validated
  uint64_t deps_added = 0;      // dependencies stored in H
  uint64_t deps_dropped = 0;    // dependencies dropped (H at capacity)
  uint64_t deps_fired = 0;      // dependencies fired
  uint64_t seeded_joins = 0;    // update-driven re-joins
  uint64_t indices_built = 0;   // inverted indices constructed
  uint64_t ml_indices_built = 0;  // ML candidate indices constructed
  uint64_t join_candidates = 0;   // candidate rows iterated by the join
  uint64_t ml_probes = 0;         // ML candidate-index probes issued
  uint64_t ml_probe_candidates = 0;  // rows those probes produced (after
                                     // multi-probe intersection); together
                                     // with ml_probes: filter selectivity
  uint64_t inc_rounds = 0;         // semi-naive rounds run by IncDeduce
  uint64_t inc_frontier_items = 0;  // frontier facts across those rounds
  uint64_t inc_dedup_hits = 0;  // facts/bindings skipped as already re-joined;
                                // with inc_frontier_items: cascade redundancy

  ChaseStats& operator+=(const ChaseStats& o);
  /// Field-wise difference of two readings of one engine's running
  /// counters (later − earlier): the work done between them.
  ChaseStats operator-(const ChaseStats& earlier) const;
  bool operator==(const ChaseStats&) const = default;

  /// Appends the stats as one JSON object value.
  void AppendJson(JsonWriter* w) const;

  /// Adds every field into the global metrics registry as "chase.*"
  /// counters. Called once per run from a single thread after the chase
  /// finishes, so the registry stays deterministic however the workers
  /// that produced the stats were scheduled.
  void AddToRegistry() const;
};

/// Per-superstep BSP behavior of one DMatch run (Sec. VI reasons about
/// exactly these: wall time, routed messages/bytes and worker skew per
/// superstep). Step 0 is the partial evaluation (algorithm A); later steps
/// are the incremental supersteps (A_Δ).
struct SuperstepStats {
  int step = 0;
  double max_seconds = 0;   // slowest worker = the step's simulated time
  double mean_seconds = 0;  // over workers
  double skew = 0;          // max/mean; 1.0 = perfectly balanced
  std::vector<double> worker_seconds;  // one entry per worker
  /// Wire volume attributed to this step, both legs of the exchange it
  /// triggered. All byte fields are actual serialized sizes of wire-codec
  /// batches (the master is the single source of truth; DMatchReport's
  /// totals are exactly the sums of these).
  uint64_t messages = 0;  // facts delivered to worker inboxes after the step
  uint64_t bytes = 0;     // serialized size of those inbox batches
  uint64_t outbox_messages = 0;  // facts the step's outboxes sent the master
  uint64_t outbox_bytes = 0;     // serialized size of those outbox batches
  /// Incremental-chase shape of the step (all zero for step 0, which runs
  /// the full Deduce): the deepest semi-naive cascade any worker ran, and
  /// the frontier/dedup/re-join volume summed over workers. These track how
  /// much |Δ|-proportional work the step did.
  uint64_t inc_rounds = 0;          // max over workers
  uint64_t inc_frontier_items = 0;  // sum over workers
  uint64_t inc_dedup_hits = 0;      // sum over workers
  uint64_t seeded_joins = 0;        // sum over workers
};

/// Shared core of MatchReport and DMatchReport: the chase counters, the
/// outcome sizes, and (when obs collection is on) the metrics this run
/// contributed, serialized by a single ToJson. Timing fields and the
/// "cache"/"timings" JSON sections are excluded from the determinism
/// contract (the striped ML prediction cache is lossy under concurrency);
/// everything else is bit-identical whether DMatch's workers run on the
/// pool or one after another.
struct RunReport {
  ChaseStats chase;
  uint64_t matched_pairs = 0;
  uint64_t validated_ml = 0;
  double seconds = 0;  // wall clock of the whole run
  /// ML classifier invocations and prediction-cache hits during the run
  /// (delta over the registry's totals).
  uint64_t ml_predictions = 0;
  uint64_t ml_cache_hits = 0;
  /// Per-superstep stats; empty for sequential Match.
  std::vector<SuperstepStats> superstep_stats;
  /// Registry delta over the run; empty unless obs::MetricsEnabled().
  obs::MetricsSnapshot metrics;

  virtual ~RunReport() = default;

  /// The whole report as one JSON object, including the derived report's
  /// extra fields. The only JSON emitter for run outcomes in the repo.
  std::string ToJson() const;

 protected:
  /// Derived reports append their extra members as additional keys.
  virtual void ExtraJson(JsonWriter* w) const;
};

}  // namespace dcer

#endif  // DCER_OBS_REPORT_H_
