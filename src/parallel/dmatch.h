#ifndef DCER_PARALLEL_DMATCH_H_
#define DCER_PARALLEL_DMATCH_H_

#include "chase/dataset_profiles.h"
#include "chase/deduce.h"
#include "chase/engine_options.h"
#include "obs/report.h"
#include "partition/hypart.h"

namespace dcer {

/// Configuration of parallel algorithm DMatch (Sec. V-B). The engine knobs
/// shared with the sequential Match (dependency_capacity, use_mqo,
/// ml_index, ml_profiles) live in the EngineOptions base. Each worker runs
/// a single-threaded chase over its fragment: the workers, run on the pool
/// when run_parallel is set, are the parallelism.
struct DMatchOptions : EngineOptions {
  int num_workers = 4;
  /// Virtual blocks + LPT skew reduction in HyPart.
  bool use_virtual_blocks = true;
  /// Run workers — and the master's routing shards — on the persistent
  /// thread pool. false = run everything sequentially (results are
  /// identical; per-superstep max worker time still yields the simulated
  /// parallel time, useful when workers outnumber cores).
  bool run_parallel = true;
};

/// Outcome of one DMatch run: the RunReport core (chase stats summed over
/// workers, outcome sizes, per-superstep stats, cache and obs snapshots,
/// ToJson) plus the partitioning and BSP-phase specifics. All byte counts
/// are actual serialized sizes of wire-codec batches (parallel/wire.h) —
/// nothing is estimated from in-memory struct sizes.
struct DMatchReport : RunReport {
  PartitionStats partition;
  int supersteps = 0;
  uint64_t messages = 0;  // facts delivered to worker inboxes (via master)
  uint64_t bytes = 0;     // serialized bytes of the delivered inbox batches
  uint64_t outbox_messages = 0;  // facts workers sent to the master
  uint64_t outbox_bytes = 0;     // serialized bytes of the outbox batches
  double partition_seconds = 0;
  double er_seconds = 0;         // wall clock of the BSP phase
  /// Wall clock of freeing the workers (engines, indices, views) after the
  /// BSP phase. seconds = partition_seconds + er_seconds + this.
  double teardown_seconds = 0;
  double simulated_seconds = 0;  // Σ_steps max_i t_i: n dedicated machines
  double route_seconds = 0;      // master wall clock spent routing

 protected:
  void ExtraJson(JsonWriter* w) const override;
};

namespace engine {

/// Parallel deep and collective ER: HyPart-partitions the dataset, runs the
/// BSP fixpoint (partial evaluation, then incremental supersteps routed
/// through the master) and leaves Γ = ∪ Γ_i in *result. By Prop. 4/8 the
/// result equals the sequential Match's Γ, which the tests verify.
///
/// This is the one-shot BSP *kernel*; application code should open a
/// `dcer::Resolver` (service/resolver.h) with num_workers > 0 instead — it
/// runs this exact fixpoint and adds snapshots, point queries, and
/// incremental Append on top. The kernel stays exposed (in dcer::engine)
/// for white-box tests, benches and the eval harness. The old deprecated
/// `dcer::DMatch` shim has been removed.
///
/// `profiles` is the dataset owner's profile store (the Resolver passes
/// its own); nullptr builds one for this call per options.ml_profiles.
/// Either way it is complete before the workers start, and they only read
/// it.
DMatchReport DMatch(const Dataset& dataset, const RuleSet& rules,
                    const MlRegistry& registry, const DMatchOptions& options,
                    MatchContext* result,
                    const DatasetProfiles* profiles = nullptr);

}  // namespace engine

}  // namespace dcer

#endif  // DCER_PARALLEL_DMATCH_H_
