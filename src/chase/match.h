#ifndef DCER_CHASE_MATCH_H_
#define DCER_CHASE_MATCH_H_

#include <functional>

#include "chase/dataset_profiles.h"
#include "chase/deduce.h"
#include "chase/engine_options.h"
#include "obs/report.h"

namespace dcer {

/// Configuration of the sequential Match algorithm. The engine knobs shared
/// with DMatch (dependency_capacity, use_mqo, threads, ml_index,
/// ml_profiles) live in the EngineOptions base; only what is specific to
/// the sequential entry point is declared here.
struct MatchOptions : EngineOptions {
  /// Record rule/valuation provenance for Explain().
  bool enable_provenance = false;
};

/// Outcome of one Match run: the RunReport core (chase stats, outcome
/// sizes, cache and obs snapshots, ToJson) plus the fixpoint round count.
struct MatchReport : RunReport {
  int rounds = 0;  // 1 (Deduce) + IncDeduce's semi-naive rounds

 protected:
  void ExtraJson(JsonWriter* w) const override;
};

namespace engine {

/// The one fixpoint driver (Fig. 3 lines 2-6) over an already-built engine:
/// `first_pass` (engine->Deduce, or DeduceForNewTuples for an Append), then
/// IncDeduce, which runs semi-naive rounds until one derives nothing. Every
/// chase job — Match, a sequential Resolver open, its re-seed after a DMatch
/// open, each Append — reports through it: `chase` is the engine's stats
/// delta over the call, `rounds` = 1 + its semi-naive rounds, `seconds`
/// times both passes, matched_pairs/validated_ml are Γ's sizes after it,
/// and ml_predictions/ml_cache_hits are `registry`'s deltas. `metrics` is
/// left empty.
MatchReport RunFixpoint(ChaseEngine* engine, const MlRegistry& registry,
                        const std::function<void(Delta*)>& first_pass);

/// Sequential algorithm Match (Fig. 3): chases `view` with `rules` to the
/// fixpoint Γ, which is left in *ctx. ctx must be freshly constructed over
/// the same dataset as the view. Deterministic given the inputs; by the
/// Church–Rosser property (Cor. 1) the resulting Γ is independent of rule
/// order, which the tests verify against NaiveChase. Builds the dataset's
/// ML profile store for the call when options.ml_profiles is set.
///
/// This is the one-shot fixpoint *kernel*; application code should open a
/// `dcer::Resolver` (service/resolver.h) with num_workers = 0 instead — it
/// runs this exact fixpoint and adds snapshots, point queries, and
/// incremental Append on top. The kernel stays exposed (in dcer::engine)
/// for white-box tests, benches and the eval harness, which need direct
/// control of the MatchContext. The old deprecated `dcer::Match` shim has
/// been removed.
MatchReport Match(const DatasetView& view, const RuleSet& rules,
                  const MlRegistry& registry, const MatchOptions& options,
                  MatchContext* ctx);

}  // namespace engine

}  // namespace dcer

#endif  // DCER_CHASE_MATCH_H_
