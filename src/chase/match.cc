#include "chase/match.h"

#include "common/timer.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dcer {

void MatchReport::ExtraJson(JsonWriter* w) const { w->KV("rounds", rounds); }

MatchReport engine::RunFixpoint(
    ChaseEngine* engine, const MlRegistry& registry,
    const std::function<void(Delta*)>& first_pass) {
  Timer timer;
  const ChaseStats before = engine->stats();
  const uint64_t preds_before = registry.num_predictions();
  const uint64_t hits_before = registry.num_cache_hits();
  Delta delta;
  first_pass(&delta);
  // IncDeduce is itself a semi-naive fixpoint — it runs rounds until one
  // derives nothing, which certifies the fixpoint — so one call suffices.
  Delta rest;
  engine->IncDeduce(delta, &rest);

  MatchReport report;
  report.chase = engine->stats() - before;
  report.rounds = 1 + static_cast<int>(report.chase.inc_rounds);
  report.seconds = timer.ElapsedSeconds();
  report.matched_pairs = engine->context().num_matched_pairs();
  report.validated_ml = engine->context().num_validated_ml();
  report.ml_predictions = registry.num_predictions() - preds_before;
  report.ml_cache_hits = registry.num_cache_hits() - hits_before;
  return report;
}

MatchReport engine::Match(const DatasetView& view, const RuleSet& rules,
                          const MlRegistry& registry,
                          const MatchOptions& options, MatchContext* ctx) {
  obs::InitFromEnv();
  DCER_TRACE("match");
  Timer timer;
  const bool observe = obs::MetricsEnabled();
  obs::MetricsSnapshot before;
  if (observe) before = obs::MetricsRegistry::Global().Snapshot();
  if (options.enable_provenance) ctx->EnableProvenance();

  const DatasetProfiles profiles(view.dataset(), rules, options.ml_profiles);
  ChaseEngine::Options engine_options =
      ChaseEngine::FromEngineOptions(options);
  engine_options.profiles = profiles.store();
  ChaseEngine engine(&view, &rules, &registry, ctx, engine_options);

  MatchReport report = RunFixpoint(&engine, registry,
                                   [&](Delta* d) { engine.Deduce(d); });
  report.seconds = timer.ElapsedSeconds();
  if (observe) {
    report.chase.AddToRegistry();
    report.metrics = obs::MetricsRegistry::Global().Snapshot().Delta(before);
  }
  return report;
}

}  // namespace dcer
