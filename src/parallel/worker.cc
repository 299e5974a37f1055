#include "parallel/worker.h"

#include "common/timer.h"

namespace dcer {

Worker::Worker(int id, const Dataset& dataset, DatasetView fragment,
               std::vector<std::vector<DatasetView>> rule_views,
               const RuleSet* rules, const MlRegistry* registry,
               ChaseEngine::Options engine_options)
    : id_(id),
      dataset_(&dataset),
      rules_(rules),
      registry_(registry),
      engine_options_(engine_options),
      fragment_(std::make_unique<DatasetView>(std::move(fragment))),
      rule_views_(std::make_unique<std::vector<std::vector<DatasetView>>>(
          std::move(rule_views))),
      ctx_(std::make_unique<MatchContext>(dataset)) {}

void Worker::RunPartial() {
  Timer timer;
  engine_ = std::make_unique<ChaseEngine>(fragment_.get(), rule_views_.get(),
                                          rules_, registry_, ctx_.get(),
                                          engine_options_);
  Delta delta;
  engine_->Deduce(&delta);
  outbox_ = delta.facts;
  derived_.insert(derived_.end(), delta.facts.begin(), delta.facts.end());
  last_step_seconds_ = timer.ElapsedSeconds();
  last_inc_ = StepIncStats{};
}

void Worker::RunIncremental(const std::vector<Fact>& inbox) {
  Timer timer;
  std::unordered_set<uint64_t> incoming;
  incoming.reserve(inbox.size() * 2);
  for (const Fact& f : inbox) incoming.insert(f.Key());

  // Apply received matches; this may fire local dependencies (new local
  // facts), all of which seed the update-driven pass.
  Delta seeds;
  engine_->ApplyExternalFacts(inbox, &seeds);
  const ChaseStats before = engine_->stats();
  Delta out;
  engine_->IncDeduce(seeds, &out);
  const ChaseStats step = engine_->stats() - before;
  last_inc_ = {step.inc_rounds, step.inc_frontier_items, step.inc_dedup_hits,
               step.seeded_joins};

  outbox_.clear();
  auto emit = [&](const Fact& f) {
    if (incoming.count(f.Key())) return;  // received, not ours to rebroadcast
    outbox_.push_back(f);
    derived_.push_back(f);
  };
  for (const Fact& f : seeds.facts) emit(f);
  for (const Fact& f : out.facts) emit(f);
  last_step_seconds_ = timer.ElapsedSeconds();
}

}  // namespace dcer
