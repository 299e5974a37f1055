#include "parallel/worker.h"

#include "common/timer.h"

namespace dcer {

Worker::Worker(int id, const Dataset& dataset, DatasetView fragment,
               std::vector<std::vector<RuleBlock>> rule_blocks,
               const RuleSet* rules, const MlRegistry* registry,
               ChaseEngine::Options engine_options)
    : id_(id),
      dataset_(&dataset),
      rules_(rules),
      registry_(registry),
      engine_options_(engine_options),
      read_ml_(ReadMlKeys(*rules)),
      fragment_(std::make_unique<DatasetView>(std::move(fragment))),
      rule_blocks_(std::make_unique<std::vector<std::vector<RuleBlock>>>(
          std::move(rule_blocks))),
      ctx_(std::make_unique<MatchContext>(dataset)) {}

void Worker::RunPartial() {
  Timer timer;
  engine_ = std::make_unique<ChaseEngine>(fragment_.get(), rule_blocks_.get(),
                                          rules_, registry_, ctx_.get(),
                                          engine_options_);
  Delta delta;
  engine_->Deduce(&delta);
  // Close the local fixpoint as engine::RunFixpoint does: re-join what
  // dropped dependencies lost to facts this pass derived. No other worker
  // sends this worker its own facts back, so nothing later would. Returns
  // at once while H has never dropped.
  const ChaseStats before = engine_->stats();
  Delta more;
  engine_->IncDeduce(delta, &more);
  delta.Append(more);
  const ChaseStats step = engine_->stats() - before;
  last_inc_ = {step.inc_rounds, step.inc_frontier_items, step.inc_dedup_hits,
               step.seeded_joins};
  outbox_.clear();
  for (const Fact& f : delta.facts) Emit(f);
  last_step_seconds_ = timer.ElapsedSeconds();
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
  for (const Delta* d : {&seeds, &out}) {
    for (const Fact& f : d->facts) {
      // Received facts are not ours to rebroadcast.
      if (incoming.count(f.Key()) == 0) Emit(f);
    }
  }
  last_step_seconds_ = timer.ElapsedSeconds();
}

void Worker::Emit(const Fact& f) {
  derived_.push_back(f);
  if (f.kind == Fact::Kind::kId ||
      read_ml_.count(MlClassKey(f.ml_id, f.a_sig, f.b_sig)) > 0) {
    outbox_.push_back(f);
  }
}

}  // namespace dcer
