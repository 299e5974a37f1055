#ifndef DCER_PARALLEL_WORKER_H_
#define DCER_PARALLEL_WORKER_H_

#include <memory>
#include <unordered_set>
#include <vector>

#include "chase/deduce.h"

namespace dcer {

/// One BSP worker P_i of DMatch (Sec. V-B): owns a fragment W_i, a local
/// match context Γ_i, and a chase engine. Superstep 0 runs the partial
/// evaluation A (= Deduce on local data, then IncDeduce on its own delta to
/// reach the local fixpoint); later supersteps run the incremental A_Δ
/// (= apply received matches, then update-driven IncDeduce).
/// Not thread-safe internally; the coordinator runs each worker on its own
/// thread per superstep with barriers in between.
class Worker {
 public:
  /// `fragment` is the union of everything this worker hosts (routing,
  /// gid resolution); `rule_blocks[r]` lists the virtual blocks rule r's own
  /// Hypercube assigned here, with their role rows — the scopes rule r is
  /// evaluated in.
  Worker(int id, const Dataset& dataset, DatasetView fragment,
         std::vector<std::vector<RuleBlock>> rule_blocks,
         const RuleSet* rules, const MlRegistry* registry,
         ChaseEngine::Options engine_options);

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  int id() const { return id_; }

  /// Superstep 0: partial evaluation A over the local fragment.
  void RunPartial();

  /// Superstep r > 0: applies facts received from other workers (via the
  /// master), then incrementally deduces follow-up matches.
  void RunIncremental(const std::vector<Fact>& inbox);

  /// Facts deduced locally in the last superstep that another worker can
  /// use (to send to the master): every id match, and the validated ML
  /// facts of a class some rule's precondition reads. Received facts are
  /// never echoed back.
  std::vector<Fact> TakeOutbox() { return std::move(outbox_); }

  /// All facts this worker deduced locally over its lifetime (Γ_i minus the
  /// received ones), sent or not; the coordinator unions these into the
  /// global Γ.
  const std::vector<Fact>& derived_facts() const { return derived_; }

  const ChaseStats& stats() const {
    static const ChaseStats kEmpty;
    return engine_ == nullptr ? kEmpty : engine_->stats();
  }
  const MatchContext& context() const { return *ctx_; }
  size_t fragment_tuples() const { return fragment_->num_tuples(); }
  double last_step_seconds() const { return last_step_seconds_; }

  /// Incremental-chase shape of the last superstep (deltas of the engine's
  /// running counters across its IncDeduce; after RunPartial, non-zero only
  /// when dependencies were dropped). Feeds SuperstepStats.
  struct StepIncStats {
    uint64_t inc_rounds = 0;
    uint64_t inc_frontier_items = 0;
    uint64_t inc_dedup_hits = 0;
    uint64_t seeded_joins = 0;
  };
  const StepIncStats& last_step_inc_stats() const { return last_inc_; }

 private:
  // Records a locally deduced fact in derived_, and in outbox_ if another
  // worker can use it.
  void Emit(const Fact& f);

  int id_;
  const Dataset* dataset_;
  const RuleSet* rules_;
  const MlRegistry* registry_;
  ChaseEngine::Options engine_options_;
  std::unordered_set<uint64_t> read_ml_;  // ReadMlKeys(*rules_)
  std::unique_ptr<DatasetView> fragment_;
  std::unique_ptr<std::vector<std::vector<RuleBlock>>> rule_blocks_;
  std::unique_ptr<MatchContext> ctx_;
  // Built lazily inside the first (timed) superstep: index and scope
  // construction is real per-worker runtime, and it is where MQO's shared
  // indices pay off — charging it to the superstep keeps the simulated
  // parallel time honest.
  std::unique_ptr<ChaseEngine> engine_;
  std::vector<Fact> outbox_;
  std::vector<Fact> derived_;
  double last_step_seconds_ = 0;
  StepIncStats last_inc_;
};

}  // namespace dcer

#endif  // DCER_PARALLEL_WORKER_H_
