#ifndef DCER_CHASE_DEDUCE_H_
#define DCER_CHASE_DEDUCE_H_

#include <functional>
#include <memory>
#include <span>
#include <unordered_set>

#include "chase/delta_store.h"
#include "chase/dependency_store.h"
#include "chase/engine_options.h"
#include "chase/join.h"
#include "obs/report.h"

namespace dcer {

class ThreadPool;

/// One chase evaluation instance over a dataset view: owns the dependency
/// store H and the inverted indices, and implements procedures Deduce
/// (Fig. 3 line 2) and IncDeduce (Fig. 4). The sequential Match wraps one
/// engine over the full dataset; each BSP worker of DMatch wraps one over
/// its fragment (algorithms A and A_Δ of Sec. V-B are exactly Deduce and
/// IncDeduce run against local data).
class ChaseEngine {
 public:
  struct Options {
    /// Capacity K of the dependency set H (bounded by available memory in
    /// the paper). Dropped dependencies only cost re-joins, never results.
    size_t dependency_capacity = size_t{1} << 20;
    /// MQO: share one set of inverted indices across all rules. The noMQO
    /// ablation (Fig. 6(e)-(h)) sets this false and pays per-rule index
    /// construction.
    bool share_indices = true;
    /// Intra-engine parallel enumeration. When `pool` is set and a scope's
    /// root-candidate list has at least `min_parallel_root` entries, Deduce
    /// splits the list into `enumeration_shards` contiguous slices, each
    /// enumerated by a pool task with a private RuleJoiner against a frozen
    /// context snapshot, and merges the recorded valuations sequentially in
    /// (shard, discovery-order) — bit-identical to sequential Deduce (the
    /// valuation set is context-independent; stale unsat entries are
    /// re-checked at merge). nullptr keeps Deduce fully sequential.
    ThreadPool* pool = nullptr;
    int enumeration_shards = 1;
    size_t min_parallel_root = 64;
    /// Similarity-index candidate generation for ML predicates: a bound
    /// side probes a sound candidate index over the other side's relation
    /// instead of enumerating the full cross product. Only predicates whose
    /// facts no rule derives are pruned (see DerivableMlKeys), so results
    /// are bit-identical to the unindexed chase.
    bool ml_index = true;
    /// The dataset's profile store (DatasetProfiles::store()), built and
    /// kept covering the ML columns by the engine's owner; the engine only
    /// reads it. nullptr keeps every ML path on the per-pair text kernels.
    /// Bit-identical results either way.
    const ProfileStore* profiles = nullptr;
    /// IncDeduce rounds with at least this many re-joins record them on
    /// `pool` against a frozen snapshot and merge in (rule, scope,
    /// item-order); smaller rounds (and every round without a pool) apply
    /// each re-join inline in that same order. Identical results.
    size_t min_parallel_inc_tasks = 32;
  };

  /// The single mapping from the shared EngineOptions knobs onto engine
  /// options. Every entry point (engine::Match, the DMatch workers, the
  /// Resolver) builds its engine through this, so a knob cannot
  /// drift between the sequential and parallel paths. `pool` is used (with
  /// 2 × threads enumeration shards, oversplit so stealing can rebalance
  /// skewed shards) only when eo.threads > 1.
  static Options FromEngineOptions(const EngineOptions& eo, ThreadPool* pool);

  /// Evaluates every rule over `view`: the scoped form below with one
  /// block per rule, that block being `view` itself (so rows the owner
  /// appends to `view` reach the indices through NotifyAppend). Sequential
  /// Match and the Resolver use this with the full-dataset view.
  ChaseEngine(const DatasetView* view, const RuleSet* rules,
              const MlRegistry* registry, MatchContext* ctx, Options options);

  /// Scoped (DMatch-worker) form: rule r is evaluated separately inside
  /// each of its assigned virtual blocks (*rule_blocks)[r] (see
  /// Partition::rule_blocks) — never across blocks. Each scope binds tuple
  /// variable q only to the rows its block received for q (the block's
  /// role bitmaps, read in place: *rule_blocks must outlive the engine), so
  /// every valuation is enumerated in exactly one block of the cluster.
  /// `union_view` hosts everything the worker holds and is used for gid
  /// resolution. With share_indices, blocks whose
  /// views have identical contents (MQO-shared hash functions across rules)
  /// share one set of inverted indices; role bitmaps are never shared.
  ChaseEngine(const DatasetView* union_view,
              const std::vector<std::vector<RuleBlock>>* rule_blocks,
              const RuleSet* rules, const MlRegistry* registry,
              MatchContext* ctx, Options options);

  /// Full pass: enumerates valuations of every rule, applies consequences,
  /// and records dependencies for valuations blocked only on id/ML
  /// predicates. Newly deduced facts (with their equivalence expansions)
  /// are appended to *delta.
  void Deduce(Delta* delta);

  /// Update-driven pass (Fig. 4), run as a batched semi-naive fixpoint:
  /// the seeds (which must already be applied to the context) form round 1's
  /// frontier; each round dedups its frontier against the facts already
  /// re-joined this call, groups the surviving re-joins by (rule, scope),
  /// records their enumerations against the context frozen at round start
  /// (in parallel on Options::pool when configured) and merges the recorded
  /// valuations in (rule, scope, item-order); everything newly derived
  /// becomes the next round's frontier. Newly deduced facts are appended to
  /// *out. When the dependency store has never dropped (num_dropped() == 0),
  /// the pass returns immediately: every valuation blocked on id/ML
  /// predicates was recorded in H by the full enumeration passes, so firing
  /// H (which the caller already did by applying the seeds) IS the fixpoint
  /// — seeded re-joins only ever recover what a drop lost.
  void IncDeduce(const Delta& seeds, Delta* out);

  /// Registers tuples newly appended to the evaluation views with every
  /// index built so far (incremental ΔD support). With a profile store, its
  /// owner must have profiled the tuples' ML cells first
  /// (DatasetProfiles::NotifyAppend).
  void NotifyAppend(std::span<const Gid> gids);

  /// Incremental ΔD (Sec. V-A Remark): enumerates only the valuations that
  /// involve at least one of the newly appended tuples (each must already be
  /// present in the evaluation views and indices), applies consequences, and
  /// records dependencies. Feed the resulting delta to IncDeduce to cascade.
  void DeduceForNewTuples(std::span<const Gid> new_gids, Delta* delta);

  /// Applies facts received from other workers (not yet in the context),
  /// firing dependencies transitively. Everything newly true is appended to
  /// *newly (feed it to IncDeduce as seeds).
  void ApplyExternalFacts(std::span<const Fact> facts, Delta* newly);

  const ChaseStats& stats() const { return stats_; }
  const DependencyStore& dependencies() const { return deps_; }
  const DatasetView& view() const { return *view_; }
  MatchContext& context() { return *ctx_; }

 private:
  // One evaluation scope: a (rule, block) pair with its index and joiner,
  // and in the scoped form the block's role bitmaps, which every joiner
  // over the scope filters by.
  struct Scope {
    DatasetIndex* index = nullptr;
    std::span<const Bitmap> roles;  // RuleBlock::roles; empty = unscoped
    std::unique_ptr<RuleJoiner> joiner;
  };

  // Applies `fact` (derived by rule/valuation; rule < 0 for external facts)
  // and fires dependencies transitively. Appends all newly true facts and
  // pairs to *delta.
  void ApplyFactAndFire(const Fact& fact, int rule,
                        const std::vector<Gid>& valuation, Delta* delta);

  // Shared handling of one complete valuation of rule `rule_idx` found by
  // `joiner` (the scope it was found in).
  void HandleValuation(size_t rule_idx, RuleJoiner* joiner,
                       const std::vector<uint32_t>& rows,
                       const std::vector<int>& unsat, Delta* delta);

  // Parallel enumeration of one scope (see Options::pool). Returns false
  // when the scope should fall back to the sequential path (no pool, or the
  // root candidate list is too small to be worth forking).
  bool ParallelEnumerate(size_t rule_idx, uint32_t scope_idx, Delta* delta);

  // One pool task of record-then-merge: a slice [begin, end) of its scope's
  // root candidates or of inc_tasks_, and the leaf valuations it recorded —
  // flat rows at the rule's stride plus length-prefixed unsat runs
  // ([len, idx...] per valuation), so recording never allocates per leaf.
  struct RecordJob {
    uint32_t rule = 0, scope = 0;
    size_t begin = 0, end = 0;
    std::vector<uint32_t> rows{};
    std::vector<int> unsat{};
    JoinCounters counters{};
  };
  using JobEnumerator = std::function<void(
      const RecordJob&, RuleJoiner*, const RuleJoiner::Callback& record)>;
  // Record-then-merge, shared by parallel Deduce and IncDeduce: each job
  // runs on the pool with a private read-only joiner over its scope
  // (`enumerate` drives it into `record`) against the context frozen here;
  // then this thread — the only writer, strictly after Wait — replays the
  // jobs in order, re-checking recorded unsat entries (a snapshot superset)
  // with LeafHolds before HandleValuation. The result is exactly the
  // HandleValuation sequence of inline enumeration in the same order.
  void RecordAndReplay(std::vector<RecordJob>* jobs,
                       const JobEnumerator& enumerate, Delta* delta);

  // Sets stats_.indices_built / ml_indices_built to the indices built so
  // far; called after every pass that can build indices lazily.
  void CountIndices();

  // One seeded re-join of the semi-naive pass: rule `rule` in scope `scope`
  // with variables lvar/rvar pre-bound to rows lrow/rrow of the scope's
  // block. Built per round in (item, rule, scope, predicate, orientation)
  // order, then stably grouped by (rule, scope).
  struct IncTask {
    uint32_t rule;
    uint32_t scope;
    int32_t lvar, rvar;
    uint32_t lrow, rrow;
  };

  // Appends d's id pairs and ML facts to *store, skipping (and counting)
  // facts already re-joined during this IncDeduce call.
  void EnqueueFrontier(const Delta& d, DeltaStore* store);
  // True iff the scope's block hosts rows for every variable of the rule
  // (in the scoped form: role rows); a block missing one cannot host any
  // valuation.
  bool ScopeFeasible(size_t rule_idx, uint32_t scope_idx) const;
  // ScopeFeasible memoized per IncDeduce call, so a seeded enumeration is
  // not paid per work item on an infeasible scope.
  bool IncScopeFeasible(size_t rule_idx, uint32_t scope_idx);
  // Fills scopes_of_gid_ from the scopes' block views.
  void BuildScopesOfGid();
  // Expands the current frontier into inc_tasks_ (dedup, feasibility,
  // orientation matching).
  void BuildIncRoundTasks();
  // Runs inc_tasks_ (grouped by (rule, scope)) and appends everything newly
  // derived to *round_out: large rounds through RecordAndReplay on the
  // pool, small ones inline with immediate application. Both orders are
  // (rule, scope, item-order), so results and stats are identical (see
  // DESIGN.md "Delta-driven fixpoint").
  void ExecuteIncRoundTasks(Delta* round_out);

  const DatasetView* view_;
  const RuleSet* rules_;
  const MlRegistry* registry_;
  MatchContext* ctx_;
  Options options_;
  const bool scoped_;        // built over RuleBlocks (a DMatch worker)
  MlIndexPolicy ml_policy_;  // shared by scope joiners and shard joiners
  DependencyStore deps_;
  ChaseStats stats_;

  std::vector<std::unique_ptr<DatasetIndex>> owned_indices_;
  std::vector<std::vector<Scope>> scopes_;  // [rule][block]
  // Scoped form only (empty for a full view, whose one block per rule
  // hosts every gid): per rule, gid -> indices of the scopes hosting it.
  // Lets the update-driven pass touch only the blocks that can host a
  // seeded valuation instead of scanning every (rule, block) pair per item.
  // Built by the first seeded round (BuildScopesOfGid): while H never
  // drops, IncDeduce never re-joins, and the map is never paid for.
  std::vector<std::unordered_map<Gid, std::vector<uint32_t>>> scopes_of_gid_;

  // Semi-naive frontier state, reused across rounds and IncDeduce calls
  // (chunked stores and hash tables keep their storage through Clear).
  DeltaStore inc_frontier_;
  DeltaStore inc_next_;
  std::unordered_set<uint64_t> inc_seen_;      // fact keys re-joined this call
  std::unordered_set<uint64_t> inc_bindings_;  // (rule, scope, seeds), per round
  std::vector<IncTask> inc_tasks_;
  // Per rule: feasibility of each scope for this call; 0 unknown,
  // 1 feasible, -1 infeasible.
  std::vector<std::vector<int8_t>> inc_feasible_;
};

}  // namespace dcer

#endif  // DCER_CHASE_DEDUCE_H_
