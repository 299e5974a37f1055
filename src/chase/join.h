#ifndef DCER_CHASE_JOIN_H_
#define DCER_CHASE_JOIN_H_

#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "chase/inverted_index.h"
#include "chase/match_context.h"
#include "common/bitmap.h"
#include "ml/registry.h"
#include "rules/rule.h"

namespace dcer {

/// Key identifying the (ml_id, side-signature pair) class of an ML
/// predicate or fact. Unordered over the sides, like Fact::Key.
uint64_t MlClassKey(int ml_id, uint64_t lhs_sig, uint64_t rhs_sig);

/// The ML fact classes derivable by some rule's ML consequence. Predicates
/// in this set must NOT be index-pruned: their facts can enter the validated
/// set later (dependency firing, cross-worker exchange), so a
/// classifier-false valuation today is not a never-true valuation.
std::unordered_set<uint64_t> DerivableMlKeys(const RuleSet& rules);

/// The ML fact classes some rule's precondition reads. A validated fact of
/// any other class satisfies no precondition and fires no dependency: it
/// only belongs to Γ.
std::unordered_set<uint64_t> ReadMlKeys(const RuleSet& rules);

/// Policy for similarity-index candidate generation on ML predicates
/// (Sec. V-A extended to ML predicates: instead of enumerating the cross
/// product and post-filtering with the classifier, a bound side probes a
/// candidate index over the unbound side's relation).
struct MlIndexPolicy {
  /// Master switch (MatchOptions::ml_index).
  bool enabled = false;
  /// DerivableMlKeys of the rule set; shared across every joiner of a chase
  /// (including the transient per-shard joiners of parallel enumeration).
  std::shared_ptr<const std::unordered_set<uint64_t>> derivable;
};

/// Per-joiner work counters: plain integers, no atomics — each joiner is
/// owned by one thread, and the parallel Deduce merges shard counters in
/// shard order, so every field is deterministic under any thread count.
struct JoinCounters {
  uint64_t valuations_checked = 0;  // leaf valuations inspected
  uint64_t candidates_probed = 0;   // candidate rows iterated by the join
  uint64_t ml_probes = 0;           // ML candidate-index probes issued
  uint64_t ml_probe_candidates = 0;  // rows those probes produced (after
                                     // multi-probe intersection)

  JoinCounters& operator+=(const JoinCounters& o) {
    valuations_checked += o.valuations_checked;
    candidates_probed += o.candidates_probed;
    ml_probes += o.ml_probes;
    ml_probe_candidates += o.ml_probe_candidates;
    return *this;
  }
  JoinCounters operator-(const JoinCounters& o) const {
    JoinCounters d = *this;
    d.valuations_checked -= o.valuations_checked;
    d.candidates_probed -= o.candidates_probed;
    d.ml_probes -= o.ml_probes;
    d.ml_probe_candidates -= o.ml_probe_candidates;
    return d;
  }
};

/// Enumerates the valuations h of a rule in a dataset view (Sec. II
/// "Semantics"). Equality and constant predicates are enforced during the
/// backtracking join via inverted indices; id and ML predicates are
/// evaluated at the leaves against the current Γ (id: equivalence check;
/// ML: validated-set lookup, then the cached classifier).
///
/// The variable binding order is a pure function of which variables are
/// already bound (most constrained first, smallest relation as tie-break),
/// so it is precomputed per seeded-variable set — once in the constructor
/// for plain Enumerate — into a BindPlan that also carries each step's
/// cross-equality constraints. Backtracking then does no per-node scans.
///
/// The callback receives the complete binding (one row per tuple variable)
/// and the indices of the precondition id/ML predicates that do NOT yet
/// hold; an empty list means h ⊨ X. Returning false stops enumeration.
///
/// A joiner over one Hypercube cell of a DMatch worker is given `roles`:
/// one row bitmap per tuple variable (RuleBlock::roles). Variable q is
/// then bound only to rows in roles[q] — checked before a candidate run is
/// scored or iterated, and on every seed — so each valuation is enumerated
/// in exactly one cell. Joiners over a whole view pass no roles.
///
/// An id rule `... -> t.id = s.id` whose distinct variables t and s range
/// over one relation deduces nothing when both bind the same tuple, so the
/// joiner never enumerates such a valuation: once one of t, s is bound, the
/// other's candidates lose that row (before any ML kernel scores it), and a
/// seed binding both to one row yields nothing. The surviving valuations
/// keep their order. ML-consequence rules are enumerated in full.
class RuleJoiner {
 public:
  using Callback = std::function<bool(const std::vector<uint32_t>& rows,
                                      const std::vector<int>& unsat)>;

  /// `roles` is empty or holds one bitmap per tuple variable; it must
  /// outlive the joiner.
  RuleJoiner(DatasetIndex* index, const Rule* rule, const MlRegistry* registry,
             const MatchContext* ctx, std::span<const Bitmap> roles = {});

  /// Enumerates all valuations.
  void Enumerate(const Callback& cb);

  /// Number of candidate rows of the root variable (the first in the
  /// precomputed binding order) after its constant-predicate index lookups.
  /// Pure function of the rule and view; used to size parallel shards.
  size_t RootCandidateCount();

  /// Enumerates only the valuations that extend root candidates with index
  /// in [begin, end): shard `s` of a partition of [0, RootCandidateCount())
  /// sees exactly the contiguous slice Enumerate would visit `s`-th, so
  /// concatenating shard outputs in shard order reproduces Enumerate's
  /// sequence. Used by the parallel Deduce, one private joiner per shard.
  void EnumerateRange(size_t begin, size_t end, const Callback& cb);

  /// Enumerates valuations with the given variables pre-bound (update-driven
  /// re-joins of IncDeduce). Seed rows must be rows of the view's relations;
  /// seeds violating the rule's constant/self-equality predicates yield
  /// nothing.
  void EnumerateSeeded(std::span<const std::pair<int, uint32_t>> seeds,
                       const Callback& cb);

  /// Re-evaluates leaf precondition `pred_index` (an id/ML predicate of this
  /// rule) under explicit rows against the *current* context. The parallel
  /// Deduce merge uses this to drop unsat entries that earlier merged facts
  /// have satisfied since the shard snapshot.
  bool LeafHolds(int pred_index, const std::vector<uint32_t>& rows);

  /// Builds every inverted index this rule's enumeration can touch, so that
  /// concurrent shard enumerations only ever read the shared DatasetIndex.
  /// Includes the ML candidate indices of prunable predicates.
  void PrewarmIndexes();

  /// Enables/disables ML candidate generation and recomputes the binding
  /// plans (prunable ML predicates count as join links, so they change both
  /// variable order and per-step candidate sources). Must be called before
  /// enumeration; joiners default to no ML indexing.
  void ConfigureMlIndex(MlIndexPolicy policy);

  /// Switches leaf id-checks to the compression-free MatchContext read path,
  /// which is safe for concurrent readers of a frozen context. Set on the
  /// private per-shard joiners of the parallel Deduce.
  void set_shared_context_reads(bool shared) {
    shared_context_reads_ = shared;
  }

  /// Leaf valuations inspected (the paper's computation-cost metric).
  uint64_t valuations_checked() const { return counters_.valuations_checked; }

  /// All work counters; callers diff before/after an enumeration.
  const JoinCounters& counters() const { return counters_; }

  /// Computes the ML fact for precondition/consequence predicate `p` under
  /// `rows`, evaluating nothing. Exposed for Deduce's consequence handling.
  Fact MlFactFor(const Predicate& p, const std::vector<uint32_t>& rows) const;

  /// Gathers the attribute-value vector of an ML predicate side.
  std::vector<Value> MlValues(int var, const std::vector<int>& attrs,
                              uint32_t row) const;

 private:
  // Candidate constraint on the next variable: attr's cell must have
  // equality code `code` (interned string id / int bits / canonical double
  // bits — see Column::code_at), which is EqJoinable equality in O(1).
  // `never` marks constraints no row can satisfy (NULL or NaN bound cell,
  // incompatible types, string constant absent from the pool): the whole
  // candidate set is empty.
  struct Constraint {
    int attr;
    uint64_t code;
    bool never;
  };

  // One step of a binding order: the variable bound at this depth, the
  // cross-equalities linking it to variables bound earlier (or seeded), and
  // the prunable ML predicates whose other side is already bound (candidate
  // generation through a similarity index).
  struct BindStep {
    int var;
    struct CrossDep {
      int my_attr;
      int other_var;
      int other_attr;
    };
    struct MlDep {
      const Predicate* pred;
      int other_var;   // the already-bound side
      bool probe_lhs;  // true: step.var is pred->lhs, probe the lhs index
      // Lazily resolved candidate index, revalidated per probe against the
      // DatasetIndex's ml_generation and the classifier's current threshold
      // (either can invalidate — a rebuild destroys the pointed-to index).
      // cached_gen == 0 means unresolved. mutable: plans are logically
      // const after construction, and each joiner (scope or shard) is owned
      // by one thread, so the cache never races.
      mutable const MlCandidateIndex* cached = nullptr;
      mutable uint64_t cached_gen = 0;
      mutable double cached_threshold = 0;
    };
    std::vector<CrossDep> deps;
    std::vector<MlDep> ml_deps;
  };
  using BindPlan = std::vector<BindStep>;

  void Backtrack(const Callback& cb, bool* stop);
  // Iterates rows [lo, hi) of `candidates` for `var` (already marked bound),
  // checking the non-lookup constraints and self-equalities, and recurses.
  void ForRows(const std::vector<uint32_t>& candidates, size_t lo, size_t hi,
               int var, const std::vector<Constraint>& constraints,
               size_t lookup_used, const Callback& cb, bool* stop);
  // Candidate rows for binding `var` at `depth`: the shortest posting list
  // among its constraints, or a full scan. nullptr when a NULL-valued
  // constraint empties the candidate set. Fills *constraints (backed by
  // per-depth scratch) and *lookup_used (index of the constraint the chosen
  // posting list already enforces; constraints.size() if none).
  const std::vector<uint32_t>* CandidatesFor(const BindStep& step,
                                             size_t depth,
                                             std::vector<Constraint>** out,
                                             size_t* lookup_used);
  // Probes the ML candidate indices of step.ml_deps (intersecting when there
  // are several) into per-depth scratch. nullptr when no index exists, in
  // which case the caller keeps the full scan.
  const std::vector<uint32_t>* ProbeMlCandidates(const BindStep& step,
                                                 size_t depth);
  // One-vs-many ML evaluation (the vectorized similarity engine's join hook):
  // when `var` is the last unbound variable and rows [lo, hi) of `candidates`
  // all reach the leaf unfiltered, every ML precondition pairing `var` with a
  // bound single-string side is evaluated in blocks through the profile batch
  // kernels, and the verdicts are seeded into the prediction cache the leaf's
  // EvalIdOrMl reads. Pure cache warming: kernels are bit-identical to
  // Predict and the cache is lossy by design, so enumeration results never
  // depend on it.
  void BatchFillMlPredictions(int var, const std::vector<uint32_t>& candidates,
                              size_t lo, size_t hi);
  int PickNextVar(uint64_t bound_mask) const;
  const BindPlan& PlanFor(uint64_t seeded_mask);
  bool RowSatisfiesLocalPreds(int var, uint32_t row) const;
  bool CheckLeaf(const Callback& cb);
  bool EvalIdOrMl(int pred_index, const std::vector<uint32_t>& rows) const;
  void FillMlValues(int var, const std::vector<int>& attrs, uint32_t row,
                    std::vector<Value>* out) const;
  Gid GidOf(int var, uint32_t row) const;

  DatasetIndex* index_;
  const Rule* rule_;
  const MlRegistry* registry_;
  const MatchContext* ctx_;
  std::span<const Bitmap> roles_;  // [var]; empty = every row of the view

  // Per-variable predicate buckets, precomputed once.
  std::vector<std::vector<const Predicate*>> const_preds_;   // t.A = c
  std::vector<std::vector<const Predicate*>> self_eqs_;      // t.A = t.B
  std::vector<const Predicate*> cross_eqs_;                  // t.A = s.B
  std::vector<int> leaf_preds_;  // indices of id/ML preconditions
  // [var]: the other variable of a `t.id = s.id` consequence over one
  // relation (never bound to var's row), or -1.
  std::vector<int> distinct_partner_;

  // ML candidate generation (ConfigureMlIndex). ml_prunable_[i] is set for
  // precondition i iff it is an ML predicate whose classifier can index,
  // whose facts no rule can derive (see DerivableMlKeys), and whose index
  // kind the policy accepts. Pruning such a predicate is sound: its facts
  // can never enter the validated set, so a valuation it fails under the
  // classifier today can never fire later.
  MlIndexPolicy ml_policy_;
  std::vector<char> ml_prunable_;

  // Binding plans: root_plan_ serves Enumerate; seeded enumerations memoize
  // per seeded-variable bitmask (rules have ≤ 64 variables).
  BindPlan root_plan_;
  std::unordered_map<uint64_t, BindPlan> plan_cache_;
  const BindPlan* active_plan_ = nullptr;
  size_t plan_base_ = 0;  // variables pre-bound before the plan's steps

  // Backtracking state.
  std::vector<uint32_t> binding_;
  std::vector<bool> bound_;
  size_t num_bound_ = 0;
  JoinCounters counters_;
  bool shared_context_reads_ = false;

  // Hot-path scratch, reused across nodes/leaves to avoid allocation.
  std::vector<std::vector<Constraint>> constraint_scratch_;  // per depth
  std::vector<std::vector<uint32_t>> ml_probe_scratch_;      // per depth
  std::vector<std::vector<uint32_t>> role_scratch_;          // per variable
  std::vector<uint32_t> ml_tmp_scratch_;
  std::vector<uint32_t> ml_isect_scratch_;
  std::vector<int> unsat_scratch_;
  std::vector<uint32_t> batch_ids_;    // candidate pool ids per block
  std::vector<uint64_t> batch_keys_;   // their prediction-cache pair keys
  std::vector<uint8_t> batch_preds_;   // kernel verdicts
  std::vector<uint32_t> batch_rows_;   // their rows of the scored variable
  // Verdicts the batch kernels produced in the ForRows loop in progress:
  // batch_scored_[i][row] == batch_gen_ << 1 | verdict iff precondition i
  // was scored for `row` of variable batch_var_[i]. They were counted as
  // predictions; the leaf reads the verdict here, as the same evaluation,
  // without a cache probe that would count a hit (or, had the lossy cache
  // dropped the insert, a second prediction). Bumping batch_gen_ at the end
  // of the loop forgets them all at once.
  static constexpr uint32_t kBatchGenLimit = uint32_t{1} << 31;
  mutable std::vector<std::vector<uint32_t>> batch_scored_;
  std::vector<int> batch_var_;
  uint32_t batch_gen_ = 1;
  mutable std::vector<Value> ml_scratch_a_;
  mutable std::vector<Value> ml_scratch_b_;
};

}  // namespace dcer

#endif  // DCER_CHASE_JOIN_H_
