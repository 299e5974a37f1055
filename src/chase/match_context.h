#ifndef DCER_CHASE_MATCH_CONTEXT_H_
#define DCER_CHASE_MATCH_CONTEXT_H_

#include <algorithm>
#include <memory>
#include <unordered_set>
#include <vector>

#include "chase/fact.h"
#include "chase/gamma_snapshot.h"
#include "chase/provenance.h"
#include "common/union_find.h"
#include "relational/dataset.h"

namespace dcer {

/// The evolving match set Γ of the chase (Sec. III-A): an equivalence
/// relation E_id over global tuple ids (initialized to the reflexive pairs)
/// plus the set of validated ML predictions. Each BSP worker owns one; the
/// sequential Match owns one for the whole dataset.
class MatchContext {
 public:
  explicit MatchContext(const Dataset& dataset)
      : dataset_(&dataset), eid_(dataset.num_tuples()) {}

  MatchContext(const MatchContext&) = delete;
  MatchContext& operator=(const MatchContext&) = delete;

  const Dataset& dataset() const { return *dataset_; }

  /// True iff (a.id, b.id) ∈ Γ (reflexive and transitive by construction).
  bool Matched(Gid a, Gid b) const { return eid_.Same(a, b); }

  /// True iff this ML prediction was validated by some rule's consequence.
  bool IsValidatedMl(uint64_t ml_key) const {
    return validated_ml_.count(ml_key) > 0;
  }

  /// Applies a fact. Returns true iff it was new; in that case appends the
  /// fact and (for id facts) every newly-equivalent concrete pair to *delta.
  bool Apply(const Fact& fact, Delta* delta);

  const UnionFind& eid() const { return eid_; }

  /// Extends E_id to cover tuples appended to the dataset after this
  /// context was created (incremental ER over updates).
  void GrowToDataset() { eid_.Grow(dataset_->num_tuples()); }

  /// All matched non-reflexive pairs (the deduced matches of Γ), sorted.
  /// O(|D| + |pairs|); used by evaluation and tests.
  std::vector<std::pair<Gid, Gid>> MatchedPairs() const;

  uint64_t num_matched_pairs() const { return eid_.NumMatchedPairs(); }
  size_t num_validated_ml() const { return validated_ml_.size(); }

  /// Sorted keys of every validated ML fact — a canonical form of the ML
  /// half of Γ, which determinism tests compare across execution modes.
  std::vector<uint64_t> ValidatedMlKeys() const {
    std::vector<uint64_t> keys(validated_ml_.begin(), validated_ml_.end());
    std::sort(keys.begin(), keys.end());
    return keys;
  }

  /// Freezes the current Γ into an immutable refcounted snapshot (see
  /// GammaSnapshot). Must be called between fixpoints — i.e. with no Apply
  /// in flight — which is exactly when the Resolver publishes. The returned
  /// snapshot is self-contained: it stays valid after this context mutates
  /// or dies.
  std::shared_ptr<const GammaSnapshot> MakeSnapshot(uint64_t version) const {
    return std::make_shared<GammaSnapshot>(eid_, validated_ml_, version);
  }

  void EnableProvenance() {
    if (!provenance_) provenance_ = std::make_unique<ProvenanceLog>();
  }
  ProvenanceLog* provenance() { return provenance_.get(); }
  const ProvenanceLog* provenance() const { return provenance_.get(); }

 private:
  const Dataset* dataset_;
  UnionFind eid_;
  std::unordered_set<uint64_t> validated_ml_;
  std::unique_ptr<ProvenanceLog> provenance_;
};

}  // namespace dcer

#endif  // DCER_CHASE_MATCH_CONTEXT_H_
