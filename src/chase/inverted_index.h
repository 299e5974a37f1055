#ifndef DCER_CHASE_INVERTED_INDEX_H_
#define DCER_CHASE_INVERTED_INDEX_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "chase/view.h"
#include "ml/classifier.h"

namespace dcer {

/// Computes the equality-preserving lookup code of `v` against column
/// (rel, attr): the code some row's cell would have iff it EqJoinable-equals
/// `v`. Returns false when no row can match — `v` is NULL or NaN, its type
/// differs from the column's, or it is a string absent from the dataset's
/// interning pool (an O(1) whole-column rejection). `v` must not be an
/// interned reference into a *different* dataset's pool.
bool EqLookupCode(const Relation& rel, size_t attr, const Value& v,
                  uint64_t* code);

/// True (and *code set) iff the cell (row, attr) can satisfy an equality
/// predicate at all: non-NULL and, for doubles, non-NaN. Code equality of
/// two joinable cells of equal column type is exactly EqJoinable of their
/// Values — the id == id fast path of the columnar layout.
bool JoinableCellCode(const Relation& rel, uint32_t row, size_t attr,
                      uint64_t* code);

/// Lazily-built inverted indices value -> rows for the equality predicates
/// of Sec. V-A (1). One DatasetIndex is shared by all rules — that sharing
/// is part of the MQO optimization; the noMQO ablation rebuilds an index per
/// rule instead (Fig. 6(e)-(h)).
class DatasetIndex {
 public:
  /// `profiles` is the dataset's profile store (DatasetProfiles::store());
  /// nullptr keeps every ML path on the text kernels.
  explicit DatasetIndex(const DatasetView* view,
                        const ProfileStore* profiles = nullptr)
      : view_(view), profiles_(profiles) {}

  DatasetIndex(const DatasetIndex&) = delete;
  DatasetIndex& operator=(const DatasetIndex&) = delete;

  const DatasetView& view() const { return *view_; }

  /// Rows of relation `rel` (in the view) whose attribute `attr` equals `v`.
  /// Builds the (rel, attr) index on first use.
  const std::vector<uint32_t>& Lookup(size_t rel, size_t attr, const Value& v);

  /// Lookup by precomputed equality code (EqLookupCode/JoinableCellCode);
  /// skips the per-call Value inspection on the joiner's hot path.
  const std::vector<uint32_t>& LookupCode(size_t rel, size_t attr,
                                          uint64_t code);

  /// Number of (relation, attribute) indices built so far (MQO metric).
  size_t num_indices_built() const { return num_built_; }

  /// Builds the (rel, attr) index now if absent. Lookup mutates this object
  /// on first use of an index; pre-building every index an enumeration can
  /// touch makes subsequent concurrent Lookups read-only and thus safe to
  /// issue from parallel shard tasks.
  void EnsureBuilt(size_t rel, size_t attr) { GetOrBuild(rel, attr); }

  /// Registers a row newly appended to the view in every already-built
  /// index of its relation (incremental ER over updates ΔD). The caller
  /// must have added the row to the view, and profiled its ML cells
  /// (DatasetProfiles::NotifyAppend), first: profiled ML indices read the
  /// new row's profile.
  void NotifyAppend(size_t rel, uint32_t row);

  /// The dataset-wide profile store, or nullptr when disabled — the single
  /// gate every profiled fast path checks. Read-only here: its owner keeps
  /// it covering every string of the ML columns.
  const ProfileStore* profiles() const { return profiles_; }

  /// Candidate index over one side of an ML predicate: all rows of `rel` in
  /// this view, keyed by their `attrs` values, filterable at the
  /// classifier's threshold. Built on first use and shared across rules
  /// probing the same (classifier, relation, attributes) side — the ML
  /// analogue of the MQO-shared equality indices above. Rebuilt if the
  /// classifier's threshold changed since construction. Returns nullptr when
  /// the classifier cannot index (MlClassifier::candidate_indexable()).
  const MlCandidateIndex* GetOrBuildMl(const MlClassifier& classifier,
                                       int ml_id, size_t rel,
                                       const std::vector<int>& attrs);

  /// GetOrBuildMl for its side effect (see EnsureBuilt: prewarming makes
  /// concurrent Probe calls from enumeration shards read-only).
  void EnsureMlBuilt(const MlClassifier& classifier, int ml_id, size_t rel,
                     const std::vector<int>& attrs) {
    GetOrBuildMl(classifier, ml_id, rel, attrs);
  }

  /// Number of ML candidate indices built so far (includes rebuilds).
  size_t num_ml_indices_built() const { return num_ml_built_; }

  /// Monotone generation of the ML index map: advances exactly when an ML
  /// candidate index is (re)built — the only event that can destroy a
  /// previously returned index pointer (threshold rebuilds replace the
  /// entry; NotifyAppend updates indices in place). Joiners cache resolved
  /// GetOrBuildMl results against this, skipping the per-probe hash find
  /// and staleness check. Never 0, so callers can use 0 as "unset".
  uint64_t ml_generation() const {
    return static_cast<uint64_t>(num_ml_built_) + 1;
  }

 private:
  // Posting lists keyed by equality code (interned string id / int bits /
  // canonicalized double bits), built from one columnar slice. CodeHash
  // (common/hash.h) mixes the dense ids.
  using AttrIndex =
      std::unordered_map<uint64_t, std::vector<uint32_t>, CodeHash>;

  const AttrIndex& GetOrBuild(size_t rel, size_t attr);

  struct MlIndexEntry {
    std::unique_ptr<MlCandidateIndex> index;
    size_t rel;
    std::vector<int> attrs;       // for NotifyAppend value extraction
    double build_threshold;       // staleness check (set_threshold)
  };

  const DatasetView* view_;
  // Precomputed string profiles (token ids, gram sketches, lengths) read by
  // every profiled ML index and the join's batch evaluator; one store per
  // dataset, shared by all indices of all engines over it.
  const ProfileStore* profiles_;
  // (rel, attr) -> index; keyed densely: rel * max_attrs + attr is avoided in
  // favor of a map keyed by pair packed into uint64.
  std::unordered_map<uint64_t, std::unique_ptr<AttrIndex>> indices_;
  // HashCombine(ml_id, MlSideSignature(rel, attrs)) -> candidate index.
  std::unordered_map<uint64_t, MlIndexEntry> ml_indices_;
  size_t num_built_ = 0;
  size_t num_ml_built_ = 0;
  const std::vector<uint32_t> empty_;
};

}  // namespace dcer

#endif  // DCER_CHASE_INVERTED_INDEX_H_
