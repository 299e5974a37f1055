#ifndef DCER_ML_CANDIDATE_INDEX_H_
#define DCER_ML_CANDIDATE_INDEX_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ml/profile.h"
#include "relational/value.h"

namespace dcer {

/// Fills *out (cleared first) with the ML attribute values of `row`.
/// Decouples index construction from the chase's view/relation types.
using RowValuesFn = std::function<void(uint32_t row, std::vector<Value>*)>;

/// Pool intern id of `row`'s ML-side text (ProfileStore::kNpos for a NULL
/// cell). Only installed when the side is a single string attribute — the
/// shape whose ConcatValueText equals the pool string byte for byte.
using RowInternFn = std::function<uint32_t(uint32_t row)>;

/// Optional precomputed-profile backing for an index build: when present,
/// build and probe read token ids / q-gram sketches / lengths straight from
/// the store instead of re-tokenizing row text. Probe results are identical
/// either way (same candidate sets, not merely equivalent supersets), so
/// enabling profiles can never perturb join counters or Γ.
struct ProfileSource {
  const ProfileStore* store = nullptr;
  RowInternFn intern_of;
};

/// Similarity index over one side of an ML predicate: built once per
/// (classifier, relation fragment, attribute vector), probed with the other
/// side's values. Probe returns candidate rows sorted ascending, each row at
/// most once. Exact indices guarantee every row scoring >= the classifier's
/// threshold is returned; the join still verifies each survivor with the
/// real classifier, so false positives only cost time, never correctness.
///
/// Thread-safety: building and Add() mutate; Probe() is const and safe to
/// call concurrently (implementations keep scratch in thread-local storage).
/// Each index belongs to one engine's DatasetIndex, which builds it lazily
/// on the engine's thread.
class MlCandidateIndex {
 public:
  virtual ~MlCandidateIndex() = default;

  /// Appends the candidate rows for `query` (the other side's attribute
  /// values) into *out. *out is cleared first; rows come back sorted.
  virtual void Probe(const std::vector<Value>& query,
                     std::vector<uint32_t>* out) const = 0;

  /// Registers a newly appended row (incremental ΔD, DMatch supersteps).
  virtual void Add(uint32_t row, const std::vector<Value>& values) = 0;

  size_t num_rows() const { return num_rows_; }

 protected:
  size_t num_rows_ = 0;
};

/// Concatenation of an ML predicate side's values into the exact text the
/// string classifiers score — shared between classifiers and their indices
/// so the pruning bound and the verified score never diverge.
std::string ConcatValueText(const std::vector<Value>& values);

/// Zero-copy variant of ConcatValueText: when the side is a single non-NULL
/// string value (the common ML shape), returns a view straight into the
/// dataset's interning arena; otherwise materializes into *scratch and views
/// that. The bytes are identical to ConcatValueText in every case.
std::string_view ConcatValueView(const std::vector<Value>& values,
                                 std::string* scratch);

/// PPJoin-style token index for TokenJaccardClassifier: whitespace tokens
/// (case-insensitive, set semantics), global rare-first token order, prefix
/// filtering (a row is indexed only under the first |x| - ceil(t*|x|) + 1 of
/// its ordered tokens) and length filtering (t*|y| <= |x| <= |y|/t).
class TokenJaccardIndex : public MlCandidateIndex {
 public:
  TokenJaccardIndex(double threshold, const std::vector<uint32_t>& rows,
                    const RowValuesFn& fill,
                    const ProfileSource* profiles = nullptr);

  void Probe(const std::vector<Value>& query,
             std::vector<uint32_t>* out) const override;
  void Add(uint32_t row, const std::vector<Value>& values) override;

 private:
  /// Rank sentinel: the token is in the (shared) dictionary but appears in
  /// no indexed row — the probe treats it exactly like an unseen token.
  static constexpr uint32_t kUnranked = 0xffffffffu;

  struct RowEntry {
    uint32_t row;
    uint32_t num_tokens;
  };

  void IndexRow(uint32_t row, const std::vector<uint32_t>& token_ids);
  size_t PrefixLength(size_t set_size) const;
  uint32_t RankOf(uint32_t token_id) const {
    return token_id < rank_of_token_.size() ? rank_of_token_[token_id]
                                            : kUnranked;
  }
  // Token ids + total unique-token count of a probe query; profile-backed
  // when the query is one interned, profiled string.
  void QueryTokenIds(const std::vector<Value>& query,
                     std::vector<uint32_t>* ids, size_t* ny) const;

  double threshold_;
  // Token interning. With a ProfileSource the dictionary is the store's
  // (ids shared dataset-wide, token_ids_ unused); otherwise it is private.
  // Either way the global prefix order is rare-first by (build-time df,
  // token text) and frozen at build; tokens first ranked by later Adds are
  // appended after every build token, so already-indexed prefixes stay valid.
  const ProfileStore* profiles_ = nullptr;
  RowInternFn intern_of_;
  std::unordered_map<std::string, uint32_t> token_ids_;
  std::vector<uint32_t> rank_of_token_;  // token id -> position in the order
  uint32_t next_rank_ = 0;               // ranks handed out so far
  // token id -> rows indexed under it (prefix positions only).
  std::unordered_map<uint32_t, std::vector<RowEntry>> postings_;
  std::vector<uint32_t> empty_rows_;  // rows with no tokens (score 1 vs empty)
};

/// Q-gram index for EditSimilarityClassifier. Edit similarity
/// 1 - d/max(|a|,|b|) >= t bounds the distance by k = floor((1-t)*max), so
/// candidates must (i) have length in [ceil(t*|a|), floor(|a|/t)] and
/// (ii) share at least max(|a|,|b|) - q + 1 - k*q q-grams with the query
/// (each edit destroys at most q grams). Rows failing either are pruned.
class QGramEditIndex : public MlCandidateIndex {
 public:
  QGramEditIndex(double threshold, const std::vector<uint32_t>& rows,
                 const RowValuesFn& fill, size_t q = 2,
                 const ProfileSource* profiles = nullptr);

  void Probe(const std::vector<Value>& query,
             std::vector<uint32_t>* out) const override;
  void Add(uint32_t row, const std::vector<Value>& values) override;

 private:
  struct Posting {
    uint32_t row;
    uint32_t count;  // multiplicity of the gram in the row's text
  };

  void IndexRow(uint32_t row, std::string_view text);
  // Profile-backed IndexRow: the store already holds the row's sorted RLE
  // gram sketch, so indexing is a copy instead of a hash-sort pass.
  void IndexRowProfile(uint32_t row, const ProfileStore::Profile& p);
  bool TryIndexRowProfile(uint32_t row);

  double threshold_;
  size_t q_;
  const ProfileStore* profiles_ = nullptr;
  RowInternFn intern_of_;
  std::unordered_map<uint64_t, std::vector<Posting>> postings_;
  // (length, row) sorted by length: the probe walks the feasible window.
  std::vector<std::pair<uint32_t, uint32_t>> rows_by_len_;
  bool len_sorted_ = true;
  // Largest indexed row id, maintained on insert so a probe can size its
  // stamp counter without rescanning rows_by_len_ (probes are O(n) in the
  // dataset otherwise — quadratic across a self-join's probe loop).
  uint32_t max_row_ = 0;
};

}  // namespace dcer

#endif  // DCER_ML_CANDIDATE_INDEX_H_
