#ifndef DCER_ML_PROFILE_H_
#define DCER_ML_PROFILE_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "relational/string_pool.h"

namespace dcer {

/// Precomputed similarity profiles of a Dataset's interned strings — the
/// vectorized similarity engine's data plane. One ProfileStore shadows one
/// StringPool, possibly sparsely: a profile is addressed by the pool id it
/// describes, so any columnar cell (Column::str_id) or interned Value finds
/// its profile in O(1) with no hashing, and ids never profiled have none.
/// Per profiled string the store holds, in append-only arenas:
///
///   - the sorted unique token-id set (token-dictionary ids, see below) —
///     TokenJaccard over two profiles is one sorted-uint32 intersection
///     (simd::IntersectCountU32) and a division, with no lowercasing,
///     tokenizing or sorting per call;
///   - the sorted q-gram count sketch (FNV hash + multiplicity, q = 2,
///     exactly candidate_index.cc's GramsOf) — the edit kernel's count
///     filter becomes a sorted-uint64 merge (simd::SharedMinCountU64);
///   - the byte length — the length band of the edit predicate.
///
/// Token ids come from a private interning dictionary (its own StringPool)
/// shared by every profile in the store; equal tokens anywhere in the
/// dataset get equal ids, so two profiles' token sets intersect by id.
/// Ids are assigned in first-seen order while profiling, so they depend on
/// which strings were profiled in which order; every consumer is invariant
/// under that order (intersections count matches, and the candidate indices
/// rank tokens by document frequency and text, never by id).
///
/// Concurrency contract: Sync()/Add() mutate and run only in the owner's
/// exclusive phases (see DatasetProfiles: before any engine over the
/// dataset runs, and between appends). Find()/tokens()/gram_*() are
/// read-only and safe from any number of concurrent readers — DMatch
/// workers and enumeration shards — while no mutation runs.
class ProfileStore {
 public:
  /// Sentinel intern id: "no string here" (NULL cell). Equals
  /// StringPool::kNpos; profiled kernels treat it as the empty text.
  static constexpr uint32_t kNpos = StringPool::kNpos;

  struct Profile {
    uint32_t tok_begin;   // into the token-id arena
    uint32_t tok_count;   // sorted unique token ids
    uint32_t gram_begin;  // into the gram arenas
    uint32_t gram_count;  // distinct gram hashes (RLE groups)
    uint32_t byte_len;    // pool string length in bytes
    uint32_t gram_total;  // Σ multiplicities = byte_len - q + 1 (0 if short)
  };

  explicit ProfileStore(const StringPool* pool, size_t q = 2);

  ProfileStore(const ProfileStore&) = delete;
  ProfileStore& operator=(const ProfileStore&) = delete;

  /// Profiles every pool string not profiled yet, in ascending pool-id
  /// order. Idempotent.
  void Sync();

  /// Profiles each of `ids` not profiled yet, in the given order (kNpos and
  /// repeats are skipped). Every other id must name a string of the pool.
  void Add(std::span<const uint32_t> ids);

  /// Number of pool strings profiled so far.
  size_t size() const { return profiles_.size(); }

  /// Profile of pool string `id`; nullptr when `id` is kNpos or has not
  /// been profiled.
  const Profile* Find(uint32_t id) const {
    if (id >= slot_of_.size() || slot_of_[id] == kNpos) return nullptr;
    return &profiles_[slot_of_[id]];
  }

  /// The profiled string's bytes (the pool's arena view).
  std::string_view text(uint32_t id) const { return pool_->view(id); }

  const uint32_t* tokens(const Profile& p) const {
    return token_arena_.data() + p.tok_begin;
  }
  const uint64_t* gram_hashes(const Profile& p) const {
    return gram_hash_arena_.data() + p.gram_begin;
  }
  const uint32_t* gram_counts(const Profile& p) const {
    return gram_count_arena_.data() + p.gram_begin;
  }

  /// Token-dictionary lookups for probes that arrive as raw text (sides that
  /// are not a single interned string). Find never inserts.
  uint32_t FindToken(std::string_view lower_token) const {
    return token_dict_.Find(lower_token);
  }
  std::string_view token_text(uint32_t token_id) const {
    return token_dict_.view(token_id);
  }
  size_t num_tokens() const { return token_dict_.size(); }

  size_t q() const { return q_; }

  /// Approximate arena footprint in bytes (bench accounting).
  size_t ByteSize() const;

 private:
  const StringPool* pool_;
  size_t q_;
  StringPool token_dict_;          // token text -> dense token id
  std::vector<uint32_t> slot_of_;  // pool id -> index into profiles_ / kNpos
  std::vector<Profile> profiles_;  // in profiling order
  std::vector<uint32_t> token_arena_;
  std::vector<uint64_t> gram_hash_arena_;
  std::vector<uint32_t> gram_count_arena_;
};

/// --- One-vs-many batch kernels ---------------------------------------------
///
/// Score one probe string against `n` candidate strings, all addressed by
/// pool intern id (kNpos = empty text, the NULL-cell rendering of
/// ConcatValueText). Every id must be covered by the store. Scores are
/// bit-identical to the pairwise kernels in ml/similarity.h: the integer
/// overlap counts are order-free and the final double arithmetic replays the
/// scalar kernels' exact operation sequence.

/// out[i] = TokenJaccard(text(probe_id), text(cand_ids[i])).
void ScoreTokenJaccardBatch(const ProfileStore& store, uint32_t probe_id,
                            const uint32_t* cand_ids, size_t n, double* out);

/// out[i] = EditSimilarity(text(probe_id), text(cand_ids[i])). Hoists the
/// probe's Myers bit-parallel pattern table across the whole batch when the
/// probe fits in one word (|probe| <= 64).
void ScoreEditSimilarityBatch(const ProfileStore& store, uint32_t probe_id,
                              const uint32_t* cand_ids, size_t n, double* out);

/// preds[i] = (TokenJaccard(...) >= threshold), bit-for-bit the boolean the
/// pairwise classifier computes, but pruned: candidates whose set sizes
/// already cap the score below the threshold are rejected without merging.
void PredictTokenJaccardBatch(const ProfileStore& store, uint32_t probe_id,
                              const uint32_t* cand_ids, size_t n,
                              double threshold, uint8_t* preds);

/// preds[i] = (EditSimilarity(...) >= threshold), exactly. Prunes through
/// EditPassBound: the length band and the q-gram count filter reject without
/// touching the DP, and survivors run the banded Myers kernel — all three
/// stages decide the same boolean the unbanded score comparison would.
void PredictEditSimilarityBatch(const ProfileStore& store, uint32_t probe_id,
                                const uint32_t* cand_ids, size_t n,
                                double threshold, uint8_t* preds);

}  // namespace dcer

#endif  // DCER_ML_PROFILE_H_
