#include "ml/profile.h"

#include <algorithm>
#include <string>

#include "common/hash.h"
#include "common/string_util.h"
#include "ml/similarity.h"
#include "ml/simd.h"

namespace dcer {

namespace {

// Myers' bit-parallel pattern state, hoisted out of the candidate loop: the
// peq table depends only on the probe, so a one-vs-many batch builds it once
// and streams every candidate through it. The column loop below replays
// common/string_util.cc's EditDistance kernel (same recurrence, same
// early-exit bound), so the returned integers are identical.
struct MyersPattern {
  uint64_t peq[256];
  size_t n = 0;
  uint64_t high = 0;

  void Build(std::string_view a) {
    std::fill(std::begin(peq), std::end(peq), 0);
    n = a.size();
    for (size_t i = 0; i < n; ++i) {
      peq[static_cast<unsigned char>(a[i])] |= uint64_t{1} << i;
    }
    high = n == 0 ? 0 : uint64_t{1} << (n - 1);
  }
};

// Exact Levenshtein distance of the pattern vs `b` (1 <= pattern length
// <= 64, any |b|); with bound >= 0, returns bound+1 as soon as the distance
// provably exceeds it.
size_t MyersDistance(const MyersPattern& p, std::string_view b, int bound) {
  const size_t m = b.size();
  uint64_t pv = ~uint64_t{0};
  uint64_t mv = 0;
  size_t score = p.n;
  for (size_t j = 0; j < m; ++j) {
    const uint64_t eq = p.peq[static_cast<unsigned char>(b[j])];
    const uint64_t xv = eq | mv;
    const uint64_t xh = (((eq & pv) + pv) ^ pv) | eq;
    uint64_t ph = mv | ~(xh | pv);
    uint64_t mh = pv & xh;
    if (ph & p.high) {
      ++score;
    } else if (mh & p.high) {
      --score;
    }
    if (bound >= 0 && score > static_cast<size_t>(bound) + (m - 1 - j)) {
      return static_cast<size_t>(bound) + 1;
    }
    ph = (ph << 1) | 1;
    mh <<= 1;
    pv = mh | ~(xv | ph);
    mv = ph & xv;
  }
  if (bound >= 0 && score > static_cast<size_t>(bound)) {
    return static_cast<size_t>(bound) + 1;
  }
  return score;
}

}  // namespace

ProfileStore::ProfileStore(const StringPool* pool, size_t q)
    : pool_(pool), q_(q) {}

void ProfileStore::Sync() {
  std::vector<uint32_t> ids;
  for (uint32_t id = 0; id < pool_->size(); ++id) {
    if (Find(id) == nullptr) ids.push_back(id);
  }
  Add(ids);
}

void ProfileStore::Add(std::span<const uint32_t> ids) {
  if (slot_of_.size() < pool_->size()) slot_of_.resize(pool_->size(), kNpos);
  std::vector<uint32_t> tok_ids;
  std::vector<uint64_t> grams;
  std::string lower;
  std::vector<std::string_view> toks;
  for (const uint32_t id : ids) {
    if (id == kNpos || slot_of_[id] != kNpos) continue;
    slot_of_[id] = static_cast<uint32_t>(profiles_.size());
    const std::string_view text = pool_->view(id);
    Profile p;
    p.byte_len = static_cast<uint32_t>(text.size());

    // Token set: TokenJaccard's semantics, interned into the shared
    // dictionary and stored sorted by id so two profiles intersect with one
    // sorted-uint32 merge. The view-based tokenizer reuses the scratch
    // buffers across the whole build instead of allocating per token.
    tok_ids.clear();
    ml_text::UniqueTokenViewsLower(text, &lower, &toks);
    for (const std::string_view tok : toks) {
      tok_ids.push_back(token_dict_.Intern(tok));
    }
    std::sort(tok_ids.begin(), tok_ids.end());
    p.tok_begin = static_cast<uint32_t>(token_arena_.size());
    p.tok_count = static_cast<uint32_t>(tok_ids.size());
    token_arena_.insert(token_arena_.end(), tok_ids.begin(), tok_ids.end());

    // Q-gram count sketch: candidate_index.cc's GramsOf, run-length encoded.
    grams.clear();
    if (text.size() >= q_) {
      for (size_t i = 0; i + q_ <= text.size(); ++i) {
        grams.push_back(Fnv1a64(text.data() + i, q_, q_));
      }
      std::sort(grams.begin(), grams.end());
    }
    p.gram_begin = static_cast<uint32_t>(gram_hash_arena_.size());
    p.gram_total = static_cast<uint32_t>(grams.size());
    for (size_t i = 0; i < grams.size();) {
      size_t j = i;
      while (j < grams.size() && grams[j] == grams[i]) ++j;
      gram_hash_arena_.push_back(grams[i]);
      gram_count_arena_.push_back(static_cast<uint32_t>(j - i));
      i = j;
    }
    p.gram_count =
        static_cast<uint32_t>(gram_hash_arena_.size()) - p.gram_begin;
    profiles_.push_back(p);
  }
}

size_t ProfileStore::ByteSize() const {
  return slot_of_.capacity() * sizeof(uint32_t) +
         profiles_.capacity() * sizeof(Profile) +
         token_arena_.capacity() * sizeof(uint32_t) +
         gram_hash_arena_.capacity() * sizeof(uint64_t) +
         gram_count_arena_.capacity() * sizeof(uint32_t) +
         token_dict_.ByteSize();
}

// --- Batch kernels ----------------------------------------------------------

namespace {

// Empty-text profile stand-in for kNpos (NULL cells render as "").
struct ProbeTokens {
  const uint32_t* ids = nullptr;
  size_t count = 0;
};

ProbeTokens TokensOf(const ProfileStore& store, uint32_t id) {
  if (id == ProfileStore::kNpos) return {};
  const ProfileStore::Profile* p = store.Find(id);
  if (p == nullptr) return {};  // callers sync before batching
  return {store.tokens(*p), p->tok_count};
}

}  // namespace

void ScoreTokenJaccardBatch(const ProfileStore& store, uint32_t probe_id,
                            const uint32_t* cand_ids, size_t n, double* out) {
  const ProbeTokens a = TokensOf(store, probe_id);
  for (size_t i = 0; i < n; ++i) {
    const ProbeTokens b = TokensOf(store, cand_ids[i]);
    if (a.count == 0 && b.count == 0) {
      out[i] = 1.0;
      continue;
    }
    if (a.count == 0 || b.count == 0) {
      out[i] = 0.0;
      continue;
    }
    const size_t inter = simd::IntersectCountU32(a.ids, a.count, b.ids,
                                                 b.count);
    const size_t uni = a.count + b.count - inter;
    out[i] = static_cast<double>(inter) / static_cast<double>(uni);
  }
}

void PredictTokenJaccardBatch(const ProfileStore& store, uint32_t probe_id,
                              const uint32_t* cand_ids, size_t n,
                              double threshold, uint8_t* preds) {
  const ProbeTokens a = TokensOf(store, probe_id);
  for (size_t i = 0; i < n; ++i) {
    const ProbeTokens b = TokensOf(store, cand_ids[i]);
    if (a.count == 0 && b.count == 0) {
      preds[i] = 1.0 >= threshold;
      continue;
    }
    if (a.count == 0 || b.count == 0) {
      preds[i] = 0.0 >= threshold;
      continue;
    }
    // Size prune: the score is at most min/max (reals), and rounding is
    // monotone, so a failing upper bound proves the exact double fails too.
    const size_t mn = std::min(a.count, b.count);
    const size_t mx = std::max(a.count, b.count);
    if (static_cast<double>(mn) / static_cast<double>(mx) < threshold) {
      preds[i] = 0;
      continue;
    }
    const size_t inter = simd::IntersectCountU32(a.ids, a.count, b.ids,
                                                 b.count);
    const size_t uni = a.count + b.count - inter;
    preds[i] =
        static_cast<double>(inter) / static_cast<double>(uni) >= threshold;
  }
}

void ScoreEditSimilarityBatch(const ProfileStore& store, uint32_t probe_id,
                              const uint32_t* cand_ids, size_t n,
                              double* out) {
  const std::string_view a =
      probe_id == ProfileStore::kNpos ? std::string_view() : store.text(probe_id);
  MyersPattern pattern;
  const bool hoist = !a.empty() && a.size() <= 64;
  if (hoist) pattern.Build(a);
  for (size_t i = 0; i < n; ++i) {
    const std::string_view b = cand_ids[i] == ProfileStore::kNpos
                                   ? std::string_view()
                                   : store.text(cand_ids[i]);
    if (a.empty() && b.empty()) {
      out[i] = 1.0;
      continue;
    }
    const size_t d = hoist ? MyersDistance(pattern, b, /*bound=*/-1)
                           : EditDistance(a, b);
    const size_t m = std::max(a.size(), b.size());
    out[i] = 1.0 - static_cast<double>(d) / static_cast<double>(m);
  }
}

void PredictEditSimilarityBatch(const ProfileStore& store, uint32_t probe_id,
                                const uint32_t* cand_ids, size_t n,
                                double threshold, uint8_t* preds) {
  const ProfileStore::Profile* ap =
      probe_id == ProfileStore::kNpos ? nullptr : store.Find(probe_id);
  const std::string_view a =
      probe_id == ProfileStore::kNpos ? std::string_view() : store.text(probe_id);
  const size_t la = a.size();
  const size_t q = store.q();
  MyersPattern pattern;
  const bool hoist = la >= 1 && la <= 64;
  if (hoist) pattern.Build(a);
  for (size_t i = 0; i < n; ++i) {
    const ProfileStore::Profile* bp = cand_ids[i] == ProfileStore::kNpos
                                          ? nullptr
                                          : store.Find(cand_ids[i]);
    const size_t lb = bp == nullptr ? 0 : bp->byte_len;
    if (la == 0 && lb == 0) {
      preds[i] = 1.0 >= threshold;
      continue;
    }
    const size_t m = std::max(la, lb);
    const size_t k = EditPassBound(m, threshold);
    if (k == kEditNoPass) {
      preds[i] = 0;
      continue;
    }
    // Length band: d >= ||a| - |b||, and k is the exact pass boundary.
    const size_t diff = la > lb ? la - lb : lb - la;
    if (diff > k) {
      preds[i] = 0;
      continue;
    }
    // Q-gram count filter (candidate_index.h's bound): distance <= k needs
    // at least m - q + 1 - k*q shared grams, counted with multiplicity.
    const int64_t gram_bound = static_cast<int64_t>(m) -
                               static_cast<int64_t>(q) + 1 -
                               static_cast<int64_t>(k * q);
    if (gram_bound > 0) {
      const uint64_t shared =
          (ap == nullptr || bp == nullptr)
              ? 0
              : simd::SharedMinCountU64(
                    store.gram_hashes(*ap), store.gram_counts(*ap),
                    ap->gram_count, store.gram_hashes(*bp),
                    store.gram_counts(*bp), bp->gram_count);
      if (shared < static_cast<uint64_t>(gram_bound)) {
        preds[i] = 0;
        continue;
      }
    }
    const std::string_view b =
        bp == nullptr ? std::string_view() : store.text(cand_ids[i]);
    const size_t d = hoist ? MyersDistance(pattern, b, static_cast<int>(k))
                           : EditDistance(a, b, static_cast<int>(k));
    preds[i] = d <= k;
  }
}

}  // namespace dcer
