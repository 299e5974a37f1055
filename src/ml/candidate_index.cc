#include "ml/candidate_index.h"

#include <algorithm>
#include <cctype>
#include <cmath>

#include "common/hash.h"
#include "ml/similarity.h"

namespace dcer {

namespace {

// Epsilon used when converting real-valued similarity bounds to integer
// set-size / length / overlap bounds. Always applied in the direction that
// widens the candidate set, so floating-point rounding can only add false
// positives (filtered by the classifier), never drop a true match.
constexpr double kBoundEps = 1e-9;

size_t CeilBound(double x) {
  double c = std::ceil(x - kBoundEps);
  return c <= 0 ? 0 : static_cast<size_t>(c);
}

size_t FloorBound(double x) {
  double f = std::floor(x + kBoundEps);
  return f <= 0 ? 0 : static_cast<size_t>(f);
}

using ml_text::UniqueTokensLower;

void SortUniqueRows(std::vector<uint32_t>* rows) {
  std::sort(rows->begin(), rows->end());
  rows->erase(std::unique(rows->begin(), rows->end()), rows->end());
}

}  // namespace

std::string ConcatValueText(const std::vector<Value>& values) {
  std::string out;
  for (const Value& v : values) {
    if (!out.empty()) out += ' ';
    if (!v.is_null()) out += v.ToString();
  }
  return out;
}

std::string_view ConcatValueView(const std::vector<Value>& values,
                                 std::string* scratch) {
  // One non-NULL string value — the dominant ML-side shape — needs no
  // concatenation at all: hand back the columnar arena view, zero-copy.
  if (values.size() == 1 && values[0].type() == ValueType::kString) {
    return values[0].AsString();
  }
  *scratch = ConcatValueText(values);
  return *scratch;
}

// --- TokenJaccardIndex ------------------------------------------------------

TokenJaccardIndex::TokenJaccardIndex(double threshold,
                                     const std::vector<uint32_t>& rows,
                                     const RowValuesFn& fill,
                                     const ProfileSource* profiles)
    : threshold_(threshold) {
  if (profiles != nullptr && profiles->store != nullptr &&
      profiles->intern_of) {
    profiles_ = profiles->store;
    intern_of_ = profiles->intern_of;
  }
  // Pass 1: collect every row's token-id set and count document frequency.
  // Profiled: the sets come straight from the store's arena (no tokenizing,
  // no hashing); df is counted over the store's shared dictionary ids, and
  // ids absent from every indexed row keep df 0.
  std::vector<std::vector<uint32_t>> row_tokens(rows.size());
  std::vector<uint32_t> df;
  if (profiles_ != nullptr) {
    df.assign(profiles_->num_tokens(), 0);
    for (size_t r = 0; r < rows.size(); ++r) {
      const uint32_t id = intern_of_(rows[r]);
      const ProfileStore::Profile* p =
          id == ProfileStore::kNpos ? nullptr : profiles_->Find(id);
      if (p == nullptr) continue;
      const uint32_t* toks = profiles_->tokens(*p);
      row_tokens[r].assign(toks, toks + p->tok_count);
      for (uint32_t t : row_tokens[r]) ++df[t];
    }
  } else {
    std::vector<Value> values;
    std::string scratch;
    for (size_t r = 0; r < rows.size(); ++r) {
      fill(rows[r], &values);
      for (std::string& tok : UniqueTokensLower(ConcatValueView(values,
                                                                &scratch))) {
        auto [it, inserted] = token_ids_.emplace(
            std::move(tok), static_cast<uint32_t>(df.size()));
        if (inserted) df.push_back(0);
        ++df[it->second];
        row_tokens[r].push_back(it->second);
      }
    }
  }
  // Global prefix order, rare-first with the token text as a deterministic
  // tie-break. Frozen here: tokens first seen by later Adds are appended
  // after every build token, which keeps already-indexed prefixes valid
  // (the prefix-filter theorem holds for any one fixed total order).
  // Dictionary tokens with df == 0 (profiled mode shares the dataset-wide
  // dictionary) get no rank at all: like unseen text, they can never match a
  // posting list, so ranking only df >= 1 tokens keeps the order — and hence
  // every probe's candidate set — identical to the private-dictionary build.
  std::vector<uint32_t> order;
  order.reserve(df.size());
  for (uint32_t t = 0; t < df.size(); ++t) {
    if (df[t] > 0) order.push_back(t);
  }
  std::vector<std::string_view> token_text(df.size());
  if (profiles_ != nullptr) {
    for (uint32_t t : order) token_text[t] = profiles_->token_text(t);
  } else {
    for (const auto& [tok, id] : token_ids_) token_text[id] = tok;
  }
  std::sort(order.begin(), order.end(), [&](uint32_t x, uint32_t y) {
    if (df[x] != df[y]) return df[x] < df[y];
    return token_text[x] < token_text[y];
  });
  rank_of_token_.assign(df.size(), kUnranked);
  for (uint32_t r = 0; r < order.size(); ++r) rank_of_token_[order[r]] = r;
  next_rank_ = static_cast<uint32_t>(order.size());

  // Pass 2: index each row under its prefix tokens.
  for (size_t r = 0; r < rows.size(); ++r) {
    IndexRow(rows[r], row_tokens[r]);
  }
  num_rows_ = rows.size();
}

size_t TokenJaccardIndex::PrefixLength(size_t set_size) const {
  if (set_size == 0) return 0;
  size_t keep = CeilBound(threshold_ * static_cast<double>(set_size));
  if (keep > set_size) keep = set_size;
  return set_size - keep + 1;
}

void TokenJaccardIndex::IndexRow(uint32_t row,
                                 const std::vector<uint32_t>& token_ids) {
  if (token_ids.empty()) {
    empty_rows_.push_back(row);
    return;
  }
  std::vector<uint32_t> ordered = token_ids;
  std::sort(ordered.begin(), ordered.end(), [&](uint32_t x, uint32_t y) {
    return RankOf(x) < RankOf(y);
  });
  const size_t prefix = PrefixLength(ordered.size());
  const uint32_t size = static_cast<uint32_t>(ordered.size());
  for (size_t i = 0; i < prefix; ++i) {
    postings_[ordered[i]].push_back({row, size});
  }
}

void TokenJaccardIndex::Add(uint32_t row, const std::vector<Value>& values) {
  std::vector<uint32_t> ids;
  if (profiles_ != nullptr) {
    const uint32_t id = intern_of_(row);
    const ProfileStore::Profile* p =
        id == ProfileStore::kNpos ? nullptr : profiles_->Find(id);
    if (p != nullptr) {
      const uint32_t* toks = profiles_->tokens(*p);
      ids.assign(toks, toks + p->tok_count);
    }
    // The shared dictionary may have grown since the build; widen the rank
    // table (new ids unranked) and append ranks for this row's new tokens
    // in text order — the order the unprofiled path ranks them in, so the
    // ranks never depend on how the store assigned dictionary ids.
    if (rank_of_token_.size() < profiles_->num_tokens()) {
      rank_of_token_.resize(profiles_->num_tokens(), kUnranked);
    }
    std::vector<uint32_t> fresh;
    for (uint32_t t : ids) {
      if (rank_of_token_[t] == kUnranked) fresh.push_back(t);
    }
    std::sort(fresh.begin(), fresh.end(), [this](uint32_t x, uint32_t y) {
      return profiles_->token_text(x) < profiles_->token_text(y);
    });
    for (uint32_t t : fresh) rank_of_token_[t] = next_rank_++;
  } else {
    std::string scratch;
    for (std::string& tok : UniqueTokensLower(ConcatValueView(values,
                                                              &scratch))) {
      auto [it, inserted] = token_ids_.emplace(
          std::move(tok), static_cast<uint32_t>(rank_of_token_.size()));
      if (inserted) {
        // Unseen token: appended after every existing rank.
        rank_of_token_.push_back(next_rank_++);
      }
      ids.push_back(it->second);
    }
  }
  IndexRow(row, ids);
  ++num_rows_;
}

void TokenJaccardIndex::QueryTokenIds(const std::vector<Value>& query,
                                      std::vector<uint32_t>* ids,
                                      size_t* ny) const {
  ids->clear();
  if (profiles_ != nullptr && query.size() == 1 &&
      query[0].type() == ValueType::kString) {
    // Interned probe: its token-id set is already in the store's arena —
    // the per-candidate re-tokenization this loop used to pay is gone even
    // on the scalar path.
    const uint32_t iid = query[0].intern_id();
    const ProfileStore::Profile* p =
        iid == ProfileStore::kNpos ? nullptr : profiles_->Find(iid);
    if (p != nullptr) {
      const uint32_t* toks = profiles_->tokens(*p);
      ids->assign(toks, toks + p->tok_count);
      *ny = p->tok_count;
      return;
    }
  }
  std::string scratch;
  const std::vector<std::string> tokens =
      UniqueTokensLower(ConcatValueView(query, &scratch));
  *ny = tokens.size();
  for (const std::string& tok : tokens) {
    if (profiles_ != nullptr) {
      const uint32_t tid = profiles_->FindToken(tok);
      if (tid != StringPool::kNpos) ids->push_back(tid);
    } else {
      auto it = token_ids_.find(tok);
      if (it != token_ids_.end()) ids->push_back(it->second);
    }
  }
}

void TokenJaccardIndex::Probe(const std::vector<Value>& query,
                              std::vector<uint32_t>* out) const {
  out->clear();
  thread_local std::vector<uint32_t> qids;
  size_t ny = 0;
  QueryTokenIds(query, &qids, &ny);
  if (ny == 0) {
    // Two empty token sets score 1.0 >= threshold; empty-vs-nonempty is 0.
    *out = empty_rows_;
    SortUniqueRows(out);
    return;
  }
  // Known (ranked) tokens sorted by the frozen global order; query-only
  // tokens — unseen text and df-0 dictionary ids alike — rank after every
  // indexed token (they cannot hit a posting list, and placing them last
  // keeps the shared order assumption of the prefix filter while spending
  // the query's prefix positions on tokens that can match).
  thread_local std::vector<uint32_t> known;
  known.clear();
  for (uint32_t t : qids) {
    if (RankOf(t) != kUnranked) known.push_back(t);
  }
  std::sort(known.begin(), known.end(), [&](uint32_t x, uint32_t y) {
    return RankOf(x) < RankOf(y);
  });
  const size_t prefix = PrefixLength(ny);
  const size_t known_prefix = std::min(prefix, known.size());

  const size_t min_size = CeilBound(threshold_ * static_cast<double>(ny));
  const size_t max_size = threshold_ > 0
                              ? FloorBound(static_cast<double>(ny) / threshold_)
                              : SIZE_MAX;
  for (size_t i = 0; i < known_prefix; ++i) {
    auto it = postings_.find(known[i]);
    if (it == postings_.end()) continue;
    for (const RowEntry& e : it->second) {
      if (e.num_tokens < min_size || e.num_tokens > max_size) continue;
      out->push_back(e.row);
    }
  }
  SortUniqueRows(out);
}

// --- QGramEditIndex ---------------------------------------------------------

namespace {

// Sorted q-gram hash multiset of `text` (empty when |text| < q).
void GramsOf(std::string_view text, size_t q, std::vector<uint64_t>* out) {
  out->clear();
  if (text.size() < q) return;
  for (size_t i = 0; i + q <= text.size(); ++i) {
    out->push_back(Fnv1a64(text.data() + i, q, q));
  }
  std::sort(out->begin(), out->end());
}

// Per-thread row-keyed counter with stamp invalidation: clearing between
// probes is O(touched rows), and concurrent probes from enumeration shards
// never share state.
struct RowCounter {
  std::vector<uint32_t> stamp;
  std::vector<uint32_t> count;
  uint32_t cur = 0;

  void Begin(size_t max_row) {
    if (++cur == 0) {  // stamp wrapped: invalidate everything
      std::fill(stamp.begin(), stamp.end(), 0);
      cur = 1;
    }
    if (stamp.size() <= max_row) {
      stamp.resize(max_row + 1, 0);
      count.resize(max_row + 1, 0);
    }
  }
  void Bump(uint32_t row, uint32_t by) {
    if (stamp[row] != cur) {
      stamp[row] = cur;
      count[row] = 0;
    }
    count[row] += by;
  }
  uint32_t Get(uint32_t row) const {
    return (row < stamp.size() && stamp[row] == cur) ? count[row] : 0;
  }
};

thread_local RowCounter g_row_counter;

}  // namespace

QGramEditIndex::QGramEditIndex(double threshold,
                               const std::vector<uint32_t>& rows,
                               const RowValuesFn& fill, size_t q,
                               const ProfileSource* profiles)
    : threshold_(threshold), q_(q) {
  if (profiles != nullptr && profiles->store != nullptr &&
      profiles->intern_of && profiles->store->q() == q) {
    profiles_ = profiles->store;
    intern_of_ = profiles->intern_of;
  }
  std::vector<Value> values;
  std::string scratch;
  for (uint32_t row : rows) {
    if (profiles_ != nullptr && TryIndexRowProfile(row)) continue;
    fill(row, &values);
    IndexRow(row, ConcatValueView(values, &scratch));
  }
  std::sort(rows_by_len_.begin(), rows_by_len_.end());
  len_sorted_ = true;
  num_rows_ = rows.size();
}

void QGramEditIndex::IndexRowProfile(uint32_t row,
                                     const ProfileStore::Profile& p) {
  rows_by_len_.push_back({p.byte_len, row});
  max_row_ = std::max(max_row_, row);
  const uint64_t* hashes = profiles_->gram_hashes(p);
  const uint32_t* counts = profiles_->gram_counts(p);
  for (uint32_t i = 0; i < p.gram_count; ++i) {
    postings_[hashes[i]].push_back({row, counts[i]});
  }
}

bool QGramEditIndex::TryIndexRowProfile(uint32_t row) {
  const uint32_t id = intern_of_(row);
  if (id == ProfileStore::kNpos) {
    // NULL cell renders as "": length 0, no grams.
    rows_by_len_.push_back({0, row});
    max_row_ = std::max(max_row_, row);
    return true;
  }
  const ProfileStore::Profile* p = profiles_->Find(id);
  if (p == nullptr) return false;
  IndexRowProfile(row, *p);
  return true;
}

void QGramEditIndex::IndexRow(uint32_t row, std::string_view text) {
  rows_by_len_.push_back({static_cast<uint32_t>(text.size()), row});
  max_row_ = std::max(max_row_, row);
  thread_local std::vector<uint64_t> grams;
  GramsOf(text, q_, &grams);
  for (size_t i = 0; i < grams.size();) {
    size_t j = i;
    while (j < grams.size() && grams[j] == grams[i]) ++j;
    postings_[grams[i]].push_back({row, static_cast<uint32_t>(j - i)});
    i = j;
  }
}

void QGramEditIndex::Add(uint32_t row, const std::vector<Value>& values) {
  if (profiles_ == nullptr || !TryIndexRowProfile(row)) {
    std::string scratch;
    IndexRow(row, ConcatValueView(values, &scratch));
  }
  // Keep the length ordering; appended batches are small, so the insertion
  // sort step stays cheap relative to the chase work that follows.
  if (rows_by_len_.size() >= 2 &&
      rows_by_len_[rows_by_len_.size() - 2] > rows_by_len_.back()) {
    auto last = rows_by_len_.back();
    rows_by_len_.pop_back();
    rows_by_len_.insert(
        std::upper_bound(rows_by_len_.begin(), rows_by_len_.end(), last),
        last);
  }
  ++num_rows_;
}

void QGramEditIndex::Probe(const std::vector<Value>& query,
                           std::vector<uint32_t>* out) const {
  out->clear();
  // Query gram groups (hash, multiplicity) and byte length: read from the
  // probe's profile when it is one interned string (no re-hashing in the
  // candidate loop), otherwise derived from the text exactly as before.
  thread_local std::vector<uint64_t> ghash_scratch;
  thread_local std::vector<uint32_t> gcount_scratch;
  const uint64_t* ghash = nullptr;
  const uint32_t* gcount = nullptr;
  size_t gn = 0;
  size_t la = 0;
  const ProfileStore::Profile* qp = nullptr;
  if (profiles_ != nullptr && query.size() == 1 &&
      query[0].type() == ValueType::kString) {
    const uint32_t iid = query[0].intern_id();
    qp = iid == ProfileStore::kNpos ? nullptr : profiles_->Find(iid);
  }
  if (qp != nullptr) {
    // Interned probe: its RLE gram sketch is already in the store's arena.
    la = qp->byte_len;
    ghash = profiles_->gram_hashes(*qp);
    gcount = profiles_->gram_counts(*qp);
    gn = qp->gram_count;
  } else {
    ghash_scratch.clear();
    gcount_scratch.clear();
    std::string scratch;
    const std::string_view text = ConcatValueView(query, &scratch);
    la = text.size();
    thread_local std::vector<uint64_t> grams;
    GramsOf(text, q_, &grams);
    for (size_t i = 0; i < grams.size();) {
      size_t j = i;
      while (j < grams.size() && grams[j] == grams[i]) ++j;
      ghash_scratch.push_back(grams[i]);
      gcount_scratch.push_back(static_cast<uint32_t>(j - i));
      i = j;
    }
    ghash = ghash_scratch.data();
    gcount = gcount_scratch.data();
    gn = ghash_scratch.size();
  }
  const size_t lb_min = CeilBound(threshold_ * static_cast<double>(la));
  const size_t lb_max =
      threshold_ > 0 ? FloorBound(static_cast<double>(la) / threshold_) : 0;

  // Count shared q-grams per row: sum of min(multiplicities), the exact
  // multiset overlap the count-filter bound is stated over.
  g_row_counter.Begin(max_row_);
  for (size_t g = 0; g < gn; ++g) {
    auto it = postings_.find(ghash[g]);
    if (it == postings_.end()) continue;
    const uint32_t qcount = gcount[g];
    for (const Posting& p : it->second) {
      g_row_counter.Bump(p.row, std::min(qcount, p.count));
    }
  }

  // Walk the feasible length window; the q-gram count filter prunes inside
  // it. bound <= 0 means the count filter is vacuous for that length pair
  // (short strings), so the row stays a candidate on length alone. k and
  // the bound depend only on the candidate length, and the walk is
  // length-sorted, so they are recomputed once per distinct length instead
  // of once per row.
  auto lo = std::lower_bound(
      rows_by_len_.begin(), rows_by_len_.end(),
      std::pair<uint32_t, uint32_t>{static_cast<uint32_t>(lb_min), 0});
  size_t cur_len = SIZE_MAX;
  int64_t bound = 0;
  for (auto it = lo; it != rows_by_len_.end() && it->first <= lb_max; ++it) {
    const size_t lb = it->first;
    if (lb != cur_len) {
      cur_len = lb;
      const size_t longer = std::max(la, lb);
      const size_t k =
          FloorBound((1.0 - threshold_) * static_cast<double>(longer));
      bound = static_cast<int64_t>(longer) - static_cast<int64_t>(q_) + 1 -
              static_cast<int64_t>(k * q_);
    }
    if (bound > 0 &&
        g_row_counter.Get(it->second) < static_cast<uint64_t>(bound)) {
      continue;
    }
    out->push_back(it->second);
  }
  std::sort(out->begin(), out->end());
}

}  // namespace dcer
