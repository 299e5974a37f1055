// Tests for the vectorized similarity engine (ml/simd.h, ml/profile.h):
//  - the SIMD kernels are bit-identical to the scalar tier on every tail
//    length (empty, 1, lane-1, lane, lane+1, many lanes) and on adversarial
//    overlap patterns (disjoint blocks hit the skip-ahead, identical arrays
//    hit the all-match path);
//  - DCER_SIMD=0 deterministically forces the scalar tier (the
//    simd_scalar_test binary runs this whole file under that environment);
//  - a ProfileStore grown incrementally (sparse Adds in any order) holds
//    the same per-string profiles as one built from scratch;
//  - the one-vs-many batch kernels return bit-for-bit the scores and
//    booleans of the pairwise kernels in ml/similarity.h, at every tier;
//  - EditPassBound exactly characterizes the double predicate
//    1 - d/m >= t it replaces, including at rounding boundaries;
//  - the golden-Γ ecommerce workload is bit-identical with profiles on/off
//    and across dispatch tiers.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "chase/match.h"
#include "common/hash.h"
#include "common/rng.h"
#include "datagen/ecommerce.h"
#include "ml/profile.h"
#include "ml/simd.h"
#include "ml/similarity.h"
#include "relational/string_pool.h"

namespace dcer {
namespace {

// Tiers this host can actually execute. kScalar always; kAvx2 only when the
// CPU reports it (SetLevelForTest trusts the caller).
std::vector<simd::Level> TestableLevels() {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2")) levels.push_back(simd::Level::kAvx2);
#endif
  return levels;
}

// Forces a tier for the enclosing scope and re-resolves from the
// environment/CPU on the way out, so tests cannot leak a forced tier.
struct LevelOverride {
  explicit LevelOverride(simd::Level level) {
    simd::SetLevelForTest(static_cast<int>(level));
  }
  ~LevelOverride() { simd::SetLevelForTest(-1); }
};

// --- dispatch ---------------------------------------------------------------

TEST(SimdDispatch, EnvForcesScalarAndNamesAreStable) {
  simd::SetLevelForTest(-1);  // drop any cached tier, re-resolve
  const char* env = std::getenv("DCER_SIMD");
  if (env != nullptr && std::string_view(env) == "0") {
    // The simd_scalar_test lane: the environment must win over the CPU.
    EXPECT_EQ(simd::ActiveLevel(), simd::Level::kScalar);
  } else {
    const simd::Level level = simd::ActiveLevel();
    EXPECT_TRUE(level == simd::Level::kScalar || level == simd::Level::kAvx2);
  }
  EXPECT_STREQ(simd::LevelName(simd::Level::kScalar), "scalar");
  EXPECT_STREQ(simd::LevelName(simd::Level::kAvx2), "avx2");
}

// --- kernel bit-identity across tiers ---------------------------------------

// Strictly ascending uint32 array of length n, with gaps drawn from a small
// range so blocks of the two arrays interleave (the interesting merge case).
std::vector<uint32_t> AscendingU32(Rng* rng, size_t n, uint32_t start,
                                   uint32_t max_gap) {
  std::vector<uint32_t> v;
  v.reserve(n);
  uint32_t x = start;
  for (size_t i = 0; i < n; ++i) {
    x += 1 + static_cast<uint32_t>(rng->Uniform(max_gap));
    v.push_back(x);
  }
  return v;
}

size_t RefIntersect(const std::vector<uint32_t>& a,
                    const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out.size();
}

TEST(SimdKernels, IntersectCountAllTailLengths) {
  // Lane width is 8 (uint32 in a ymm): cover 0, 1, 7, 8, 9, 15, 16, 17 and
  // a multi-lane case per side, crossed with each other.
  const size_t sizes[] = {0, 1, 3, 7, 8, 9, 15, 16, 17, 33, 40};
  Rng rng(7);
  for (size_t na : sizes) {
    for (size_t nb : sizes) {
      for (int trial = 0; trial < 4; ++trial) {
        auto a = AscendingU32(&rng, na, 0, 4);
        auto b = AscendingU32(&rng, nb, trial, 4);
        const size_t want = RefIntersect(a, b);
        for (simd::Level level : TestableLevels()) {
          LevelOverride guard(level);
          EXPECT_EQ(simd::IntersectCountU32(a.data(), na, b.data(), nb), want)
              << "na=" << na << " nb=" << nb << " tier "
              << simd::LevelName(level);
        }
      }
    }
  }
}

TEST(SimdKernels, IntersectCountAdversarialPatterns) {
  Rng rng(11);
  auto a = AscendingU32(&rng, 40, 0, 3);
  // Identical arrays: every lane matches.
  // Disjoint ranges: exercises the skip-ahead fast path in both directions.
  std::vector<uint32_t> far;
  for (uint32_t x : a) far.push_back(x + 100000);
  for (simd::Level level : TestableLevels()) {
    LevelOverride guard(level);
    EXPECT_EQ(simd::IntersectCountU32(a.data(), a.size(), a.data(), a.size()),
              a.size());
    EXPECT_EQ(simd::IntersectCountU32(a.data(), a.size(), far.data(),
                                      far.size()),
              0u);
    EXPECT_EQ(simd::IntersectCountU32(far.data(), far.size(), a.data(),
                                      a.size()),
              0u);
  }
}

uint64_t RefSharedMin(const std::vector<uint64_t>& ka,
                      const std::vector<uint32_t>& ca,
                      const std::vector<uint64_t>& kb,
                      const std::vector<uint32_t>& cb) {
  uint64_t total = 0;
  size_t i = 0, j = 0;
  while (i < ka.size() && j < kb.size()) {
    if (ka[i] < kb[j]) {
      ++i;
    } else if (kb[j] < ka[i]) {
      ++j;
    } else {
      total += std::min(ca[i], cb[j]);
      ++i;
      ++j;
    }
  }
  return total;
}

TEST(SimdKernels, SharedMinCountAllTailLengths) {
  // Lane width is 4 (uint64 in a ymm): cover 0, 1, 3, 4, 5, 7, 8, 9 and a
  // multi-lane case per side.
  const size_t sizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 17, 24};
  Rng rng(13);
  for (size_t na : sizes) {
    for (size_t nb : sizes) {
      for (int trial = 0; trial < 4; ++trial) {
        std::vector<uint64_t> ka, kb;
        std::vector<uint32_t> ca, cb;
        uint64_t x = rng.Uniform(3);
        for (size_t i = 0; i < na; ++i) {
          x += 1 + rng.Uniform(3);
          ka.push_back(x);
          ca.push_back(1 + static_cast<uint32_t>(rng.Uniform(5)));
        }
        uint64_t y = rng.Uniform(3);
        for (size_t j = 0; j < nb; ++j) {
          y += 1 + rng.Uniform(3);
          kb.push_back(y);
          cb.push_back(1 + static_cast<uint32_t>(rng.Uniform(5)));
        }
        const uint64_t want = RefSharedMin(ka, ca, kb, cb);
        for (simd::Level level : TestableLevels()) {
          LevelOverride guard(level);
          EXPECT_EQ(simd::SharedMinCountU64(ka.data(), ca.data(), na,
                                            kb.data(), cb.data(), nb),
                    want)
              << "na=" << na << " nb=" << nb << " tier "
              << simd::LevelName(level);
        }
      }
    }
  }
}

// The contract of DotBlockedF32, written independently: lane l accumulates
// indices ≡ l (mod 4), tail to lane 0, reduced as (s0+s1)+(s2+s3).
double RefDotBlocked(const float* a, const float* b, size_t n) {
  double s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += static_cast<double>(a[i]) * b[i];
    s1 += static_cast<double>(a[i + 1]) * b[i + 1];
    s2 += static_cast<double>(a[i + 2]) * b[i + 2];
    s3 += static_cast<double>(a[i + 3]) * b[i + 3];
  }
  for (; i < n; ++i) s0 += static_cast<double>(a[i]) * b[i];
  return (s0 + s1) + (s2 + s3);
}

TEST(SimdKernels, DotBlockedBitIdenticalAcrossTiers) {
  const size_t sizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 63, 64, 65, 100};
  Rng rng(17);
  for (size_t n : sizes) {
    std::vector<float> a(n), b(n);
    for (size_t i = 0; i < n; ++i) {
      // Signed, non-representable-sum values so accumulation order matters:
      // any reassociation in a kernel body shows up as a bit difference.
      a[i] = static_cast<float>(static_cast<double>(rng.Uniform(2000)) / 997.0 -
                                1.0);
      b[i] = static_cast<float>(static_cast<double>(rng.Uniform(2000)) / 991.0 -
                                1.0);
    }
    const double want = RefDotBlocked(a.data(), b.data(), n);
    for (simd::Level level : TestableLevels()) {
      LevelOverride guard(level);
      const double got = simd::DotBlockedF32(a.data(), b.data(), n);
      // Bit-for-bit, not approximately: memcmp the representations.
      EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
          << "n=" << n << " tier " << simd::LevelName(level) << " got=" << got
          << " want=" << want;
    }
  }
}

// --- EditPassBound exactness ------------------------------------------------

TEST(EditPassBound, ExactlyCharacterizesTheScorePredicate) {
  for (size_t m = 1; m <= 96; ++m) {
    std::vector<double> thresholds = {-0.5, 0.0,        0.3, 0.5, 0.75,
                                      0.9,  1.0,        1.5};
    for (size_t d = 0; d <= m; ++d) {
      // The critical points of the predicate, and one ulp to either side.
      const double t = 1.0 - static_cast<double>(d) / static_cast<double>(m);
      thresholds.push_back(t);
      thresholds.push_back(std::nextafter(t, 2.0));
      thresholds.push_back(std::nextafter(t, -2.0));
    }
    for (double t : thresholds) {
      const size_t k = EditPassBound(m, t);
      if (k != kEditNoPass) {
        EXPECT_LE(k, m);
      }
      for (size_t d = 0; d <= m; ++d) {  // edit distance never exceeds m
        const bool want =
            1.0 - static_cast<double>(d) / static_cast<double>(m) >= t;
        const bool got = k != kEditNoPass && d <= k;
        EXPECT_EQ(got, want) << "m=" << m << " t=" << t << " d=" << d;
      }
    }
  }
}

// --- ProfileStore -----------------------------------------------------------

// Random byte strings exercising the profile edge cases: empty, whitespace
// runs, high-bit bytes, repeated tokens, lengths past the 64-char Myers
// word boundary.
std::string RandomText(Rng* rng) {
  switch (rng->Uniform(8)) {
    case 0:
      return "";
    case 1:
      return std::string(rng->Uniform(6), ' ');
    case 2:
      return "thinkpad x1 carbon thinkpad";  // duplicate token
    default:
      break;
  }
  const char alphabet[] = "abcXYZ 019 \t.,\xc3\xa9\xe4\xb8\xad";
  size_t len = rng->Uniform(96);
  std::string s;
  s.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    s += alphabet[rng->Uniform(sizeof(alphabet) - 1)];
  }
  return s;
}

std::vector<std::string> ProfileCorpus(size_t n) {
  Rng rng(2025);
  std::vector<std::string> corpus;
  corpus.push_back("");
  corpus.push_back("a");
  corpus.push_back(std::string(200, 'x') + " tail");  // > 64 chars
  while (corpus.size() < n) {
    std::string s = RandomText(&rng);
    // The pool dedups; keep the corpus dedup'd too so ids line up 1:1.
    if (std::find(corpus.begin(), corpus.end(), s) == corpus.end()) {
      corpus.push_back(std::move(s));
    }
  }
  return corpus;
}

// The profile of `id` with dictionary ids replaced by token texts: what two
// stores must agree on when they profiled the same string, whatever order
// their dictionaries assigned ids in.
struct PortableProfile {
  std::vector<std::string_view> tokens;  // sorted texts
  std::vector<uint64_t> gram_hashes;
  std::vector<uint32_t> gram_counts;
  uint32_t byte_len = 0;
  uint32_t gram_total = 0;

  bool operator==(const PortableProfile&) const = default;
};

PortableProfile PortableOf(const ProfileStore& store,
                           const ProfileStore::Profile& p) {
  PortableProfile out;
  for (uint32_t i = 0; i < p.tok_count; ++i) {
    out.tokens.push_back(store.token_text(store.tokens(p)[i]));
  }
  std::sort(out.tokens.begin(), out.tokens.end());
  out.gram_hashes.assign(store.gram_hashes(p),
                         store.gram_hashes(p) + p.gram_count);
  out.gram_counts.assign(store.gram_counts(p),
                         store.gram_counts(p) + p.gram_count);
  out.byte_len = p.byte_len;
  out.gram_total = p.gram_total;
  return out;
}

// A store grown the way DatasetProfiles grows one — a subset of ids at
// open, later appends adding new ids and ids skipped before, each batch in
// its own order — profiles every string exactly as a from-scratch Sync.
TEST(ProfileStore, IncrementalAddMatchesFromScratchPerString) {
  const std::vector<std::string> corpus = ProfileCorpus(60);

  StringPool full;
  for (const auto& s : corpus) full.Intern(s);
  ProfileStore scratch(&full);
  scratch.Sync();

  StringPool grown;
  ProfileStore incremental(&grown);
  incremental.Add({});  // empty pool, empty batch
  EXPECT_EQ(incremental.size(), 0u);
  size_t i = 0;
  std::vector<uint32_t> skipped;
  for (size_t chunk : {size_t{1}, size_t{7}, size_t{20}, corpus.size()}) {
    std::vector<uint32_t> batch;
    for (; i < chunk && i < corpus.size(); ++i) {
      const uint32_t id = grown.Intern(corpus[i]);
      // Every third string stays out of this batch, like a string first
      // interned in a non-ML column.
      (id % 3 == 1 ? skipped : batch).push_back(id);
    }
    std::reverse(batch.begin(), batch.end());  // not ascending on purpose
    batch.push_back(ProfileStore::kNpos);      // NULL cells are skipped
    incremental.Add(batch);
    for (uint32_t id : skipped) EXPECT_EQ(incremental.Find(id), nullptr);
  }
  incremental.Add(skipped);  // an old string enters an ML column
  incremental.Add(skipped);  // idempotent
  ASSERT_EQ(incremental.size(), grown.size());

  for (uint32_t id = 0; id < grown.size(); ++id) {
    const ProfileStore::Profile* pa = scratch.Find(id);
    const ProfileStore::Profile* pb = incremental.Find(id);
    ASSERT_NE(pa, nullptr);
    ASSERT_NE(pb, nullptr);
    EXPECT_TRUE(PortableOf(scratch, *pa) == PortableOf(incremental, *pb))
        << "id " << id << " [" << grown.view(id) << "]";
  }
}

TEST(ProfileStore, ProfilesMatchDirectComputation) {
  const std::vector<std::string> corpus = ProfileCorpus(60);
  StringPool pool;
  for (const auto& s : corpus) pool.Intern(s);
  ProfileStore store(&pool);
  store.Sync();

  EXPECT_EQ(store.Find(ProfileStore::kNpos), nullptr);
  EXPECT_EQ(store.Find(static_cast<uint32_t>(store.size())), nullptr);
  EXPECT_EQ(store.q(), 2u);
  EXPECT_GT(store.ByteSize(), 0u);

  for (uint32_t id = 0; id < pool.size(); ++id) {
    const std::string_view text = pool.view(id);
    const ProfileStore::Profile* p = store.Find(id);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->byte_len, text.size());
    // Token set: same texts as the pairwise kernels' tokenizer, each token
    // resolvable through the dictionary, ids strictly ascending in the arena.
    std::vector<std::string> want_tokens = ml_text::UniqueTokensLower(text);
    ASSERT_EQ(p->tok_count, want_tokens.size()) << "[" << text << "]";
    std::vector<std::string> got_tokens;
    for (uint32_t i = 0; i < p->tok_count; ++i) {
      const uint32_t tid = store.tokens(*p)[i];
      if (i > 0) {
        EXPECT_LT(store.tokens(*p)[i - 1], tid);
      }
      EXPECT_EQ(store.FindToken(store.token_text(tid)), tid);
      got_tokens.emplace_back(store.token_text(tid));
    }
    std::sort(got_tokens.begin(), got_tokens.end());
    EXPECT_EQ(got_tokens, want_tokens) << "[" << text << "]";
    // Gram sketch: q-1 short strings have none; otherwise multiplicities sum
    // to byte_len - q + 1 and hashes ascend strictly.
    const size_t q = store.q();
    const uint32_t want_total =
        text.size() >= q ? static_cast<uint32_t>(text.size() - q + 1) : 0;
    EXPECT_EQ(p->gram_total, want_total);
    uint32_t total = 0;
    for (uint32_t i = 0; i < p->gram_count; ++i) {
      if (i > 0) {
        EXPECT_LT(store.gram_hashes(*p)[i - 1], store.gram_hashes(*p)[i]);
      }
      total += store.gram_counts(*p)[i];
    }
    EXPECT_EQ(total, want_total) << "[" << text << "]";
  }
}

// --- batch kernels ≡ pairwise kernels ---------------------------------------

class BatchKernelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    corpus_ = ProfileCorpus(80);
    for (const auto& s : corpus_) pool_.Intern(s);
    store_ = std::make_unique<ProfileStore>(&pool_);
    store_->Sync();
    // Candidates: every pool id plus interspersed kNpos (NULL cell = empty
    // text), so the batch loops see holes at every alignment.
    for (uint32_t id = 0; id < pool_.size(); ++id) {
      cand_ids_.push_back(id);
      if (id % 7 == 3) cand_ids_.push_back(ProfileStore::kNpos);
    }
  }

  std::string_view TextOf(uint32_t id) const {
    return id == ProfileStore::kNpos ? std::string_view() : pool_.view(id);
  }

  // Probe ids covering the kernels' regimes: empty, short (hoisted Myers
  // pattern, |a| <= 64), long (per-pair fallback), plus kNpos.
  std::vector<uint32_t> ProbeIds() const {
    std::vector<uint32_t> probes = {ProfileStore::kNpos};
    for (uint32_t id = 0; id < pool_.size(); ++id) {
      const size_t len = pool_.view(id).size();
      if (len == 0 || len == 1 || (len > 4 && len <= 64) || len > 64) {
        if (probes.size() < 14) probes.push_back(id);
      }
    }
    return probes;
  }

  std::vector<std::string> corpus_;
  StringPool pool_;
  std::unique_ptr<ProfileStore> store_;
  std::vector<uint32_t> cand_ids_;
};

TEST_F(BatchKernelTest, ScoresBitIdenticalToPairwiseKernels) {
  const size_t n = cand_ids_.size();
  std::vector<double> jac(n), edit(n);
  for (simd::Level level : TestableLevels()) {
    LevelOverride guard(level);
    for (uint32_t probe : ProbeIds()) {
      ScoreTokenJaccardBatch(*store_, probe, cand_ids_.data(), n, jac.data());
      ScoreEditSimilarityBatch(*store_, probe, cand_ids_.data(), n,
                               edit.data());
      for (size_t i = 0; i < n; ++i) {
        const std::string_view a = TextOf(probe);
        const std::string_view b = TextOf(cand_ids_[i]);
        const double want_jac = TokenJaccard(a, b);
        const double want_edit = EditSimilarity(a, b);
        EXPECT_EQ(std::memcmp(&jac[i], &want_jac, sizeof(double)), 0)
            << "jaccard [" << a << "] vs [" << b << "] tier "
            << simd::LevelName(level);
        EXPECT_EQ(std::memcmp(&edit[i], &want_edit, sizeof(double)), 0)
            << "edit [" << a << "] vs [" << b << "] tier "
            << simd::LevelName(level);
      }
    }
  }
}

TEST_F(BatchKernelTest, PredictionsMatchScoreThresholdComparison) {
  const size_t n = cand_ids_.size();
  std::vector<uint8_t> preds(n);
  // Includes always-true (t <= 0), always-false (t > 1) and the exact-match
  // boundary (t = 1) alongside the typical operating points.
  const double thresholds[] = {-0.5, 0.0, 0.25, 0.5, 0.75, 0.9, 1.0, 1.5};
  for (simd::Level level : TestableLevels()) {
    LevelOverride guard(level);
    for (double t : thresholds) {
      for (uint32_t probe : ProbeIds()) {
        const std::string_view a = TextOf(probe);
        PredictTokenJaccardBatch(*store_, probe, cand_ids_.data(), n, t,
                                 preds.data());
        for (size_t i = 0; i < n; ++i) {
          const bool want = TokenJaccard(a, TextOf(cand_ids_[i])) >= t;
          EXPECT_EQ(preds[i] != 0, want)
              << "jaccard t=" << t << " [" << a << "] vs ["
              << TextOf(cand_ids_[i]) << "] tier " << simd::LevelName(level);
        }
        PredictEditSimilarityBatch(*store_, probe, cand_ids_.data(), n, t,
                                   preds.data());
        for (size_t i = 0; i < n; ++i) {
          const bool want = EditSimilarity(a, TextOf(cand_ids_[i])) >= t;
          EXPECT_EQ(preds[i] != 0, want)
              << "edit t=" << t << " [" << a << "] vs ["
              << TextOf(cand_ids_[i]) << "] tier " << simd::LevelName(level);
        }
      }
    }
  }
}

// --- golden Γ invariance ----------------------------------------------------

// Same fold as columnar_test.cc's golden-Γ suite; the pinned constant below
// is the one captured on the pre-profile engine.
uint64_t PairsHash(std::vector<std::pair<Gid, Gid>> pairs) {
  std::sort(pairs.begin(), pairs.end());
  uint64_t h = 0xcbf29ce484222325ULL;
  for (auto [a, b] : pairs) {
    h = HashCombine(h, HashInt(a));
    h = HashCombine(h, HashInt(b));
  }
  return h;
}

TEST(GoldenGammaProfiles, EcommerceInvariantUnderProfilesAndTiers) {
  EcommerceOptions o;
  o.num_customers = 150;
  auto gd = MakeEcommerce(o);
  ASSERT_EQ(gd->dataset.num_tuples(), 448u);

  auto run = [&](bool profiles) {
    DatasetView view = DatasetView::Full(gd->dataset);
    MatchContext ctx(gd->dataset);
    MatchOptions options;
    options.ml_profiles = profiles;
    engine::Match(view, gd->rules, gd->registry, options, &ctx);
    auto matched = ctx.MatchedPairs();
    EXPECT_EQ(matched.size(), 76u) << "profiles=" << profiles;
    return PairsHash(std::move(matched));
  };

  const uint64_t kWant = 0xa90aab7af0dfad94ULL;
  // Off = the pre-profile per-pair engine; on = the batch path at whatever
  // tier the environment resolves (the scalar lane pins DCER_SIMD=0).
  EXPECT_EQ(run(false), kWant);
  EXPECT_EQ(run(true), kWant);
  // And explicitly at each executable tier.
  for (simd::Level level : TestableLevels()) {
    LevelOverride guard(level);
    EXPECT_EQ(run(true), kWant) << "tier " << simd::LevelName(level);
  }
}

}  // namespace
}  // namespace dcer
