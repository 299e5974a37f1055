#include "ml/classifier.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <string_view>

#include "common/string_util.h"
#include "ml/embedding.h"
#include "ml/similarity.h"

namespace dcer {

namespace {
// Shared with the candidate indices (ml/candidate_index.h): the text a
// classifier scores and the text its index filters on must be byte-identical
// or the pruning bounds would not apply to the verified score.
std::string ConcatValues(const std::vector<Value>& vals) {
  return ConcatValueText(vals);
}

// A threshold outside (0, 1] makes the similarity filters vacuous or
// everything-pruning; fall back to full scans there.
bool IndexableThreshold(double t) { return t > 0.0 && t <= 1.0; }
}  // namespace

EmbeddingCosineClassifier::EmbeddingCosineClassifier(std::string name,
                                                     double threshold,
                                                     size_t dim)
    : MlClassifier(std::move(name), threshold), dim_(dim) {}

const Embedding& EmbeddingCosineClassifier::CachedEmbed(
    std::string text) const {
  {
    std::shared_lock<std::shared_mutex> lock(memo_mutex_);
    auto it = memo_.find(text);
    if (it != memo_.end()) return it->second;
  }
  Embedding e = EmbedText(text, dim_);
  std::unique_lock<std::shared_mutex> lock(memo_mutex_);
  // emplace is a no-op if a racing thread inserted first; either way the
  // returned reference stays valid (node-based map, values never erased).
  return memo_.emplace(std::move(text), std::move(e)).first->second;
}

void EmbeddingCosineClassifier::ClearMemo() const {
  std::unique_lock<std::shared_mutex> lock(memo_mutex_);
  memo_.clear();
}

double EmbeddingCosineClassifier::Score(const std::vector<Value>& a,
                                        const std::vector<Value>& b) const {
  double c = Cosine(CachedEmbed(ConcatValues(a)), CachedEmbed(ConcatValues(b)));
  return c < 0 ? 0 : c;
}

TokenJaccardClassifier::TokenJaccardClassifier(std::string name,
                                               double threshold)
    : MlClassifier(std::move(name), threshold) {}

double TokenJaccardClassifier::Score(const std::vector<Value>& a,
                                     const std::vector<Value>& b) const {
  std::string sa, sb;
  return TokenJaccard(ConcatValueView(a, &sa), ConcatValueView(b, &sb));
}

bool TokenJaccardClassifier::candidate_indexable() const {
  return IndexableThreshold(threshold());
}

std::unique_ptr<MlCandidateIndex> TokenJaccardClassifier::BuildCandidateIndex(
    const std::vector<uint32_t>& rows, const RowValuesFn& fill,
    const ProfileSource* profiles) const {
  if (!candidate_indexable()) return nullptr;
  return std::make_unique<TokenJaccardIndex>(threshold(), rows, fill,
                                             profiles);
}

EditSimilarityClassifier::EditSimilarityClassifier(std::string name,
                                                   double threshold)
    : MlClassifier(std::move(name), threshold) {}

double EditSimilarityClassifier::Score(const std::vector<Value>& a,
                                       const std::vector<Value>& b) const {
  std::string sa, sb;
  return EditSimilarity(ConcatValueView(a, &sa), ConcatValueView(b, &sb));
}

bool EditSimilarityClassifier::Predict(const std::vector<Value>& a,
                                       const std::vector<Value>& b) const {
  std::string sa, sb;
  const std::string_view ta = ConcatValueView(a, &sa);
  const std::string_view tb = ConcatValueView(b, &sb);
  if (ta.empty() && tb.empty()) return 1.0 >= threshold();
  const size_t m = std::max(ta.size(), tb.size());
  // k is the largest distance whose score still reaches the threshold under
  // the exact IEEE comparison Score performs; deciding d <= k is therefore
  // the same boolean, and lets the DP stop as soon as the band is exceeded.
  const size_t k = EditPassBound(m, threshold());
  if (k == kEditNoPass) return false;
  const size_t diff =
      ta.size() > tb.size() ? ta.size() - tb.size() : tb.size() - ta.size();
  if (diff > k) return false;
  return EditDistance(ta, tb, static_cast<int>(k)) <= k;
}

bool EditSimilarityClassifier::candidate_indexable() const {
  return IndexableThreshold(threshold());
}

std::unique_ptr<MlCandidateIndex> EditSimilarityClassifier::BuildCandidateIndex(
    const std::vector<uint32_t>& rows, const RowValuesFn& fill,
    const ProfileSource* profiles) const {
  if (!candidate_indexable()) return nullptr;
  return std::make_unique<QGramEditIndex>(threshold(), rows, fill, /*q=*/2,
                                          profiles);
}

NumericToleranceClassifier::NumericToleranceClassifier(std::string name,
                                                       double tolerance,
                                                       double threshold)
    : MlClassifier(std::move(name), threshold), tolerance_(tolerance) {}

double NumericToleranceClassifier::Score(const std::vector<Value>& a,
                                         const std::vector<Value>& b) const {
  double sa = 0;
  double sb = 0;
  size_t na = 0;
  size_t nb = 0;
  for (const Value& v : a) {
    if (!v.is_null() && v.type() != ValueType::kString) {
      sa += v.AsDouble();
      ++na;
    }
  }
  for (const Value& v : b) {
    if (!v.is_null() && v.type() != ValueType::kString) {
      sb += v.AsDouble();
      ++nb;
    }
  }
  if (na == 0 || nb == 0) return 0;
  return NumericSimilarity(sa / na, sb / nb, tolerance_);
}

LearnedPairClassifier::LearnedPairClassifier(std::string name,
                                             double threshold)
    : MlClassifier(std::move(name), threshold) {}

std::vector<double> LearnedPairClassifier::Features(
    const std::vector<Value>& a, const std::vector<Value>& b) {
  std::string sa = ConcatValues(a);
  std::string sb = ConcatValues(b);
  std::vector<double> f;
  f.push_back(Cosine(EmbedText(sa), EmbedText(sb)));
  f.push_back(TokenJaccard(sa, sb));
  f.push_back(EditSimilarity(sa, sb));
  // Length agreement.
  double la = static_cast<double>(sa.size());
  double lb = static_cast<double>(sb.size());
  f.push_back(1.0 - std::fabs(la - lb) / std::max({la, lb, 1.0}));
  // Numeric agreement over aligned numeric attributes.
  double num_sim = 0;
  size_t num_count = 0;
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    bool na = a[i].type() == ValueType::kInt || a[i].type() == ValueType::kDouble;
    bool nb = b[i].type() == ValueType::kInt || b[i].type() == ValueType::kDouble;
    if (na && nb) {
      num_sim += NumericSimilarity(a[i].AsDouble(), b[i].AsDouble(), 0.15);
      ++num_count;
    }
  }
  f.push_back(num_count == 0 ? 0.5 : num_sim / num_count);
  return f;
}

double LearnedPairClassifier::Score(const std::vector<Value>& a,
                                    const std::vector<Value>& b) const {
  std::vector<double> f = Features(a, b);
  if (!trained_) {
    double mean = 0;
    for (double v : f) mean += v;
    return mean / f.size();
  }
  double z = bias_;
  for (size_t i = 0; i < f.size() && i < weights_.size(); ++i) {
    z += weights_[i] * f[i];
  }
  return 1.0 / (1.0 + std::exp(-z));  // squash margin to [0,1]
}

void LearnedPairClassifier::Train(
    const std::vector<std::vector<double>>& features,
    const std::vector<bool>& labels, size_t epochs) {
  if (features.empty()) return;
  size_t dim = features[0].size();
  std::vector<double> w(dim, 0.0);
  double b = 0;
  std::vector<double> w_sum(dim, 0.0);
  double b_sum = 0;
  size_t updates = 1;
  for (size_t e = 0; e < epochs; ++e) {
    for (size_t i = 0; i < features.size(); ++i) {
      double z = b;
      for (size_t j = 0; j < dim; ++j) z += w[j] * features[i][j];
      int y = labels[i] ? 1 : -1;
      if (y * z <= 0) {
        for (size_t j = 0; j < dim; ++j) w[j] += y * features[i][j];
        b += y;
      }
      for (size_t j = 0; j < dim; ++j) w_sum[j] += w[j];
      b_sum += b;
      ++updates;
    }
  }
  weights_.assign(dim, 0.0);
  for (size_t j = 0; j < dim; ++j) weights_[j] = w_sum[j] / updates;
  bias_ = b_sum / updates;
  trained_ = true;
}

}  // namespace dcer
