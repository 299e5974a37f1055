#ifndef DCER_ML_CLASSIFIER_H_
#define DCER_ML_CLASSIFIER_H_

#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "ml/candidate_index.h"
#include "ml/embedding.h"
#include "relational/value.h"

namespace dcer {

/// Which profile-backed one-vs-many kernel (ml/profile.h) evaluates this
/// classifier's boolean predicate in bulk. kNone keeps per-pair Predict.
/// A batch kernel must return bit-for-bit the same booleans as Predict on
/// every pair — the join mixes batched and per-pair evaluation freely.
enum class MlBatchKernel { kNone, kTokenJaccard, kEditSimilarity };

/// The boolean ML oracle M(t[Ā], s[B̄]) of Sec. II: a well-trained classifier
/// applied to two attribute-value vectors, returning true iff it predicts a
/// match. Implementations must be deterministic and thread-safe (Predict is
/// called concurrently from BSP workers). Probabilistic models are exposed
/// through Score() plus a threshold, matching the paper's Remark (2).
class MlClassifier {
 public:
  explicit MlClassifier(std::string name, double threshold = 0.5)
      : name_(std::move(name)), threshold_(threshold) {}
  virtual ~MlClassifier() = default;

  MlClassifier(const MlClassifier&) = delete;
  MlClassifier& operator=(const MlClassifier&) = delete;

  const std::string& name() const { return name_; }
  double threshold() const { return threshold_; }
  void set_threshold(double t) { threshold_ = t; }

  /// Match probability/score in [0, 1].
  virtual double Score(const std::vector<Value>& a,
                       const std::vector<Value>& b) const = 0;

  /// Boolean prediction (the predicate's truth value). Virtual so
  /// classifiers with an exact decision procedure cheaper than the full
  /// score (e.g. banded edit distance) can override it; any override must
  /// return exactly Score(a, b) >= threshold().
  virtual bool Predict(const std::vector<Value>& a,
                       const std::vector<Value>& b) const {
    return Score(a, b) >= threshold_;
  }

  /// Profile-backed batch kernel for this classifier (kNone by default).
  virtual MlBatchKernel batch_kernel() const { return MlBatchKernel::kNone; }

  /// Drops any internal memoization (e.g. per-text embeddings). Called by
  /// MlRegistry::ClearCache so benchmark repetitions start cold.
  virtual void ClearMemo() const {}

  /// Whether this classifier can act as a candidate generator instead of a
  /// pairwise post-filter: its index's Probe returns a *sound superset* of
  /// the rows whose score reaches the threshold. false (the default) keeps
  /// the full-scan join behaviour.
  virtual bool candidate_indexable() const { return false; }

  /// Builds a candidate index over one side of the predicate (`rows`, with
  /// attribute values supplied by `fill`). Returns nullptr when
  /// candidate_indexable() is false. The index's Probe must honour the
  /// classifier's *current* threshold; callers rebuild if the threshold
  /// changes after construction. `profiles` (optional) lets string indices
  /// build from precomputed ProfileStore arenas; the resulting index probes
  /// identically with or without it.
  virtual std::unique_ptr<MlCandidateIndex> BuildCandidateIndex(
      const std::vector<uint32_t>& rows, const RowValuesFn& fill,
      const ProfileSource* profiles = nullptr) const {
    (void)rows;
    (void)fill;
    (void)profiles;
    return nullptr;
  }

 private:
  std::string name_;
  double threshold_;
};

/// "fasttext-like": concatenates the string renderings of all attributes,
/// embeds with hashed char n-grams, scores by cosine. Good at typos,
/// abbreviations and token reorderings in long text (product descriptions).
///
/// Embeddings are memoized per concatenated text: the chase scores each
/// tuple against many candidates, and hashing the n-grams of the same text
/// over and over dominated cold-prediction time. The memo is shared-lock
/// protected (concurrent Score calls from BSP workers).
class EmbeddingCosineClassifier : public MlClassifier {
 public:
  EmbeddingCosineClassifier(std::string name, double threshold = 0.8,
                            size_t dim = 64);
  double Score(const std::vector<Value>& a,
               const std::vector<Value>& b) const override;
  void ClearMemo() const override;

 private:
  const Embedding& CachedEmbed(std::string text) const;

  size_t dim_;
  mutable std::shared_mutex memo_mutex_;
  // node-based map: rehash never invalidates the references CachedEmbed
  // hands out.
  mutable std::unordered_map<std::string, Embedding> memo_;
};

/// Token-set Jaccard over concatenated attributes (schema-agnostic matcher
/// building block, also used by the SparkER-like baseline).
class TokenJaccardClassifier : public MlClassifier {
 public:
  explicit TokenJaccardClassifier(std::string name, double threshold = 0.5);
  double Score(const std::vector<Value>& a,
               const std::vector<Value>& b) const override;

  /// Batched evaluation: sorted token-id intersection over profiles.
  MlBatchKernel batch_kernel() const override {
    return MlBatchKernel::kTokenJaccard;
  }

  /// Sound PPJoin-style prefix+length filtered token index.
  bool candidate_indexable() const override;
  std::unique_ptr<MlCandidateIndex> BuildCandidateIndex(
      const std::vector<uint32_t>& rows, const RowValuesFn& fill,
      const ProfileSource* profiles = nullptr) const override;
};

/// Normalized edit similarity over concatenated attributes (short strings:
/// names, emails).
class EditSimilarityClassifier : public MlClassifier {
 public:
  explicit EditSimilarityClassifier(std::string name, double threshold = 0.75);
  double Score(const std::vector<Value>& a,
               const std::vector<Value>& b) const override;

  /// Threshold-aware prediction: converts the threshold to the exact edit
  /// bound (EditPassBound), rejects on the length band, and runs the banded
  /// DP — same boolean as Score >= threshold, usually without finishing the
  /// full distance.
  bool Predict(const std::vector<Value>& a,
               const std::vector<Value>& b) const override;

  /// Batched evaluation: banded Myers over cached lengths/gram sketches.
  MlBatchKernel batch_kernel() const override {
    return MlBatchKernel::kEditSimilarity;
  }

  /// Sound q-gram count + length filtered index.
  bool candidate_indexable() const override;
  std::unique_ptr<MlCandidateIndex> BuildCandidateIndex(
      const std::vector<uint32_t>& rows, const RowValuesFn& fill,
      const ProfileSource* profiles = nullptr) const override;
};

/// Numeric agreement within a relative tolerance (e.g., song durations,
/// odometer readings). Score is NumericSimilarity of the attribute means.
class NumericToleranceClassifier : public MlClassifier {
 public:
  NumericToleranceClassifier(std::string name, double tolerance,
                             double threshold = 0.99);
  double Score(const std::vector<Value>& a,
               const std::vector<Value>& b) const override;

 private:
  double tolerance_;
};

/// "DeepER-like": a trainable linear model over per-attribute similarity
/// features (cosine, jaccard, edit, numeric agreement). Train() fits weights
/// by averaged perceptron on labeled pairs; before training it behaves as an
/// unweighted mean of features. See DESIGN.md §4 for why this substitution
/// preserves the experiments' behaviour.
class LearnedPairClassifier : public MlClassifier {
 public:
  explicit LearnedPairClassifier(std::string name, double threshold = 0.5);

  double Score(const std::vector<Value>& a,
               const std::vector<Value>& b) const override;

  /// Per-pair feature vector; exposed for training and for the baselines.
  static std::vector<double> Features(const std::vector<Value>& a,
                                      const std::vector<Value>& b);

  /// Fits weights with averaged perceptron over `epochs` passes.
  void Train(const std::vector<std::vector<double>>& features,
             const std::vector<bool>& labels, size_t epochs = 10);

  const std::vector<double>& weights() const { return weights_; }

 private:
  std::vector<double> weights_;  // empty until trained
  double bias_ = 0;
  bool trained_ = false;
};

}  // namespace dcer

#endif  // DCER_ML_CLASSIFIER_H_
