#ifndef DCER_ML_REGISTRY_H_
#define DCER_ML_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "ml/classifier.h"

namespace dcer {

/// Fixed-capacity concurrent memo table for boolean predictions: a striped
/// open-addressing array of 64-bit atomic slots, each packing (key, value,
/// occupied) into one word. Hits are a handful of relaxed atomic loads (no
/// lock, no shared-cacheline write); inserts are a single CAS. Every leaf
/// valuation of the chase probes this table, which is why the previous
/// two-lock-per-call sharded-map design showed up in profiles.
///
/// Because predictions are pure functions of the key, the table can be
/// lossy: when a probe window is full the insert is dropped and the caller
/// simply recomputes next time. Racing inserts of the same key write the
/// same packed word, so every outcome is consistent.
class PredictionCache {
 public:
  /// `slots_per_stripe_log2`: each of the 64 stripes holds 2^k slots
  /// (8 bytes per slot). The default 2^13 gives a 4 MiB table.
  explicit PredictionCache(int slots_per_stripe_log2 = 13);

  /// 0 = cached false, 1 = cached true, -1 = not cached.
  int Lookup(uint64_t key) const;

  /// Memoizes key -> value; silently dropped if the probe window is full.
  void Insert(uint64_t key, bool value);

  /// Empties the table. NOT safe concurrently with Lookup/Insert; callers
  /// (bench harness) clear only between runs.
  void Clear();

 private:
  static constexpr size_t kStripes = 64;
  static constexpr size_t kProbeWindow = 16;

  // Slot word: 0 = empty; else (key << 2) | 2 | value. Dropping the key's
  // top two bits is harmless — keys are already 64-bit hashes.
  static uint64_t Pack(uint64_t key, bool value) {
    return (key << 2) | 2 | static_cast<uint64_t>(value);
  }

  struct Stripe {
    std::unique_ptr<std::atomic<uint64_t>[]> slots;
  };

  size_t mask_;  // slots per stripe - 1
  Stripe stripes_[kStripes];
};

/// Holds the named ML classifiers referenced by MRLs (M1, M2, ...) and
/// memoizes their predictions. ML predicates are pure functions of their
/// attribute vectors, so the chase may ask about the same pair many times
/// (once per rule and superstep); the lock-free cache makes repeats cheap
/// and keeps parallel workers from serializing on mutexes.
class MlRegistry {
 public:
  MlRegistry() = default;

  MlRegistry(const MlRegistry&) = delete;
  MlRegistry& operator=(const MlRegistry&) = delete;

  /// Registers a classifier; returns its dense id. Names must be unique.
  int Register(std::unique_ptr<MlClassifier> classifier);

  /// Id of the classifier with this name, or -1.
  int Lookup(const std::string& name) const;

  size_t size() const { return classifiers_.size(); }
  const MlClassifier& classifier(int id) const { return *classifiers_[id]; }

  /// Cached boolean prediction of classifier `id` on (a, b).
  /// `pair_key` must uniquely identify (predicate instance, tuple pair);
  /// the chase passes hash(pred-signature, gid_a, gid_b). Thread-safe.
  bool Predict(int id, uint64_t pair_key, const std::vector<Value>& a,
               const std::vector<Value>& b) const;

  /// Cache-probe half of Predict: 0/1 when the prediction is memoized
  /// (counted as a hit), -1 when the caller must materialize the attribute
  /// vectors and call PredictAndCache. Lets the chase skip building (a, b)
  /// entirely on the hit path. Thread-safe.
  int CachedPrediction(int id, uint64_t pair_key) const;

  /// Compute half of Predict: runs the classifier and memoizes the result.
  /// Thread-safe; racing computes agree (classifiers are pure).
  bool PredictAndCache(int id, uint64_t pair_key, const std::vector<Value>& a,
                       const std::vector<Value>& b) const;

  /// Stats-free cache probe (no hit counter): the batch evaluator uses it to
  /// decide which candidates still need scoring, so each ML evaluation counts
  /// once, as a prediction or as a hit, on either path. Thread-safe.
  int PeekPrediction(int id, uint64_t pair_key) const;

  /// Memoizes an externally computed prediction (batch kernels). Counted as
  /// a prediction — the batch kernel did run the classifier's decision
  /// procedure, just not through Predict(). Thread-safe.
  void InsertPrediction(int id, uint64_t pair_key, bool value) const;

  /// Uncached score (for baselines and diagnostics).
  double Score(int id, const std::vector<Value>& a,
               const std::vector<Value>& b) const {
    return classifiers_[id]->Score(a, b);
  }

  uint64_t num_predictions() const { return num_predictions_.load(); }
  uint64_t num_cache_hits() const { return num_cache_hits_.load(); }
  void ResetStats();
  void ClearCache();

 private:
  std::vector<std::unique_ptr<MlClassifier>> classifiers_;
  std::unordered_map<std::string, int> by_name_;

  mutable PredictionCache cache_;
  mutable std::atomic<uint64_t> num_predictions_{0};
  mutable std::atomic<uint64_t> num_cache_hits_{0};
};

}  // namespace dcer

#endif  // DCER_ML_REGISTRY_H_
