#ifndef DCER_CHASE_DATASET_PROFILES_H_
#define DCER_CHASE_DATASET_PROFILES_H_

#include <memory>
#include <span>
#include <vector>

#include "ml/profile.h"
#include "relational/dataset.h"
#include "rules/rule.h"

namespace dcer {

/// The one ProfileStore of an opened dataset (DESIGN.md "Vectorized
/// similarity engine"). It profiles exactly the strings the rules' ML
/// predicates can score through profiles — the cells of string columns that
/// form a single-attribute side of some ML predicate — and every engine over
/// the dataset reads it: engine::Match's, each DMatch worker's, and the
/// Resolver's incremental engine.
///
/// Ownership: the owner of the dataset builds it before any engine runs —
/// the Resolver at Open, or engine::Match / engine::DMatch when called
/// standalone — and hands engines the read-only store(). The store changes
/// only in the constructor and in NotifyAppend, and both run in the owner's
/// exclusive phases, never while an engine over the dataset enumerates.
class DatasetProfiles {
 public:
  /// Profiles the ML columns' strings in ascending pool-id order. Builds
  /// nothing (store() is nullptr) when `enabled` is false
  /// (EngineOptions::ml_profiles) or no ML predicate reads a single string
  /// column.
  DatasetProfiles(const Dataset& dataset, const RuleSet& rules, bool enabled);

  DatasetProfiles(const DatasetProfiles&) = delete;
  DatasetProfiles& operator=(const DatasetProfiles&) = delete;

  /// The store engines read; nullptr when profiles are off.
  const ProfileStore* store() const { return store_.get(); }

  /// Profiles the ML cells of tuples just appended to the dataset, including
  /// strings interned earlier that never sat in an ML column before. Call
  /// before ChaseEngine::NotifyAppend, whose indices read the new profiles.
  void NotifyAppend(std::span<const Gid> gids);

 private:
  const Dataset* dataset_;
  std::vector<std::vector<size_t>> ml_attrs_;  // per relation: profiled attrs
  std::unique_ptr<ProfileStore> store_;
};

}  // namespace dcer

#endif  // DCER_CHASE_DATASET_PROFILES_H_
