#ifndef DCER_CHASE_ENGINE_OPTIONS_H_
#define DCER_CHASE_ENGINE_OPTIONS_H_

#include <cstddef>

namespace dcer {

/// Engine knobs shared by every entry point that runs a chase — the
/// sequential engine::Match, the BSP DMatch workers, and the Resolver's
/// open and Append paths. Factored into one base so a setting cannot drift
/// between the sequential and parallel paths: MatchOptions, DMatchOptions
/// and ResolverOptions all inherit this, and all map it onto
/// ChaseEngine::Options through the same helper
/// (ChaseEngine::FromEngineOptions). Every knob here changes cost, never
/// Γ or E_id.
struct EngineOptions {
  /// Capacity K of the dependency set H (per worker under DMatch). Dropped
  /// dependencies only cost re-joins, never results.
  size_t dependency_capacity = size_t{1} << 20;
  /// MQO on/off: shared inverted indices in the chase (and shared HyPart
  /// hash functions under DMatch). Off = the DMatch_noMQO ablation.
  bool use_mqo = true;
  /// Pool threads used to split a chase's join enumeration and its large
  /// IncDeduce rounds (per worker under DMatch). 1 = fully single-threaded
  /// chase, as in the paper's BSP model. Any value yields bit-identical
  /// results; see DESIGN.md "Parallel execution model".
  int threads = 1;
  /// Similarity-index candidate generation for ML predicates (see DESIGN.md
  /// "ML candidate indices"): token/q-gram indices turn Jaccard and
  /// edit-similarity predicates into index probes instead of cross-product
  /// post-filters. Sound — matched pairs are bit-identical either way.
  bool ml_index = true;
  /// Vectorized similarity engine (see DESIGN.md): precompute token/q-gram
  /// profiles of the ML columns' strings once per dataset (one store shared
  /// by every engine over it) and evaluate string ML
  /// predicates with one-vs-many batch kernels (SIMD-dispatched, scalar
  /// fallback via DCER_SIMD=0). Scores and matched pairs are bit-identical
  /// with the knob on or off; off only trades speed for memory.
  bool ml_profiles = true;
};

}  // namespace dcer

#endif  // DCER_CHASE_ENGINE_OPTIONS_H_
