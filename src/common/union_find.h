#ifndef DCER_COMMON_UNION_FIND_H_
#define DCER_COMMON_UNION_FIND_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dcer {

/// Disjoint-set forest with path compression and union by size.
///
/// Backs the equivalence relation E_id of deduced matches (Sec. V-A (3) of
/// the paper): each element is a global tuple id, and two tuples are matched
/// iff they share a root. Class members can be enumerated in O(class size)
/// via an intrusive circular linked list, which IncDeduce uses to compute the
/// delta pair set produced by a merge.
class UnionFind {
 public:
  UnionFind() = default;
  explicit UnionFind(size_t n) { Reset(n); }

  /// Re-initializes to n singleton classes.
  void Reset(size_t n);

  /// Extends the universe to n elements (new elements are singletons);
  /// no-op if already at least that large. Supports incremental ER over
  /// appended tuples.
  void Grow(size_t n);

  size_t size() const { return parent_.size(); }

  /// Root of x's class (with path compression).
  uint32_t Find(uint32_t x) const;

  bool Same(uint32_t a, uint32_t b) const { return Find(a) == Find(b); }

  /// Root of x's class without path compression: performs no writes, so any
  /// number of threads may call it concurrently as long as nobody runs
  /// Union/Find/Reset/Grow. GammaSnapshot reads roots through it.
  uint32_t FindNoCompress(uint32_t x) const {
    while (parent_[x] != x) x = parent_[x];
    return x;
  }

  /// Merges the classes of a and b. Returns true if they were distinct.
  bool Union(uint32_t a, uint32_t b);

  /// Number of elements in x's class.
  uint32_t ClassSize(uint32_t x) const { return size_[Find(x)]; }

  /// All members of x's class, including x.
  std::vector<uint32_t> ClassMembers(uint32_t x) const;

  /// Number of classes with >= 2 members.
  size_t NumNonTrivialClasses() const;

  /// Total number of matched (unordered, non-reflexive) pairs implied by the
  /// equivalence closure: sum over classes of |C| choose 2.
  uint64_t NumMatchedPairs() const;

 private:
  mutable std::vector<uint32_t> parent_;
  std::vector<uint32_t> size_;
  // next_[x] links members of a class in a circular list for enumeration.
  std::vector<uint32_t> next_;
};

}  // namespace dcer

#endif  // DCER_COMMON_UNION_FIND_H_
