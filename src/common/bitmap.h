#ifndef DCER_COMMON_BITMAP_H_
#define DCER_COMMON_BITMAP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dcer {

/// Growable set of small non-negative integers (row indices, global tuple
/// ids) stored as one bit each. Membership is one shift and one load, and
/// freeing it is one deallocation — the reasons it replaces per-element
/// hash maps on the chase's hot and teardown paths.
class Bitmap {
 public:
  Bitmap() = default;
  /// Sized for elements [0, bits) up front; Set still grows past it.
  explicit Bitmap(size_t bits) : words_((bits + 63) / 64, 0) {}

  bool Test(size_t i) const {
    const size_t w = i >> 6;
    return w < words_.size() && ((words_[w] >> (i & 63)) & 1) != 0;
  }

  /// Adds `i`; returns true iff it was absent.
  bool Set(size_t i) {
    const size_t w = i >> 6;
    if (w >= words_.size()) words_.resize(w + 1, 0);
    const uint64_t bit = uint64_t{1} << (i & 63);
    if ((words_[w] & bit) != 0) return false;
    words_[w] |= bit;
    ++count_;
    return true;
  }

  /// Number of elements present.
  size_t count() const { return count_; }

 private:
  std::vector<uint64_t> words_;
  size_t count_ = 0;
};

}  // namespace dcer

#endif  // DCER_COMMON_BITMAP_H_
