#ifndef DCER_CHASE_VIEW_H_
#define DCER_CHASE_VIEW_H_

#include <vector>

#include "common/bitmap.h"
#include "relational/dataset.h"

namespace dcer {

/// A view over a subset of a dataset's rows: either the whole dataset (the
/// sequential Match) or one fragment W_i produced by HyPart (each parallel
/// worker). Rows are row indices into the underlying relations, so no tuple
/// data is copied. Membership is a bitmap over global tuple ids: a hosted
/// gid's row is the dataset's own `loc(gid).row`, so the view keeps no
/// per-tuple map — building, probing and freeing it stay O(|D| / 64) words.
class DatasetView {
 public:
  DatasetView() = default;
  DatasetView(const Dataset* dataset,
              std::vector<std::vector<uint32_t>> rows_per_relation)
      : dataset_(dataset), rows_(std::move(rows_per_relation)) {
    BuildMembership();
  }

  /// View covering every row of every relation.
  static DatasetView Full(const Dataset& dataset);

  const Dataset& dataset() const { return *dataset_; }
  size_t num_relations() const { return rows_.size(); }

  /// Rows of relation `rel` visible in this view.
  const std::vector<uint32_t>& rows(size_t rel) const { return rows_[rel]; }

  /// Total visible tuples.
  size_t num_tuples() const { return hosted_.count(); }

  /// True if the tuple with this global id is visible.
  bool Hosts(Gid gid) const { return hosted_.Test(gid); }

  /// Row index (into the underlying relation) of a hosted gid; kInvalidGid
  /// cast if not hosted.
  uint32_t RowOf(Gid gid) const {
    return hosted_.Test(gid) ? dataset_->loc(gid).row : kInvalidGid;
  }

  /// Adds a newly appended tuple to the view (incremental ER over updates
  /// ΔD, Sec. V-A Remark). The gid must refer to a row already appended to
  /// the underlying dataset.
  void Append(Gid gid) {
    TupleLoc loc = dataset_->loc(gid);
    if (loc.relation >= rows_.size()) rows_.resize(loc.relation + 1);
    if (hosted_.Set(gid)) rows_[loc.relation].push_back(loc.row);
  }

 private:
  void BuildMembership();

  const Dataset* dataset_ = nullptr;
  std::vector<std::vector<uint32_t>> rows_;
  Bitmap hosted_;  // by gid
};

/// One evaluation scope of a rule on a DMatch worker: a cell of the rule's
/// Hypercube. `view` holds every row sent to the cell, per relation — the
/// rows the scope's indices are built on. `roles[q]` is a bitmap over the
/// rows of q's relation holding only the rows sent *for tuple variable q*,
/// so binding each variable to its own role rows enumerates every valuation
/// of the rule in exactly one cell.
struct RuleBlock {
  DatasetView view;
  std::vector<Bitmap> roles;  // [var]
};

}  // namespace dcer

#endif  // DCER_CHASE_VIEW_H_
