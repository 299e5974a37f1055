#include "chase/view.h"

#include <numeric>

namespace dcer {

DatasetView DatasetView::Full(const Dataset& dataset) {
  std::vector<std::vector<uint32_t>> rows(dataset.num_relations());
  for (size_t r = 0; r < dataset.num_relations(); ++r) {
    rows[r].resize(dataset.relation(r).num_rows());
    std::iota(rows[r].begin(), rows[r].end(), 0);
  }
  return DatasetView(&dataset, std::move(rows));
}

void DatasetView::BuildMembership() {
  hosted_ = Bitmap(dataset_->num_tuples());
  for (size_t rel = 0; rel < rows_.size(); ++rel) {
    const Relation& relation = dataset_->relation(rel);
    for (uint32_t row : rows_[rel]) hosted_.Set(relation.gid(row));
  }
}

}  // namespace dcer
