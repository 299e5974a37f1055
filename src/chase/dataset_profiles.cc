#include "chase/dataset_profiles.h"

#include <algorithm>

#include "common/timer.h"
#include "obs/metrics.h"

namespace dcer {

DatasetProfiles::DatasetProfiles(const Dataset& dataset, const RuleSet& rules,
                                 bool enabled)
    : dataset_(&dataset), ml_attrs_(dataset.num_relations()) {
  if (!enabled) return;
  // Only single-attribute string sides are profiled: a multi-attribute side
  // scores the concatenated text, which no pool string describes, so every
  // profiled path (batch kernels, profiled candidate indices) skips it.
  bool any = false;
  auto add_side = [&](const Rule& rule, int var,
                      const std::vector<int>& attrs) {
    if (attrs.size() != 1) return;
    const size_t rel = static_cast<size_t>(rule.var_relation(var));
    const size_t attr = static_cast<size_t>(attrs[0]);
    if (dataset.relation(rel).column(attr).type() != ValueType::kString) {
      return;
    }
    std::vector<size_t>& cols = ml_attrs_[rel];
    if (std::find(cols.begin(), cols.end(), attr) == cols.end()) {
      cols.push_back(attr);
    }
    any = true;
  };
  for (size_t i = 0; i < rules.size(); ++i) {
    const Rule& rule = rules.rule(i);
    auto visit = [&](const Predicate& p) {
      if (p.kind != PredicateKind::kMl) return;
      add_side(rule, p.lhs.var, p.lhs_ml_attrs);
      add_side(rule, p.rhs.var, p.rhs_ml_attrs);
    };
    for (const Predicate& p : rule.preconditions()) visit(p);
    visit(rule.consequence());
  }
  if (!any) return;

  Timer timer;
  // Mark every id an ML cell references, then profile in ascending id order
  // so the token dictionary is a function of the dataset, not of scan order.
  std::vector<uint8_t> referenced(dataset.pool().size(), 0);
  for (size_t rel = 0; rel < ml_attrs_.size(); ++rel) {
    const Relation& relation = dataset.relation(rel);
    for (size_t attr : ml_attrs_[rel]) {
      const Column& col = relation.column(attr);
      for (size_t row = 0; row < relation.num_rows(); ++row) {
        if (!col.is_null(row)) referenced[col.str_id(row)] = 1;
      }
    }
  }
  std::vector<uint32_t> ids;
  for (uint32_t id = 0; id < referenced.size(); ++id) {
    if (referenced[id]) ids.push_back(id);
  }
  store_ = std::make_unique<ProfileStore>(&dataset.pool());
  store_->Add(ids);
  if (obs::MetricsEnabled()) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    reg.GetCounter("ml.profile_builds")->Increment();
    reg.GetHistogram("ml.profile_build_seconds", obs::Histogram::Unit::kNanos)
        ->RecordSeconds(timer.ElapsedSeconds());
  }
}

void DatasetProfiles::NotifyAppend(std::span<const Gid> gids) {
  if (store_ == nullptr) return;
  std::vector<uint32_t> ids;
  for (Gid gid : gids) {
    const TupleLoc loc = dataset_->loc(gid);
    const Relation& relation = dataset_->relation(loc.relation);
    for (size_t attr : ml_attrs_[loc.relation]) {
      const Column& col = relation.column(attr);
      if (!col.is_null(loc.row)) ids.push_back(col.str_id(loc.row));
    }
  }
  std::sort(ids.begin(), ids.end());  // ascending, like the open-time build
  store_->Add(ids);
}

}  // namespace dcer
