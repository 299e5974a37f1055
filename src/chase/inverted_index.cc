#include "chase/inverted_index.h"

#include <cmath>
#include <cstring>

#include "chase/fact.h"

namespace dcer {

namespace {
uint64_t Key(size_t rel, size_t attr) {
  return (static_cast<uint64_t>(rel) << 32) | static_cast<uint64_t>(attr);
}

uint64_t MlKey(int ml_id, size_t rel, const std::vector<int>& attrs) {
  return HashCombine(HashInt(static_cast<uint64_t>(ml_id) + 0x4d),
                     MlSideSignature(static_cast<int>(rel), attrs));
}
}  // namespace

bool EqLookupCode(const Relation& rel, size_t attr, const Value& v,
                  uint64_t* code) {
  if (v.is_null()) return false;
  const ValueType col_type = rel.column(attr).type();
  if (v.type() != col_type) return false;  // cross-type equality never holds
  switch (col_type) {
    case ValueType::kInt:
      *code = static_cast<uint64_t>(v.AsInt());
      return true;
    case ValueType::kDouble: {
      double d = v.AsDouble();
      if (std::isnan(d)) return false;  // NaN != NaN: matches nothing
      if (d == 0.0) d = 0.0;            // canonicalize -0.0 like the column
      uint64_t bits;
      __builtin_memcpy(&bits, &d, sizeof(bits));
      *code = bits;
      return true;
    }
    case ValueType::kString: {
      uint32_t id = v.intern_id();
      if (id == Value::kNoId) id = rel.pool().Find(v.AsString());
      if (id == StringPool::kNpos) return false;  // not interned anywhere in D
      *code = id;
      return true;
    }
    case ValueType::kNull:
      break;
  }
  return false;
}

bool JoinableCellCode(const Relation& rel, uint32_t row, size_t attr,
                      uint64_t* code) {
  const Column& col = rel.column(attr);
  if (col.is_null(row)) return false;
  if (col.type() == ValueType::kDouble && std::isnan(col.double_at(row))) {
    return false;
  }
  *code = col.code_at(row);
  return true;
}

const DatasetIndex::AttrIndex& DatasetIndex::GetOrBuild(size_t rel,
                                                        size_t attr) {
  uint64_t key = Key(rel, attr);
  auto it = indices_.find(key);
  if (it != indices_.end()) return *it->second;

  auto index = std::make_unique<AttrIndex>();
  const Relation& relation = view_->dataset().relation(rel);
  // One columnar slice: null-bitmap test plus a flat typed read per row, no
  // variant dispatch and no string hashing (codes are ids/bit patterns).
  const Column& col = relation.column(attr);
  const bool is_double = col.type() == ValueType::kDouble;
  for (uint32_t row : view_->rows(rel)) {
    if (col.is_null(row)) continue;  // NULL never joins through an index
    if (is_double && std::isnan(col.double_at(row))) continue;  // NaN != NaN
    (*index)[col.code_at(row)].push_back(row);
  }
  ++num_built_;
  auto [pos, _] = indices_.emplace(key, std::move(index));
  return *pos->second;
}

void DatasetIndex::NotifyAppend(size_t rel, uint32_t row) {
  const Relation& relation = view_->dataset().relation(rel);
  for (auto& [key, index] : indices_) {
    if ((key >> 32) != rel) continue;
    size_t attr = static_cast<size_t>(key & 0xffffffffu);
    uint64_t code;
    if (JoinableCellCode(relation, row, attr, &code)) {
      (*index)[code].push_back(row);
    }
  }
  std::vector<Value> values;
  for (auto& [key, entry] : ml_indices_) {
    if (entry.rel != rel) continue;
    values.clear();
    for (int a : entry.attrs) values.push_back(relation.at(row, a));
    entry.index->Add(row, values);
  }
}

const MlCandidateIndex* DatasetIndex::GetOrBuildMl(
    const MlClassifier& classifier, int ml_id, size_t rel,
    const std::vector<int>& attrs) {
  const uint64_t key = MlKey(ml_id, rel, attrs);
  auto it = ml_indices_.find(key);
  if (it != ml_indices_.end() &&
      it->second.build_threshold == classifier.threshold()) {
    return it->second.index.get();
  }
  const Relation& relation = view_->dataset().relation(rel);
  RowValuesFn fill = [&relation, &attrs](uint32_t row,
                                         std::vector<Value>* out) {
    out->clear();
    for (int a : attrs) out->push_back(relation.at(row, a));
  };
  // Single string attribute: the side's text is exactly the pool string the
  // cell references, so profiled indices can address profiles by str_id.
  ProfileSource source;
  if (profiles_ != nullptr && attrs.size() == 1 &&
      relation.column(attrs[0]).type() == ValueType::kString) {
    const Column* col = &relation.column(attrs[0]);
    source.store = profiles_;
    source.intern_of = [col](uint32_t row) {
      return col->is_null(row) ? ProfileStore::kNpos : col->str_id(row);
    };
  }
  std::unique_ptr<MlCandidateIndex> index = classifier.BuildCandidateIndex(
      view_->rows(rel), fill, source.store != nullptr ? &source : nullptr);
  if (index == nullptr) return nullptr;  // classifier cannot index
  ++num_ml_built_;
  MlIndexEntry entry{std::move(index), rel, attrs, classifier.threshold()};
  return ml_indices_.insert_or_assign(key, std::move(entry))
      .first->second.index.get();
}

const std::vector<uint32_t>& DatasetIndex::Lookup(size_t rel, size_t attr,
                                                  const Value& v) {
  uint64_t code;
  if (!EqLookupCode(view_->dataset().relation(rel), attr, v, &code)) {
    return empty_;
  }
  return LookupCode(rel, attr, code);
}

const std::vector<uint32_t>& DatasetIndex::LookupCode(size_t rel, size_t attr,
                                                      uint64_t code) {
  const AttrIndex& index = GetOrBuild(rel, attr);
  auto it = index.find(code);
  return it == index.end() ? empty_ : it->second;
}

}  // namespace dcer
