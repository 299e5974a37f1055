#include "chase/join.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace dcer {

uint64_t MlClassKey(int ml_id, uint64_t lhs_sig, uint64_t rhs_sig) {
  return HashCombine(HashInt(static_cast<uint64_t>(ml_id) + 0xd7),
                     HashUnorderedPair(lhs_sig, rhs_sig));
}

std::unordered_set<uint64_t> DerivableMlKeys(const RuleSet& rules) {
  std::unordered_set<uint64_t> keys;
  for (size_t i = 0; i < rules.size(); ++i) {
    const Rule& rule = rules.rule(i);
    const Predicate& c = rule.consequence();
    if (c.kind != PredicateKind::kMl) continue;
    uint64_t lhs_sig =
        MlSideSignature(rule.var_relation(c.lhs.var), c.lhs_ml_attrs);
    uint64_t rhs_sig =
        MlSideSignature(rule.var_relation(c.rhs.var), c.rhs_ml_attrs);
    keys.insert(MlClassKey(c.ml_id, lhs_sig, rhs_sig));
  }
  return keys;
}

std::unordered_set<uint64_t> ReadMlKeys(const RuleSet& rules) {
  std::unordered_set<uint64_t> keys;
  for (size_t i = 0; i < rules.size(); ++i) {
    const Rule& rule = rules.rule(i);
    for (const Predicate& p : rule.preconditions()) {
      if (p.kind != PredicateKind::kMl) continue;
      uint64_t lhs_sig =
          MlSideSignature(rule.var_relation(p.lhs.var), p.lhs_ml_attrs);
      uint64_t rhs_sig =
          MlSideSignature(rule.var_relation(p.rhs.var), p.rhs_ml_attrs);
      keys.insert(MlClassKey(p.ml_id, lhs_sig, rhs_sig));
    }
  }
  return keys;
}

RuleJoiner::RuleJoiner(DatasetIndex* index, const Rule* rule,
                       const MlRegistry* registry, const MatchContext* ctx,
                       std::span<const Bitmap> roles)
    : index_(index), rule_(rule), registry_(registry), ctx_(ctx),
      roles_(roles) {
  size_t n = rule_->num_vars();
  assert(n <= 64 && "binding plans are keyed by a 64-bit variable mask");
  assert(roles_.empty() || roles_.size() == n);
  const_preds_.resize(n);
  self_eqs_.resize(n);
  const auto& pre = rule_->preconditions();
  for (size_t i = 0; i < pre.size(); ++i) {
    const Predicate& p = pre[i];
    switch (p.kind) {
      case PredicateKind::kConstEq:
        const_preds_[p.lhs.var].push_back(&p);
        break;
      case PredicateKind::kAttrEq:
        if (p.lhs.var == p.rhs.var) {
          self_eqs_[p.lhs.var].push_back(&p);
        } else {
          cross_eqs_.push_back(&p);
        }
        break;
      case PredicateKind::kIdEq:
      case PredicateKind::kMl:
        leaf_preds_.push_back(static_cast<int>(i));
        break;
    }
  }
  distinct_partner_.assign(n, -1);
  const Predicate& c = rule_->consequence();
  if (c.kind == PredicateKind::kIdEq && c.lhs.var != c.rhs.var &&
      rule_->var_relation(c.lhs.var) == rule_->var_relation(c.rhs.var)) {
    distinct_partner_[c.lhs.var] = c.rhs.var;
    distinct_partner_[c.rhs.var] = c.lhs.var;
  }
  binding_.assign(n, kInvalidGid);
  bound_.assign(n, false);
  constraint_scratch_.resize(n);
  ml_probe_scratch_.resize(n);
  if (!roles_.empty()) role_scratch_.resize(n);
  ml_prunable_.assign(pre.size(), 0);
  batch_scored_.resize(pre.size());
  batch_var_.assign(pre.size(), -1);
  root_plan_ = PlanFor(0);
}

void RuleJoiner::ConfigureMlIndex(MlIndexPolicy policy) {
  ml_policy_ = std::move(policy);
  const auto& pre = rule_->preconditions();
  ml_prunable_.assign(pre.size(), 0);
  if (ml_policy_.enabled) {
    for (int i : leaf_preds_) {
      const Predicate& p = pre[i];
      if (p.kind != PredicateKind::kMl) continue;
      if (p.lhs.var == p.rhs.var) continue;  // both sides bind together
      if (!registry_->classifier(p.ml_id).candidate_indexable()) continue;
      if (ml_policy_.derivable != nullptr) {
        uint64_t lhs_sig =
            MlSideSignature(rule_->var_relation(p.lhs.var), p.lhs_ml_attrs);
        uint64_t rhs_sig =
            MlSideSignature(rule_->var_relation(p.rhs.var), p.rhs_ml_attrs);
        if (ml_policy_.derivable->count(
                MlClassKey(p.ml_id, lhs_sig, rhs_sig)) > 0) {
          continue;  // facts of this class can become validated later
        }
      }
      ml_prunable_[i] = 1;
    }
  }
  // Prunable ML predicates are join links now: recompute every plan.
  plan_cache_.clear();
  root_plan_ = PlanFor(0);
}

Gid RuleJoiner::GidOf(int var, uint32_t row) const {
  return index_->view().dataset().relation(rule_->var_relation(var)).gid(row);
}

void RuleJoiner::FillMlValues(int var, const std::vector<int>& attrs,
                              uint32_t row, std::vector<Value>* out) const {
  const Relation& rel =
      index_->view().dataset().relation(rule_->var_relation(var));
  out->clear();
  out->reserve(attrs.size());
  for (int a : attrs) out->push_back(rel.at(row, a));
}

std::vector<Value> RuleJoiner::MlValues(int var, const std::vector<int>& attrs,
                                        uint32_t row) const {
  std::vector<Value> out;
  FillMlValues(var, attrs, row, &out);
  return out;
}

Fact RuleJoiner::MlFactFor(const Predicate& p,
                           const std::vector<uint32_t>& rows) const {
  uint64_t a_sig =
      MlSideSignature(rule_->var_relation(p.lhs.var), p.lhs_ml_attrs);
  uint64_t b_sig =
      MlSideSignature(rule_->var_relation(p.rhs.var), p.rhs_ml_attrs);
  return Fact::MlValidated(p.ml_id, GidOf(p.lhs.var, rows[p.lhs.var]), a_sig,
                           GidOf(p.rhs.var, rows[p.rhs.var]), b_sig);
}

bool RuleJoiner::EvalIdOrMl(int pred_index,
                            const std::vector<uint32_t>& rows) const {
  const Predicate& p = rule_->preconditions()[pred_index];
  if (p.kind == PredicateKind::kIdEq) {
    Gid a = GidOf(p.lhs.var, rows[p.lhs.var]);
    Gid b = GidOf(p.rhs.var, rows[p.rhs.var]);
    return shared_context_reads_ ? ctx_->MatchedShared(a, b)
                                 : ctx_->Matched(a, b);
  }
  Fact f = MlFactFor(p, rows);
  const uint64_t key = f.Key();
  if (ctx_->IsValidatedMl(key)) return true;
  // Probe the prediction cache before materializing the attribute vectors:
  // hits (the common case once the chase is warm) never touch the tuples.
  // A verdict the batch kernels produced in this loop was counted as a
  // prediction there; reading it back is the same evaluation, not a hit.
  if (const int var = batch_var_[pred_index]; var >= 0) {
    std::vector<uint32_t>& scored = batch_scored_[pred_index];
    const uint32_t row = rows[var];
    if (row < scored.size() && (scored[row] >> 1) == batch_gen_) {
      const bool holds = (scored[row] & 1) != 0;
      scored[row] = 0;
      return holds;
    }
  }
  const int cached = registry_->CachedPrediction(p.ml_id, key);
  if (cached >= 0) return cached != 0;
  FillMlValues(p.lhs.var, p.lhs_ml_attrs, rows[p.lhs.var], &ml_scratch_a_);
  FillMlValues(p.rhs.var, p.rhs_ml_attrs, rows[p.rhs.var], &ml_scratch_b_);
  return registry_->PredictAndCache(p.ml_id, key, ml_scratch_a_,
                                    ml_scratch_b_);
}

bool RuleJoiner::LeafHolds(int pred_index,
                           const std::vector<uint32_t>& rows) {
  return EvalIdOrMl(pred_index, rows);
}

void RuleJoiner::PrewarmIndexes() {
  for (const Predicate* p : cross_eqs_) {
    index_->EnsureBuilt(rule_->var_relation(p->lhs.var), p->lhs.attr);
    index_->EnsureBuilt(rule_->var_relation(p->rhs.var), p->rhs.attr);
  }
  for (size_t v = 0; v < const_preds_.size(); ++v) {
    for (const Predicate* p : const_preds_[v]) {
      index_->EnsureBuilt(rule_->var_relation(static_cast<int>(v)),
                          p->lhs.attr);
    }
  }
  // Both orientations: which side probes depends on the binding order of
  // the (possibly seeded) plan in effect when the predicate is reached.
  for (int i : leaf_preds_) {
    if (!ml_prunable_[i]) continue;
    const Predicate& p = rule_->preconditions()[i];
    const MlClassifier& clf = registry_->classifier(p.ml_id);
    index_->EnsureMlBuilt(clf, p.ml_id, rule_->var_relation(p.lhs.var),
                          p.lhs_ml_attrs);
    index_->EnsureMlBuilt(clf, p.ml_id, rule_->var_relation(p.rhs.var),
                          p.rhs_ml_attrs);
  }
}

bool RuleJoiner::RowSatisfiesLocalPreds(int var, uint32_t row) const {
  const Relation& rel =
      index_->view().dataset().relation(rule_->var_relation(var));
  for (const Predicate* p : const_preds_[var]) {
    if (!EqJoinable(rel.at(row, p->lhs.attr), p->constant)) return false;
  }
  for (const Predicate* p : self_eqs_[var]) {
    if (!EqJoinable(rel.at(row, p->lhs.attr), rel.at(row, p->rhs.attr))) {
      return false;
    }
  }
  return true;
}

int RuleJoiner::PickNextVar(uint64_t bound_mask) const {
  int best = -1;
  int best_links = -1;
  size_t best_size = 0;
  for (size_t v = 0; v < rule_->num_vars(); ++v) {
    if (bound_mask & (uint64_t{1} << v)) continue;
    // Equality links weigh 2, prunable ML links 1: an inverted-index lookup
    // narrows harder than a similarity probe, but a probe still beats the
    // full scan an unlinked variable would cost. With no prunable ML
    // predicates the ordering is unchanged (uniform scaling).
    int links = 0;
    for (const Predicate* p : cross_eqs_) {
      if ((p->lhs.var == static_cast<int>(v) &&
           (bound_mask & (uint64_t{1} << p->rhs.var))) ||
          (p->rhs.var == static_cast<int>(v) &&
           (bound_mask & (uint64_t{1} << p->lhs.var)))) {
        links += 2;
      }
    }
    if (!const_preds_[v].empty()) links += 2;  // constants are selective too
    for (int i : leaf_preds_) {
      if (!ml_prunable_[i]) continue;
      const Predicate* p = &rule_->preconditions()[i];
      if ((p->lhs.var == static_cast<int>(v) &&
           (bound_mask & (uint64_t{1} << p->rhs.var))) ||
          (p->rhs.var == static_cast<int>(v) &&
           (bound_mask & (uint64_t{1} << p->lhs.var)))) {
        links += 1;
      }
    }
    size_t rel_size = index_->view().rows(rule_->var_relation(v)).size();
    if (links > best_links ||
        (links == best_links && (best < 0 || rel_size < best_size))) {
      best = static_cast<int>(v);
      best_links = links;
      best_size = rel_size;
    }
  }
  return best;
}

const RuleJoiner::BindPlan& RuleJoiner::PlanFor(uint64_t seeded_mask) {
  auto it = plan_cache_.find(seeded_mask);
  if (it != plan_cache_.end()) return it->second;
  BindPlan plan;
  uint64_t mask = seeded_mask;
  size_t n = rule_->num_vars();
  while (static_cast<size_t>(std::popcount(mask)) < n) {
    BindStep step;
    step.var = PickNextVar(mask);
    for (const Predicate* p : cross_eqs_) {
      if (p->lhs.var == step.var && (mask & (uint64_t{1} << p->rhs.var))) {
        step.deps.push_back({p->lhs.attr, p->rhs.var, p->rhs.attr});
      } else if (p->rhs.var == step.var &&
                 (mask & (uint64_t{1} << p->lhs.var))) {
        step.deps.push_back({p->rhs.attr, p->lhs.var, p->lhs.attr});
      }
    }
    for (int i : leaf_preds_) {
      if (!ml_prunable_[i]) continue;
      const Predicate& p = rule_->preconditions()[i];
      if (p.lhs.var == step.var && (mask & (uint64_t{1} << p.rhs.var))) {
        step.ml_deps.push_back({&p, p.rhs.var, /*probe_lhs=*/true});
      } else if (p.rhs.var == step.var &&
                 (mask & (uint64_t{1} << p.lhs.var))) {
        step.ml_deps.push_back({&p, p.lhs.var, /*probe_lhs=*/false});
      }
    }
    mask |= uint64_t{1} << step.var;
    plan.push_back(std::move(step));
  }
  return plan_cache_.emplace(seeded_mask, std::move(plan)).first->second;
}

bool RuleJoiner::CheckLeaf(const Callback& cb) {
  ++counters_.valuations_checked;
  unsat_scratch_.clear();
  for (int i : leaf_preds_) {
    if (!EvalIdOrMl(i, binding_)) {
      unsat_scratch_.push_back(i);
    }
  }
  return cb(binding_, unsat_scratch_);
}

const std::vector<uint32_t>* RuleJoiner::CandidatesFor(
    const BindStep& step, size_t depth, std::vector<Constraint>** out,
    size_t* lookup_used) {
  const int var = step.var;
  const int rel = rule_->var_relation(var);
  const Dataset& dataset = index_->view().dataset();

  const Relation& relation = dataset.relation(rel);
  std::vector<Constraint>& constraints = constraint_scratch_[depth];
  constraints.clear();
  for (const BindStep::CrossDep& dep : step.deps) {
    const Relation& other_rel =
        dataset.relation(rule_->var_relation(dep.other_var));
    // The bound cell's code IS the lookup code when the column types agree
    // (shared interning pool: string equality is id equality). Mismatched
    // types — or NULL/NaN bound cells — can never join.
    Constraint c{dep.my_attr, 0, /*never=*/true};
    if (other_rel.column(dep.other_attr).type() ==
        relation.column(dep.my_attr).type()) {
      c.never = !JoinableCellCode(other_rel, binding_[dep.other_var],
                                  dep.other_attr, &c.code);
    }
    constraints.push_back(c);
  }
  for (const Predicate* p : const_preds_[var]) {
    Constraint c{p->lhs.attr, 0, /*never=*/false};
    c.never = !EqLookupCode(relation, p->lhs.attr, p->constant, &c.code);
    constraints.push_back(c);
  }
  *out = &constraints;

  // Candidate rows: the shortest index posting list, or a full scan.
  const std::vector<uint32_t>* candidates = nullptr;
  *lookup_used = constraints.size();  // sentinel: none
  if (!constraints.empty()) {
    size_t best_len = SIZE_MAX;
    for (size_t c = 0; c < constraints.size(); ++c) {
      if (constraints[c].never) {
        // NULL/NaN/absent-constant joins nothing: no candidates at all.
        return nullptr;
      }
      const std::vector<uint32_t>& list =
          index_->LookupCode(rel, constraints[c].attr, constraints[c].code);
      if (list.size() < best_len) {
        best_len = list.size();
        candidates = &list;
        *lookup_used = c;
      }
      if (best_len == 0) break;
    }
  } else {
    candidates = &index_->view().rows(rel);
    if (!step.ml_deps.empty()) {
      // No equality narrows this variable: let the bound side of a prunable
      // ML predicate generate candidates through its similarity index
      // instead of scanning the relation (the tentpole of this layer — an
      // ML-predicate-only join stops being a cross product).
      const std::vector<uint32_t>* probed = ProbeMlCandidates(step, depth);
      if (probed != nullptr) candidates = probed;
    }
  }
  return candidates;
}

const std::vector<uint32_t>* RuleJoiner::ProbeMlCandidates(
    const BindStep& step, size_t depth) {
  std::vector<uint32_t>& out = ml_probe_scratch_[depth];
  bool have = false;
  for (const BindStep::MlDep& dep : step.ml_deps) {
    const Predicate& p = *dep.pred;
    const std::vector<int>& my_attrs =
        dep.probe_lhs ? p.lhs_ml_attrs : p.rhs_ml_attrs;
    const std::vector<int>& other_attrs =
        dep.probe_lhs ? p.rhs_ml_attrs : p.lhs_ml_attrs;
    const MlClassifier& clf = registry_->classifier(p.ml_id);
    const MlCandidateIndex* ml_index;
    if (dep.cached_gen == index_->ml_generation() &&
        dep.cached_threshold == clf.threshold()) {
      ml_index = dep.cached;
    } else {
      ml_index = index_->GetOrBuildMl(clf, p.ml_id,
                                      rule_->var_relation(step.var), my_attrs);
      dep.cached = ml_index;
      // After the call: resolving may itself have advanced the generation.
      dep.cached_gen = index_->ml_generation();
      dep.cached_threshold = clf.threshold();
    }
    if (ml_index == nullptr) continue;
    FillMlValues(dep.other_var, other_attrs, binding_[dep.other_var],
                 &ml_scratch_a_);
    std::vector<uint32_t>& probe = have ? ml_tmp_scratch_ : out;
    ml_index->Probe(ml_scratch_a_, &probe);
    ++counters_.ml_probes;
    if (have) {
      // Each probe is a superset of its predicate's true pairs, so the
      // intersection is a superset of the valuations satisfying all of them.
      ml_isect_scratch_.clear();
      std::set_intersection(out.begin(), out.end(), ml_tmp_scratch_.begin(),
                            ml_tmp_scratch_.end(),
                            std::back_inserter(ml_isect_scratch_));
      out.swap(ml_isect_scratch_);
    }
    have = true;
  }
  if (have) counters_.ml_probe_candidates += out.size();
  return have ? &out : nullptr;
}

void RuleJoiner::BatchFillMlPredictions(
    int var, const std::vector<uint32_t>& candidates, size_t lo, size_t hi) {
  const ProfileStore* store = index_->profiles();
  if (store == nullptr) return;
  const Dataset& dataset = index_->view().dataset();
  for (int i : leaf_preds_) {
    const Predicate& p = rule_->preconditions()[i];
    if (p.kind != PredicateKind::kMl) continue;
    int other;
    const std::vector<int>* my_attrs;
    const std::vector<int>* other_attrs;
    if (p.lhs.var == var && p.rhs.var != var) {
      other = p.rhs.var;
      my_attrs = &p.lhs_ml_attrs;
      other_attrs = &p.rhs_ml_attrs;
    } else if (p.rhs.var == var && p.lhs.var != var) {
      other = p.lhs.var;
      my_attrs = &p.rhs_ml_attrs;
      other_attrs = &p.lhs_ml_attrs;
    } else {
      continue;
    }
    if (!bound_[other]) continue;
    const MlClassifier& clf = registry_->classifier(p.ml_id);
    const MlBatchKernel kernel = clf.batch_kernel();
    if (kernel == MlBatchKernel::kNone) continue;
    // Single-string sides only: there the side's ConcatValueText is exactly
    // the pool string the profile describes.
    if (my_attrs->size() != 1 || other_attrs->size() != 1) continue;
    const Column& my_col = dataset.relation(rule_->var_relation(var))
                               .column((*my_attrs)[0]);
    const Column& other_col = dataset.relation(rule_->var_relation(other))
                                  .column((*other_attrs)[0]);
    if (my_col.type() != ValueType::kString ||
        other_col.type() != ValueType::kString) {
      continue;
    }
    const uint32_t other_row = binding_[other];
    const uint32_t probe_id = other_col.is_null(other_row)
                                  ? ProfileStore::kNpos
                                  : other_col.str_id(other_row);
    // An unprofiled non-empty string would make the gram/token pruning
    // unsound; leave such pairs to the per-pair leaf path.
    if (probe_id != ProfileStore::kNpos && store->Find(probe_id) == nullptr) {
      continue;
    }
    const uint64_t my_sig =
        MlSideSignature(rule_->var_relation(var), *my_attrs);
    const uint64_t other_sig =
        MlSideSignature(rule_->var_relation(other), *other_attrs);
    const Gid other_gid = GidOf(other, other_row);
    const double threshold = clf.threshold();
    std::vector<uint32_t>& scored = batch_scored_[i];
    if (scored.size() < my_col.size()) scored.resize(my_col.size(), 0);
    batch_var_[i] = var;
    constexpr size_t kBlock = 256;
    for (size_t b = lo; b < hi; b += kBlock) {
      const size_t e = std::min(hi, b + kBlock);
      batch_ids_.clear();
      batch_keys_.clear();
      batch_rows_.clear();
      for (size_t j = b; j < e; ++j) {
        const uint32_t row = candidates[j];
        const uint64_t key =
            Fact::MlValidated(p.ml_id, GidOf(var, row), my_sig, other_gid,
                              other_sig)
                .Key();
        // Validated pairs never reach the classifier, and cached pairs are
        // already settled — matching the per-pair path keeps the registry's
        // prediction counters comparable across the two.
        if (ctx_->IsValidatedMl(key)) continue;
        if (registry_->PeekPrediction(p.ml_id, key) >= 0) continue;
        const uint32_t cid =
            my_col.is_null(row) ? ProfileStore::kNpos : my_col.str_id(row);
        if (cid != ProfileStore::kNpos && store->Find(cid) == nullptr) {
          continue;
        }
        batch_ids_.push_back(cid);
        batch_keys_.push_back(key);
        batch_rows_.push_back(row);
      }
      if (batch_ids_.empty()) continue;
      batch_preds_.resize(batch_ids_.size());
      switch (kernel) {
        case MlBatchKernel::kTokenJaccard:
          PredictTokenJaccardBatch(*store, probe_id, batch_ids_.data(),
                                   batch_ids_.size(), threshold,
                                   batch_preds_.data());
          break;
        case MlBatchKernel::kEditSimilarity:
          PredictEditSimilarityBatch(*store, probe_id, batch_ids_.data(),
                                     batch_ids_.size(), threshold,
                                     batch_preds_.data());
          break;
        case MlBatchKernel::kNone:
          continue;
      }
      for (size_t j = 0; j < batch_keys_.size(); ++j) {
        const bool holds = batch_preds_[j] != 0;
        registry_->InsertPrediction(p.ml_id, batch_keys_[j], holds);
        scored[batch_rows_[j]] = (batch_gen_ << 1) | (holds ? 1 : 0);
      }
    }
  }
}

void RuleJoiner::ForRows(const std::vector<uint32_t>& all_candidates,
                         size_t lo, size_t hi, int var,
                         const std::vector<Constraint>& constraints,
                         size_t lookup_used, const Callback& cb, bool* stop) {
  const Relation& relation =
      index_->view().dataset().relation(rule_->var_relation(var));
  // In a Hypercube cell, keep only the rows sent for this variable's role,
  // before anything below scores or binds them. Each variable is bound at
  // most once on the recursion stack, so its scratch list is free here.
  const std::vector<uint32_t>* candidates = &all_candidates;
  if (!roles_.empty()) {
    const Bitmap& role = roles_[var];
    std::vector<uint32_t>& kept = role_scratch_[var];
    kept.clear();
    for (size_t i = lo; i < hi; ++i) {
      if (role.Test(all_candidates[i])) kept.push_back(all_candidates[i]);
    }
    candidates = &kept;
    lo = 0;
    hi = kept.size();
  }
  // Drop the row of var's bound consequence partner: a tuple never matches
  // itself. `skip` is its position in [lo, hi), or hi when absent.
  size_t skip = hi;
  if (const int partner = distinct_partner_[var];
      partner >= 0 && bound_[partner]) {
    skip = std::find(candidates->begin() + lo, candidates->begin() + hi,
                     binding_[partner]) -
           candidates->begin();
  }
  counters_.candidates_probed += hi - lo - (skip < hi ? 1 : 0);
  // Last variable with nothing filtering the rows below: every candidate
  // reaches the leaf, so its ML predicates can be evaluated one-vs-many
  // before the loop instead of pair-by-pair inside it.
  const bool batched = num_bound_ == rule_->num_vars() &&
                       constraints.empty() && self_eqs_[var].empty();
  if (batched) {
    if (skip > lo) BatchFillMlPredictions(var, *candidates, lo, skip);
    if (hi > skip + 1) BatchFillMlPredictions(var, *candidates, skip + 1, hi);
  }
  for (size_t i = lo; i < hi; ++i) {
    if (i == skip) continue;
    uint32_t row = (*candidates)[i];
    // Verify remaining constraints (the lookup enforced only one): a
    // non-NULL cell with the same equality code, i.e. id == id for strings.
    bool ok = true;
    uint64_t code;
    for (size_t c = 0; c < constraints.size(); ++c) {
      if (c == lookup_used) continue;
      if (!JoinableCellCode(relation, row, constraints[c].attr, &code) ||
          code != constraints[c].code) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    // Self-equalities still need checking: no posting list enforces them.
    for (const Predicate* p : self_eqs_[var]) {
      uint64_t rcode;
      if (relation.column(p->lhs.attr).type() !=
              relation.column(p->rhs.attr).type() ||
          !JoinableCellCode(relation, row, p->lhs.attr, &code) ||
          !JoinableCellCode(relation, row, p->rhs.attr, &rcode) ||
          code != rcode) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    binding_[var] = row;
    Backtrack(cb, stop);
    if (*stop) break;
  }
  // Rows the leaf never reached (a failed local check, an early stop) keep
  // their marks; a new generation turns a later read into a cache probe.
  if (batched && ++batch_gen_ == kBatchGenLimit) {
    for (std::vector<uint32_t>& scored : batch_scored_) {
      std::fill(scored.begin(), scored.end(), 0);
    }
    batch_gen_ = 1;
  }
}

void RuleJoiner::Backtrack(const Callback& cb, bool* stop) {
  if (*stop) return;
  if (num_bound_ == rule_->num_vars()) {
    if (!CheckLeaf(cb)) *stop = true;
    return;
  }
  const size_t depth = num_bound_ - plan_base_;
  const BindStep& step = (*active_plan_)[depth];
  std::vector<Constraint>* constraints = nullptr;
  size_t lookup_used = 0;
  const std::vector<uint32_t>* candidates =
      CandidatesFor(step, depth, &constraints, &lookup_used);
  if (candidates == nullptr) return;

  bound_[step.var] = true;
  ++num_bound_;
  ForRows(*candidates, 0, candidates->size(), step.var, *constraints,
          lookup_used, cb, stop);
  binding_[step.var] = kInvalidGid;
  bound_[step.var] = false;
  --num_bound_;
}

void RuleJoiner::Enumerate(const Callback& cb) {
  EnumerateRange(0, SIZE_MAX, cb);
}

size_t RuleJoiner::RootCandidateCount() {
  if (root_plan_.empty()) return 0;
  std::vector<Constraint>* constraints = nullptr;
  size_t lookup_used = 0;
  const std::vector<uint32_t>* candidates =
      CandidatesFor(root_plan_[0], 0, &constraints, &lookup_used);
  return candidates == nullptr ? 0 : candidates->size();
}

void RuleJoiner::EnumerateRange(size_t begin, size_t end, const Callback& cb) {
  if (root_plan_.empty()) return;
  std::fill(bound_.begin(), bound_.end(), false);
  std::fill(binding_.begin(), binding_.end(), kInvalidGid);
  num_bound_ = 0;
  active_plan_ = &root_plan_;
  plan_base_ = 0;

  const BindStep& step = root_plan_[0];
  std::vector<Constraint>* constraints = nullptr;
  size_t lookup_used = 0;
  const std::vector<uint32_t>* candidates =
      CandidatesFor(step, 0, &constraints, &lookup_used);
  if (candidates == nullptr) return;
  size_t hi = std::min(end, candidates->size());
  size_t lo = std::min(begin, hi);

  bound_[step.var] = true;
  num_bound_ = 1;
  bool stop = false;
  ForRows(*candidates, lo, hi, step.var, *constraints, lookup_used, cb, &stop);
  binding_[step.var] = kInvalidGid;
  bound_[step.var] = false;
  num_bound_ = 0;
}

void RuleJoiner::EnumerateSeeded(
    std::span<const std::pair<int, uint32_t>> seeds, const Callback& cb) {
  std::fill(bound_.begin(), bound_.end(), false);
  std::fill(binding_.begin(), binding_.end(), kInvalidGid);
  num_bound_ = 0;
  uint64_t seeded_mask = 0;
  for (auto [var, row] : seeds) {
    if (bound_[var]) {
      if (binding_[var] != row) return;  // conflicting seeds
      continue;
    }
    if (!roles_.empty() && !roles_[var].Test(row)) return;  // not its role
    if (const int partner = distinct_partner_[var];
        partner >= 0 && bound_[partner] && binding_[partner] == row) {
      return;  // both consequence variables on one tuple
    }
    if (!RowSatisfiesLocalPreds(var, row)) return;
    binding_[var] = row;
    bound_[var] = true;
    seeded_mask |= uint64_t{1} << var;
    ++num_bound_;
  }
  // Cross equalities among seeded variables must hold.
  for (const Predicate* p : cross_eqs_) {
    if (bound_[p->lhs.var] && bound_[p->rhs.var]) {
      const Dataset& d = index_->view().dataset();
      const Value& lv = d.relation(rule_->var_relation(p->lhs.var))
                            .at(binding_[p->lhs.var], p->lhs.attr);
      const Value& rv = d.relation(rule_->var_relation(p->rhs.var))
                            .at(binding_[p->rhs.var], p->rhs.attr);
      if (!EqJoinable(lv, rv)) return;
    }
  }
  active_plan_ = &PlanFor(seeded_mask);
  plan_base_ = num_bound_;
  bool stop = false;
  Backtrack(cb, &stop);
}

}  // namespace dcer
