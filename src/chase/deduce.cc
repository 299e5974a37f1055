#include "chase/deduce.h"

#include <algorithm>
#include <optional>

#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dcer {

ChaseEngine::Options ChaseEngine::FromEngineOptions(const EngineOptions& eo,
                                                    ThreadPool*) {
  Options o;
  o.dependency_capacity = eo.dependency_capacity;
  o.share_indices = eo.use_mqo;
  o.ml_index = eo.ml_index;
  return o;
}

namespace {

// Folds a joiner's counter delta into the chase stats.
void AddJoinCounters(ChaseStats* s, const JoinCounters& d) {
  s->valuations += d.valuations_checked;
  s->join_candidates += d.candidates_probed;
  s->ml_probes += d.ml_probes;
  s->ml_probe_candidates += d.ml_probe_candidates;
}
// Content signature of a view's row sets, for sharing indices across rules
// with identical sub-fragments.
uint64_t ViewSignature(const DatasetView& view) {
  uint64_t h = HashInt(view.num_relations());
  for (size_t rel = 0; rel < view.num_relations(); ++rel) {
    h = HashCombine(h, HashInt(view.rows(rel).size()));
    for (uint32_t row : view.rows(rel)) h = HashCombine(h, HashInt(row));
  }
  return h;
}
}  // namespace

ChaseEngine::ChaseEngine(const DatasetView* view, const RuleSet* rules,
                         const MlRegistry* registry, MatchContext* ctx,
                         Options options)
    : ChaseEngine(view, nullptr, rules, registry, ctx, options) {}

ChaseEngine::ChaseEngine(
    const DatasetView* union_view,
    const std::vector<std::vector<RuleBlock>>* rule_blocks,
    const RuleSet* rules, const MlRegistry* registry, MatchContext* ctx,
    Options options)
    : view_(union_view),
      rules_(rules),
      registry_(registry),
      ctx_(ctx),
      options_(options),
      scoped_(rule_blocks != nullptr),
      deps_(options.dependency_capacity) {
  MlIndexPolicy ml_policy;
  ml_policy.enabled = options_.ml_index;
  if (ml_policy.enabled) {
    ml_policy.derivable = std::make_shared<const std::unordered_set<uint64_t>>(
        DerivableMlKeys(*rules_));
  }
  // One scope per (rule, block); without rule_blocks each rule's one block
  // is view_ itself. MQO shares an index among blocks with identical
  // contents (common across rules with shared hash functions; every block
  // of the unscoped form), noMQO pays per-scope index construction.
  scopes_.resize(rules_->size());
  std::unordered_map<uint64_t, DatasetIndex*> by_signature;
  for (size_t i = 0; i < rules_->size(); ++i) {
    const Rule& rule = rules_->rule(i);
    const size_t num_blocks = scoped_ ? (*rule_blocks)[i].size() : 1;
    scopes_[i].reserve(num_blocks);
    for (size_t b = 0; b < num_blocks; ++b) {
      const DatasetView* block = scoped_ ? &(*rule_blocks)[i][b].view : view_;
      Scope scope;
      if (scoped_) scope.roles = (*rule_blocks)[i][b].roles;
      // Every unscoped block is view_, so one signature covers them all.
      DatasetIndex* unshared = nullptr;
      DatasetIndex*& index =
          options_.share_indices
              ? by_signature[scoped_ ? ViewSignature(*block) : 0]
              : unshared;
      if (index == nullptr) {
        owned_indices_.push_back(
            std::make_unique<DatasetIndex>(block, options_.profiles));
        index = owned_indices_.back().get();
      }
      scope.index = index;
      scope.joiner = std::make_unique<RuleJoiner>(index, &rule, registry_,
                                                  ctx_, scope.roles);
      scope.joiner->ConfigureMlIndex(ml_policy);
      scopes_[i].push_back(std::move(scope));
    }
  }
}

void ChaseEngine::ApplyFactAndFire(const Fact& fact, int rule,
                                   const std::vector<Gid>& valuation,
                                   Delta* delta) {
  // Depth-first over fired dependencies with an explicit stack, so a long
  // dependency chain costs heap, not call stack. Each fact is applied, its
  // provenance recorded and its local delta appended before the
  // dependencies it fires run, in firing order, each with its whole
  // cascade: the preorder that Γ, the stats and the golden hashes rely on.
  std::vector<DependencyStore::Dependency> pending;  // top = next to fire
  std::vector<DependencyStore::Dependency> fired;
  Delta local;
  auto apply = [&](const Fact& f, int r, const std::vector<Gid>& v) {
    local.clear();
    if (!ctx_->Apply(f, &local)) return;
    if (f.kind == Fact::Kind::kId) {
      ++stats_.matches;
    } else {
      ++stats_.validated_ml;
    }
    if (ProvenanceLog* prov = ctx_->provenance()) prov->Record(f, r, v);
    // Every newly-true key may fire dependencies or obsolete their targets.
    fired.clear();
    if (f.kind == Fact::Kind::kMl) {
      deps_.OnKeyTrue(f.Key(), &fired);
    } else {
      for (auto [a, b] : local.id_pairs) {
        deps_.OnKeyTrue(IdPairKey(a, b), &fired);
      }
    }
    delta->Append(local);
    pending.insert(pending.end(), std::make_move_iterator(fired.rbegin()),
                   std::make_move_iterator(fired.rend()));
  };
  apply(fact, rule, valuation);
  while (!pending.empty()) {
    const DependencyStore::Dependency dep = std::move(pending.back());
    pending.pop_back();
    ++stats_.deps_fired;
    apply(dep.target, dep.rule, dep.valuation);
  }
}

void ChaseEngine::HandleValuation(size_t rule_idx, RuleJoiner* joiner,
                                  const std::vector<uint32_t>& rows,
                                  const std::vector<int>& unsat,
                                  Delta* delta) {
  const Rule& rule = rules_->rule(rule_idx);
  auto gid = [&](size_t var) {
    return view_->dataset().relation(rule.var_relation(var)).gid(rows[var]);
  };
  auto valuation = [&] {
    std::vector<Gid> out(rows.size());
    for (size_t v = 0; v < rows.size(); ++v) out[v] = gid(v);
    return out;
  };

  // Build the consequence fact under this valuation.
  const Predicate& c = rule.consequence();
  Fact target;
  if (c.kind == PredicateKind::kIdEq) {
    const Gid a = gid(c.lhs.var);
    const Gid b = gid(c.rhs.var);
    // Only a one-variable consequence (t.id = t.id) gets here with a == b:
    // the joiner never binds two consequence variables to one tuple.
    if (a == b) return;
    target = Fact::IdMatch(a, b);
    if (ctx_->Matched(a, b)) return;  // already in Γ
  } else {
    target = joiner->MlFactFor(c, rows);
    if (ctx_->IsValidatedMl(target.Key())) return;
  }

  if (unsat.empty()) {
    ApplyFactAndFire(target, static_cast<int>(rule_idx), valuation(), delta);
    return;
  }

  // Blocked only on id/ML predicates: record l1 ∧ ... ∧ ln -> l in H.
  std::vector<uint64_t> required;
  required.reserve(unsat.size());
  for (int i : unsat) {
    const Predicate& p = rule.preconditions()[i];
    if (p.kind == PredicateKind::kIdEq) {
      required.push_back(IdPairKey(gid(p.lhs.var), gid(p.rhs.var)));
    } else {
      required.push_back(joiner->MlFactFor(p, rows).Key());
    }
  }
  if (deps_.Add(target, std::move(required), static_cast<int>(rule_idx),
                valuation())) {
    ++stats_.deps_added;
  } else {
    ++stats_.deps_dropped;
  }
}

void ChaseEngine::Deduce(Delta* delta) {
  DCER_TRACE("chase.deduce");
  // Per-rule deduce time: one histogram sample (and one trace span) per
  // (rule, scope) enumeration. Both are off the hot path — per scope, not
  // per valuation — and fully gated on the obs flags.
  const bool observe = obs::MetricsEnabled();
  obs::Histogram* rule_hist =
      observe ? obs::MetricsRegistry::Global().GetHistogram(
                    "chase.rule_deduce_seconds", obs::Histogram::Unit::kNanos)
              : nullptr;
  for (size_t ri = 0; ri < rules_->size(); ++ri) {
    for (uint32_t si = 0; si < scopes_[ri].size(); ++si) {
      // Skip infeasible blocks before paying the enumeration setup.
      if (!ScopeFeasible(ri, si)) continue;
      std::optional<obs::TraceSpan> span;
      if (obs::TraceEnabled()) {
        span.emplace("deduce:" + rules_->rule(ri).name());
      }
      Timer rule_timer;
      RuleJoiner* joiner = scopes_[ri][si].joiner.get();
      JoinCounters before = joiner->counters();
      joiner->Enumerate([&](const std::vector<uint32_t>& rows,
                            const std::vector<int>& unsat) {
        HandleValuation(ri, joiner, rows, unsat, delta);
        return true;
      });
      AddJoinCounters(&stats_, joiner->counters() - before);
      if (rule_hist != nullptr) {
        rule_hist->RecordSeconds(rule_timer.ElapsedSeconds());
      }
    }
  }
  CountIndices();
}

void ChaseEngine::CountIndices() {
  stats_.indices_built = 0;
  stats_.ml_indices_built = 0;
  for (const auto& idx : owned_indices_) {
    stats_.indices_built += idx->num_indices_built();
    stats_.ml_indices_built += idx->num_ml_indices_built();
  }
}

void ChaseEngine::EnqueueFrontier(const Delta& d, DeltaStore* store) {
  // The frontier carries newly-true keys: concrete id pairs (the expanded
  // equivalence closure, not the raw id facts) and validated ML facts.
  auto enqueue = [&](const Fact& f) {
    if (inc_seen_.insert(f.Key()).second) {
      store->Append(f);
    } else {
      ++stats_.inc_dedup_hits;
    }
  };
  for (auto [a, b] : d.id_pairs) enqueue(Fact::IdMatch(a, b));
  for (const Fact& f : d.facts) {
    if (f.kind == Fact::Kind::kMl) enqueue(f);
  }
}

bool ChaseEngine::ScopeFeasible(size_t rule_idx, uint32_t scope_idx) const {
  const Rule& rule = rules_->rule(rule_idx);
  const Scope& scope = scopes_[rule_idx][scope_idx];
  for (size_t v = 0; v < rule.num_vars(); ++v) {
    const int rel = rule.var_relation(static_cast<int>(v));
    const bool empty = scope.roles.empty()
                           ? scope.index->view().rows(rel).empty()
                           : scope.roles[v].count() == 0;
    if (empty) return false;
  }
  return true;
}

bool ChaseEngine::IncScopeFeasible(size_t rule_idx, uint32_t scope_idx) {
  std::vector<int8_t>& cache = inc_feasible_[rule_idx];
  if (cache.empty()) cache.assign(scopes_[rule_idx].size(), 0);
  int8_t& state = cache[scope_idx];
  if (state == 0) state = ScopeFeasible(rule_idx, scope_idx) ? 1 : -1;
  return state == 1;
}

void ChaseEngine::BuildScopesOfGid() {
  scopes_of_gid_.resize(rules_->size());
  const Dataset& ds = view_->dataset();
  for (size_t ri = 0; ri < rules_->size(); ++ri) {
    for (uint32_t s = 0; s < scopes_[ri].size(); ++s) {
      const DatasetView& block = scopes_[ri][s].index->view();
      for (size_t rel = 0; rel < block.num_relations(); ++rel) {
        for (uint32_t row : block.rows(rel)) {
          scopes_of_gid_[ri][ds.relation(rel).gid(row)].push_back(s);
        }
      }
    }
  }
}

void ChaseEngine::BuildIncRoundTasks() {
  inc_tasks_.clear();
  const Dataset& ds = view_->dataset();
  if (scoped_ && scopes_of_gid_.empty()) BuildScopesOfGid();
  inc_frontier_.ForEach([&](const Fact& item) {
    const bool is_ml = item.kind == Fact::Kind::kMl;
    const uint32_t rel_a = ds.relation_of(item.a);
    const uint32_t rel_b = ds.relation_of(item.b);
    for (size_t ri = 0; ri < rules_->size(); ++ri) {
      const Rule& rule = rules_->rule(ri);
      auto consider = [&](uint32_t scope_idx) {
        if (!IncScopeFeasible(ri, scope_idx)) return;
        // Map gids to rows of this scope's block; a block the rule's
        // Hypercube did not co-locate the pair in cannot host the valuation.
        const DatasetView& rv = scopes_[ri][scope_idx].index->view();
        const uint32_t row_a = rv.RowOf(item.a);
        const uint32_t row_b = rv.RowOf(item.b);
        if (row_a == kInvalidGid || row_b == kInvalidGid) return;
        for (const Predicate& p : rule.preconditions()) {
          if (!p.is_id_or_ml()) continue;
          // Which (lhs, rhs) row assignments does this item support?
          uint32_t orients[2][2];
          int num_orients = 0;
          if (!is_ml && p.kind == PredicateKind::kIdEq) {
            if (rule.var_relation(p.lhs.var) == static_cast<int>(rel_a) &&
                rule.var_relation(p.rhs.var) == static_cast<int>(rel_b)) {
              orients[num_orients][0] = row_a;
              orients[num_orients][1] = row_b;
              ++num_orients;
            }
            if (item.a != item.b &&
                rule.var_relation(p.lhs.var) == static_cast<int>(rel_b) &&
                rule.var_relation(p.rhs.var) == static_cast<int>(rel_a)) {
              orients[num_orients][0] = row_b;
              orients[num_orients][1] = row_a;
              ++num_orients;
            }
          } else if (is_ml && p.kind == PredicateKind::kMl &&
                     p.ml_id == item.ml_id) {
            uint64_t lhs_sig =
                MlSideSignature(rule.var_relation(p.lhs.var), p.lhs_ml_attrs);
            uint64_t rhs_sig =
                MlSideSignature(rule.var_relation(p.rhs.var), p.rhs_ml_attrs);
            if (lhs_sig == item.a_sig && rhs_sig == item.b_sig) {
              orients[num_orients][0] = row_a;
              orients[num_orients][1] = row_b;
              ++num_orients;
            }
            if ((item.a != item.b || item.a_sig != item.b_sig) &&
                lhs_sig == item.b_sig && rhs_sig == item.a_sig) {
              orients[num_orients][0] = row_b;
              orients[num_orients][1] = row_a;
              ++num_orients;
            }
          }
          for (int o = 0; o < num_orients; ++o) {
            const uint32_t lrow = orients[o][0];
            const uint32_t rrow = orients[o][1];
            // Two frontier items can demand the same seeded binding (e.g.
            // pairs expanded from one merge hitting symmetric predicates);
            // within a round the duplicate enumeration is pure waste.
            uint64_t bk = HashInt(static_cast<uint64_t>(ri));
            bk = HashCombine(bk, HashInt(scope_idx));
            bk = HashCombine(
                bk,
                HashInt((uint64_t{static_cast<uint32_t>(p.lhs.var)} << 32) |
                        lrow));
            bk = HashCombine(
                bk,
                HashInt((uint64_t{static_cast<uint32_t>(p.rhs.var)} << 32) |
                        rrow));
            if (!inc_bindings_.insert(bk).second) {
              ++stats_.inc_dedup_hits;
              continue;
            }
            ++stats_.seeded_joins;
            inc_tasks_.push_back({static_cast<uint32_t>(ri), scope_idx,
                                  p.lhs.var, p.rhs.var, lrow, rrow});
          }
        }
      };
      if (scoped_) {
        // Only blocks hosting item.a can host a seeded valuation; b must be
        // co-located there too (checked inside via RowOf).
        auto it = scopes_of_gid_[ri].find(item.a);
        if (it == scopes_of_gid_[ri].end()) continue;
        for (uint32_t s : it->second) consider(s);
      } else {
        for (uint32_t s = 0; s < scopes_[ri].size(); ++s) consider(s);
      }
    }
  });
}

void ChaseEngine::IncDeduce(const Delta& seeds, Delta* out) {
  DCER_TRACE("chase.inc_deduce");
  // Fast path: while H has never dropped, it is complete — the full
  // enumeration passes (Deduce / DeduceForNewTuples) recorded every
  // valuation blocked only on id/ML predicates, and the caller has already
  // applied the seeds (firing H transitively through ApplyFactAndFire), so
  // the fixpoint is already reached. Seeded re-joins only ever recover what
  // a drop lost.
  if (deps_.num_dropped() == 0) return;

  inc_frontier_.Clear();
  inc_next_.Clear();
  inc_seen_.clear();
  inc_feasible_.assign(rules_->size(), {});
  EnqueueFrontier(seeds, &inc_frontier_);

  obs::Histogram* frontier_hist =
      obs::MetricsEnabled()
          ? obs::MetricsRegistry::Global().GetHistogram(
                "chase.inc_frontier_size", obs::Histogram::Unit::kCount)
          : nullptr;

  while (!inc_frontier_.empty()) {
    // One span per semi-naive round, nested under chase.inc_deduce and
    // carrying the installed request context — in a stitched trace the
    // rounds appear as children of the daemon's drain span.
    DCER_TRACE("chase.inc_round");
    ++stats_.inc_rounds;
    stats_.inc_frontier_items += inc_frontier_.size();
    if (frontier_hist != nullptr) frontier_hist->Record(inc_frontier_.size());

    inc_bindings_.clear();
    BuildIncRoundTasks();
    // Group the round's re-joins by (rule, scope), item order kept within a
    // group: H's contents and the pinned counters follow this order.
    std::stable_sort(inc_tasks_.begin(), inc_tasks_.end(),
                     [](const IncTask& x, const IncTask& y) {
                       return x.rule != y.rule ? x.rule < y.rule
                                               : x.scope < y.scope;
                     });
    Delta round;
    for (const IncTask& t : inc_tasks_) {
      RuleJoiner* joiner = scopes_[t.rule][t.scope].joiner.get();
      std::pair<int, uint32_t> seed_arr[2] = {{t.lvar, t.lrow},
                                              {t.rvar, t.rrow}};
      JoinCounters before = joiner->counters();
      joiner->EnumerateSeeded(seed_arr,
                              [&](const std::vector<uint32_t>& rows,
                                  const std::vector<int>& unsat) {
                                HandleValuation(t.rule, joiner, rows, unsat,
                                                &round);
                                return true;
                              });
      AddJoinCounters(&stats_, joiner->counters() - before);
    }
    out->Append(round);
    // Semi-naive: only what this round newly derived seeds the next one.
    inc_next_.Clear();
    EnqueueFrontier(round, &inc_next_);
    inc_frontier_.Swap(inc_next_);
  }
  CountIndices();
}

void ChaseEngine::NotifyAppend(std::span<const Gid> gids) {
  auto notify = [&](DatasetIndex* index) {
    for (Gid gid : gids) {
      uint32_t row = index->view().RowOf(gid);
      if (row == kInvalidGid) continue;
      index->NotifyAppend(view_->dataset().loc(gid).relation, row);
    }
  };
  for (auto& index : owned_indices_) notify(index.get());
}

void ChaseEngine::DeduceForNewTuples(std::span<const Gid> new_gids,
                                     Delta* delta) {
  for (Gid gid : new_gids) {
    TupleLoc loc = view_->dataset().loc(gid);
    for (size_t ri = 0; ri < rules_->size(); ++ri) {
      const Rule& rule = rules_->rule(ri);
      for (Scope& scope : scopes_[ri]) {
        RuleJoiner* joiner = scope.joiner.get();
        uint32_t row = scope.index->view().RowOf(gid);
        if (row == kInvalidGid) continue;
        for (size_t v = 0; v < rule.num_vars(); ++v) {
          if (rule.var_relation(static_cast<int>(v)) !=
              static_cast<int>(loc.relation)) {
            continue;
          }
          ++stats_.seeded_joins;
          std::pair<int, uint32_t> seed[1] = {{static_cast<int>(v), row}};
          JoinCounters before = joiner->counters();
          joiner->EnumerateSeeded(
              seed, [&](const std::vector<uint32_t>& rows,
                        const std::vector<int>& unsat) {
                HandleValuation(ri, joiner, rows, unsat, delta);
                return true;
              });
          AddJoinCounters(&stats_, joiner->counters() - before);
        }
      }
    }
  }
  CountIndices();
}

void ChaseEngine::ApplyExternalFacts(std::span<const Fact> facts,
                                     Delta* newly) {
  for (const Fact& f : facts) {
    ApplyFactAndFire(f, /*rule=*/-1, {}, newly);
  }
}

}  // namespace dcer
