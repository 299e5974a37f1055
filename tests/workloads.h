#ifndef DCER_TESTS_WORKLOADS_H_
#define DCER_TESTS_WORKLOADS_H_

// Synthetic chase workloads shared by the incremental-path tests
// (inc_deduce_test) and the exact counter pins (counters_test). Kept
// header-only so both build the exact same dataset and rules: a pinned
// counter is only meaningful if the workload cannot drift.

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "chase/fact.h"
#include "ml/classifier.h"
#include "ml/registry.h"
#include "relational/dataset.h"
#include "rules/parser.h"

namespace dcer {

/// Tournament-merge workload: a full binary tree of `levels` levels, each
/// node duplicated into an "a" and a "b" record. The leaf duplicates match
/// directly; an internal node's duplicates match only once BOTH children's
/// duplicates have matched — so resolution proceeds in strict rounds up the
/// bracket, and the per-round delta halves: level k hosts 2^(levels-k)
/// nodes. This is the cascade-heavy regime of the update-driven pass
/// (IncDeduce): every round's work should be proportional to that round's
/// |Δ|, never to the dataset.
struct TournamentWorkload {
  Dataset dataset;
  MlRegistry registry;
  /// leaf + up rules: full workload for Match/DMatch.
  RuleSet rules;
  /// up rule only: the delta-driven protocol (leaf matches arrive as
  /// external facts, everything else cascades through IncDeduce).
  RuleSet up_rules;
  /// (a, b) gid of each leaf node's duplicate pair, in node order.
  std::vector<std::pair<Gid, Gid>> leaf_pairs;
  int levels = 0;
};

/// Builds the bracket. `with_ml` adds a (always-true for duplicates)
/// TokenJaccard predicate over a per-node text attribute to the up rule, so
/// each internal valuation carries real classifier work — the regime where
/// fanning the incremental re-joins out on the pool pays.
inline std::unique_ptr<TournamentWorkload> MakeTournament(int levels,
                                                          bool with_ml) {
  auto w = std::make_unique<TournamentWorkload>();
  w->levels = levels;
  size_t rel = w->dataset.AddRelation(
      Schema("Team", {{"tag", ValueType::kString},
                      {"lvl", ValueType::kInt},
                      {"key", ValueType::kString},
                      {"lk", ValueType::kString},
                      {"rk", ValueType::kString},
                      {"txt", ValueType::kString}}));
  // Heap numbering: node i has children 2i and 2i+1; leaves are
  // i in [2^levels, 2^(levels+1)).
  const int first_leaf = 1 << levels;
  const int end = first_leaf << 1;
  std::vector<Gid> gid_a(end, kInvalidGid);
  std::vector<Gid> gid_b(end, kInvalidGid);
  for (int side = 0; side < 2; ++side) {
    const char* prefix = side == 0 ? "a" : "b";
    for (int i = 1; i < end; ++i) {
      int lvl = 0;
      for (int j = i; j < first_leaf; j <<= 1) ++lvl;
      const bool internal = i < first_leaf;
      Gid g = w->dataset.AppendTuple(
          rel,
          {Value("n" + std::to_string(i)), Value(int64_t{lvl}),
           Value(prefix + std::to_string(i)),
           internal ? Value(prefix + std::to_string(2 * i)) : Value::Null(),
           internal ? Value(prefix + std::to_string(2 * i + 1))
                    : Value::Null(),
           Value("team division " + std::to_string(i % 7) + " squad " +
                 std::to_string(i))});
      (side == 0 ? gid_a : gid_b)[i] = g;
    }
  }
  for (int i = first_leaf; i < end; ++i) {
    w->leaf_pairs.emplace_back(gid_a[i], gid_b[i]);
  }

  std::string ml_conjunct;
  if (with_ml) {
    w->registry.Register(
        std::make_unique<TokenJaccardClassifier>("MT", 0.3));
    ml_conjunct = " ^ MT(t.txt, s.txt)";
  }
  const std::string up =
      "up: Team(t) ^ Team(s) ^ Team(lt) ^ Team(ls) ^ Team(rt) ^ Team(rs) ^ "
      "t.tag = s.tag ^ t.lk = lt.key ^ s.lk = ls.key ^ t.rk = rt.key ^ "
      "s.rk = rs.key ^ lt.id = ls.id ^ rt.id = rs.id" +
      ml_conjunct + " -> t.id = s.id\n";
  const std::string leaf =
      "leaf: Team(t) ^ Team(s) ^ t.lvl = 0 ^ t.tag = s.tag -> t.id = s.id\n";
  Status st = ParseRuleSet(leaf + up, w->dataset, w->registry, &w->rules);
  if (st.ok()) st = ParseRuleSet(up, w->dataset, w->registry, &w->up_rules);
  if (!st.ok()) {
    std::printf("tournament rules failed to parse: %s\n",
                std::string(st.message()).c_str());
    return nullptr;
  }
  return w;
}

/// The leaf duplicate matches as external facts (what a BSP worker would
/// receive), in node order.
inline std::vector<Fact> TournamentLeafFacts(const TournamentWorkload& w,
                                             size_t limit = size_t(-1)) {
  std::vector<Fact> out;
  for (size_t i = 0; i < w.leaf_pairs.size() && i < limit; ++i) {
    out.push_back(Fact::IdMatch(w.leaf_pairs[i].first,
                                w.leaf_pairs[i].second));
  }
  return out;
}

}  // namespace dcer

#endif  // DCER_TESTS_WORKLOADS_H_
