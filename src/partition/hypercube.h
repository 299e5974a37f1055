#ifndef DCER_PARTITION_HYPERCUBE_H_
#define DCER_PARTITION_HYPERCUBE_H_

#include <unordered_map>

#include "partition/mqo.h"
#include "relational/dataset.h"

namespace dcer {

/// Shared evaluator of the hash functions h_1..h_m over attribute values.
/// Memoizes (function, value) pairs; with MQO-shared functions, different
/// rules hashing the same attribute hit the cache — the saving that
/// motivates Theorem 5's MHFP heuristic. Counters feed the partition stats.
class HashEvaluator {
 public:
  uint64_t Eval(int fn, uint64_t value_hash);

  uint64_t num_computations() const { return computations_; }
  uint64_t num_hits() const { return hits_; }

 private:
  std::unordered_map<uint64_t, uint64_t> cache_;
  uint64_t computations_ = 0;
  uint64_t hits_ = 0;
};

/// The per-rule Hypercube grid: one dimension per distinct variable, sized
/// so that Π sizes == num_cells. Sizes are chosen greedily to minimize the
/// total replication Σ_q |R_q| · Π_{dims not touching q} n_d — the discrete
/// analogue of the Lagrangean sizing in Afrati-Ullman.
struct HypercubeGrid {
  std::vector<int> dim_sizes;
  int num_cells = 1;

  static HypercubeGrid Build(const Dataset& dataset, const Rule& rule,
                             const RulePlan& plan, int num_cells);
};

/// Distributes every tuple of the rule's relations into the grid's cells:
/// for each tuple variable q of the rule, the tuple's coordinate in a
/// dimension is h_fn(value) mod n_d if the dimension touches q, and *
/// (broadcast) otherwise — extended Hypercube of Sec. IV. Each copy keeps
/// its role: the tuple's row is appended to (*cells)[c][q], so every
/// (cell, variable) list ends up ascending and duplicate-free. *cells must
/// hold grid.num_cells entries of rule.num_vars() lists each. Every
/// dimension touches some variable, so a valuation satisfying the rule's
/// equalities has exactly one cell whose role lists hold all of its tuples.
/// Returns the number of generated tuple copies (|E_φ|).
uint64_t DistributeRule(
    const Dataset& dataset, const Rule& rule, const RulePlan& plan,
    const HypercubeGrid& grid, HashEvaluator* hasher,
    std::vector<std::vector<std::vector<uint32_t>>>* cells);

}  // namespace dcer

#endif  // DCER_PARTITION_HYPERCUBE_H_
