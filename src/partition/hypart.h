#ifndef DCER_PARTITION_HYPART_H_
#define DCER_PARTITION_HYPART_H_

#include "chase/view.h"
#include "partition/hypercube.h"

namespace dcer {

/// Configuration of algorithm HyPart (Fig. 2).
struct HyPartOptions {
  int num_workers = 4;
  /// MQO hash-function sharing across rules (Sec. IV). Off = noMQO ablation.
  bool use_mqo = true;
  /// Partition into num_workers² virtual blocks, then LPT-balance them onto
  /// workers (the paper's skewness reduction). Off: one block per worker.
  bool use_virtual_blocks = true;
};

/// Metrics of one partitioning run.
struct PartitionStats {
  uint64_t generated_tuples = 0;   // |H(Σ, D)|: copies before dedup
  uint64_t fragment_tuples = 0;    // Σ|W_i| after per-fragment dedup
  uint64_t hash_computations = 0;  // distinct (h_i, value) evaluations
  uint64_t hash_cache_hits = 0;    // evaluations saved by MQO sharing
  int num_hash_functions = 0;
  double replication_factor = 0;   // fragment_tuples / |D|
  double skew = 0;                 // max fragment size / average
  double seconds = 0;
};

/// The partition: per worker, the union fragment (used for hosting/routing)
/// and, per rule, one view per assigned virtual block. Each worker
/// evaluates rule r separately inside each of its rule-r blocks: every
/// valuation of r is fully contained in *at least* one block (Lemma 6).
/// It is not unique: a cell keeps one gid set per relation, not per
/// variable, so a valuation binding two roles of one relation (and every
/// reflexive valuation) can be found in several cells, and the cluster
/// repeats that join work (measured 5.78× total valuations at n = 4 on
/// TPC-H). Evaluating over merged fragments instead would join tuples
/// across blocks as well. `hosts` maps gid -> workers hosting the tuple (in
/// any rule's block), for routing.
struct Partition {
  std::vector<DatasetView> fragments;  // union per worker
  // [worker][rule] -> the rule's non-empty blocks assigned to the worker.
  std::vector<std::vector<std::vector<DatasetView>>> rule_views;
  std::vector<std::vector<uint32_t>> hosts;  // by gid, sorted
  PartitionStats stats;
};

/// Algorithm HyPart: partitions `dataset` for the rule set such that
/// checking D ⊨ Σ is local (Lemma 6): every valuation of every rule is
/// entirely contained in at least one fragment. Tuples of relations no rule
/// mentions are spread round-robin.
Partition HyPart(const Dataset& dataset, const RuleSet& rules,
                 const HyPartOptions& options);

}  // namespace dcer

#endif  // DCER_PARTITION_HYPART_H_
