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
/// and, per rule, one RuleBlock per assigned virtual block. Each worker
/// evaluates rule r separately inside each of its rule-r blocks, binding
/// every tuple variable only to the rows the Hypercube sent for that
/// variable (RuleBlock::roles). Every valuation of r lies in the role
/// rows of exactly one block of one worker (Lemma 6, made unique by the
/// roles), so the cluster enumerates each valuation once, as Match does.
/// Evaluating over merged fragments instead would join tuples across
/// blocks as well. `hosts` maps gid -> workers hosting the tuple (in any
/// rule's block), for routing.
struct Partition {
  std::vector<DatasetView> fragments;  // union per worker
  // [worker][rule] -> the rule's non-empty blocks assigned to the worker.
  std::vector<std::vector<std::vector<RuleBlock>>> rule_blocks;
  std::vector<std::vector<uint32_t>> hosts;  // by gid, sorted
  PartitionStats stats;
};

/// Algorithm HyPart: partitions `dataset` for the rule set such that
/// checking D ⊨ Σ is local (Lemma 6): every valuation of every rule is
/// entirely contained in the role rows of exactly one rule block. Tuples
/// of relations no rule mentions are spread round-robin.
Partition HyPart(const Dataset& dataset, const RuleSet& rules,
                 const HyPartOptions& options);

}  // namespace dcer

#endif  // DCER_PARTITION_HYPART_H_
