#ifndef DCER_EVAL_RUNNER_H_
#define DCER_EVAL_RUNNER_H_

#include "datagen/gen_dataset.h"
#include "eval/metrics.h"

namespace dcer {

/// Every method the benchmark harness compares: DMatch and its ablations
/// (Sec. VI "Baselines" items 1-4), plus the re-implemented comparator
/// categories (items 5-12; see DESIGN.md §4 for the substitution rationale).
enum class Method {
  kDMatch,        // full deep + collective parallel ER
  kDMatchNoMqo,   // no MQO sharing (partitioning + indices)
  kDMatchC,       // collective only (no id preconditions)
  kDMatchD,       // deep only (rules with <= 4 tuple variables)
  kMatchSeq,      // sequential Match (n = 1 reference)
  kBlocking,      // Dedoop-like
  kWindowing,     // merge/purge sorted neighborhood
  kMlMatcher,     // DeepER-like learned matcher
  kMetaBlocking,  // SparkER-like
  kDistDedup,     // DisDedup-like parallel pairwise
  kHybrid,        // ERBlox-like rules + ML
};

const char* MethodName(Method method);

/// Outcome of one method run on one generated workload.
struct RunResult {
  PrecisionRecall accuracy;
  double seconds = 0;            // end-to-end (partitioning included)
  double partition_seconds = 0;  // DMatch variants only
  uint64_t work = 0;             // valuations checked / pairs compared
  int supersteps = 0;            // DMatch variants only
  uint64_t messages = 0;         // DMatch variants only
};

/// Runs `method` on the workload and scores it against the ground truth.
/// `num_workers` applies to the parallel methods.
RunResult RunMethod(Method method, const GenDataset& gd, int num_workers,
                    uint64_t seed = 7);

}  // namespace dcer

#endif  // DCER_EVAL_RUNNER_H_
