#ifndef DCER_BENCH_BENCH_UTIL_H_
#define DCER_BENCH_BENCH_UTIL_H_

// Shared helpers for the table/figure bench binaries. Every binary accepts
// --name=value flags to rescale the workload (defaults are laptop-sized);
// EXPERIMENTS.md records the shapes measured with the defaults.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "eval/runner.h"
#include "common/string_util.h"
#include "eval/table_printer.h"
#include "parallel/dmatch.h"

namespace dcer::bench {

inline double ArgD(int argc, char** argv, const char* name, double def) {
  std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::atof(argv[i] + prefix.size());
    }
  }
  return def;
}

inline int ArgI(int argc, char** argv, const char* name, int def) {
  return static_cast<int>(ArgD(argc, argv, name, def));
}

/// Runs DMatch with workers executed sequentially by default, so
/// `simulated_seconds` (Σ per-superstep max over workers) models n dedicated
/// machines — the meaningful metric when the bench host has fewer cores than
/// workers. Pass run_parallel=true to measure the real pooled execution
/// instead. Clears the ML prediction cache first so back-to-back
/// comparison runs (MQO vs noMQO, worker sweeps) don't ride each other's
/// warm cache.
inline DMatchReport TimedDMatch(GenDataset& gd, const RuleSet& rules,
                                int workers, bool use_mqo, MatchContext* ctx,
                                bool run_parallel = false) {
  gd.registry.ClearCache();
  gd.registry.ResetStats();
  DMatchOptions options;
  options.num_workers = workers;
  options.use_mqo = use_mqo;
  options.run_parallel = run_parallel;
  return engine::DMatch(gd.dataset, rules, gd.registry, options, ctx);
}

inline void PrintHeader(const char* what) {
  std::printf("\n=== %s ===\n", what);
}

}  // namespace dcer::bench

#endif  // DCER_BENCH_BENCH_UTIL_H_
