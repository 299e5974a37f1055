#include "eval/runner.h"

#include "baselines/matchers.h"
#include "baselines/variants.h"
#include "common/timer.h"
#include "service/resolver.h"

namespace dcer {

const char* MethodName(Method method) {
  switch (method) {
    case Method::kDMatch:
      return "DMatch";
    case Method::kDMatchNoMqo:
      return "DMatch_noMQO";
    case Method::kDMatchC:
      return "DMatch_C";
    case Method::kDMatchD:
      return "DMatch_D";
    case Method::kMatchSeq:
      return "Match(seq)";
    case Method::kBlocking:
      return "Blocking(Dedoop-like)";
    case Method::kWindowing:
      return "Windowing";
    case Method::kMlMatcher:
      return "ML(DeepER-like)";
    case Method::kMetaBlocking:
      return "MetaBlock(SparkER-like)";
    case Method::kDistDedup:
      return "DistDedup-like";
    case Method::kHybrid:
      return "Hybrid(ERBlox-like)";
  }
  return "?";
}

RunResult RunMethod(Method method, const GenDataset& gd, int num_workers,
                    uint64_t seed) {
  RunResult result;
  Timer timer;

  // The engine methods all go through the Resolver facade now: a borrowed
  // open runs the same fixpoint the old Match/DMatch free functions did and
  // hands back an immutable Γ snapshot for evaluation.
  auto run_resolver = [&](const RuleSet& rules, int workers, bool use_mqo) {
    ResolverOptions options;
    options.num_workers = workers;
    options.use_mqo = use_mqo;
    auto resolver = Resolver::OpenBorrowed(gd.dataset, rules, &gd.registry,
                                           options);
    if (const DMatchReport* report = resolver->dmatch_report()) {
      result.partition_seconds = report->partition_seconds;
      result.work = report->chase.valuations;
      result.supersteps = report->supersteps;
      result.messages = report->messages;
    } else if (const MatchReport* report = resolver->match_report()) {
      result.work = report->chase.valuations;
    }
    result.seconds = timer.ElapsedSeconds();
    result.accuracy = gd.truth.Evaluate(resolver->Snapshot()->MatchedPairs());
  };

  switch (method) {
    case Method::kDMatch:
      run_resolver(gd.rules, num_workers, true);
      return result;
    case Method::kDMatchNoMqo:
      run_resolver(gd.rules, num_workers, false);
      return result;
    case Method::kDMatchC:
      run_resolver(CollectiveOnlyRules(gd.rules), num_workers, true);
      return result;
    case Method::kDMatchD:
      run_resolver(DeepOnlyRules(gd.rules), num_workers, true);
      return result;
    case Method::kMatchSeq:
      run_resolver(gd.rules, 0, true);
      return result;
    default:
      break;
  }

  // Non-engine baselines still drive a MatchContext directly.
  MatchContext ctx(gd.dataset);
  switch (method) {
    case Method::kBlocking: {
      BaselineReport r = RunBlocking(gd.dataset, gd.hints, {}, &ctx);
      result.work = r.comparisons;
      break;
    }
    case Method::kWindowing: {
      BaselineReport r = RunWindowing(gd.dataset, gd.hints, {}, &ctx);
      result.work = r.comparisons;
      break;
    }
    case Method::kMlMatcher: {
      BaselineReport r =
          RunMlMatcher(gd.dataset, gd.hints, {}, gd.truth, seed, &ctx);
      result.work = r.comparisons;
      break;
    }
    case Method::kMetaBlocking: {
      BaselineReport r = RunMetaBlocking(gd.dataset, gd.hints, {}, &ctx);
      result.work = r.comparisons;
      break;
    }
    case Method::kDistDedup: {
      BaselineConfig config;
      config.num_workers = num_workers;
      BaselineReport r = RunDistDedup(gd.dataset, gd.hints, config, &ctx);
      result.work = r.comparisons;
      break;
    }
    case Method::kHybrid: {
      BaselineReport r =
          RunHybrid(gd.dataset, gd.hints, {}, gd.truth, seed, &ctx);
      result.work = r.comparisons;
      break;
    }
    default:
      break;
  }
  result.seconds = timer.ElapsedSeconds();
  result.accuracy = gd.truth.Evaluate(ctx.MatchedPairs());
  return result;
}

}  // namespace dcer
