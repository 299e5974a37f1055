#include "service/resolver.h"

#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dcer {

Resolver::Resolver(std::unique_ptr<Dataset> owned, const Dataset* dataset,
                   RuleSet rules, const MlRegistry* registry,
                   ResolverOptions options)
    : options_(options),
      owned_dataset_(std::move(owned)),
      dataset_(owned_dataset_ ? owned_dataset_.get() : dataset),
      rules_(std::move(rules)),
      registry_(registry),
      profiles_(*dataset_, rules_, options_.ml_profiles),
      ctx_(std::make_unique<MatchContext>(*dataset_)) {
  if (options_.enable_provenance && options_.num_workers == 0) {
    ctx_->EnableProvenance();
  }
}

Resolver::~Resolver() = default;

namespace {

DMatchOptions ToDMatchOptions(const ResolverOptions& options) {
  DMatchOptions dmo;
  static_cast<EngineOptions&>(dmo) = options;
  dmo.num_workers = options.num_workers;
  dmo.use_virtual_blocks = options.use_virtual_blocks;
  dmo.run_parallel = options.run_parallel;
  dmo.spanning_pairs = options.spanning_pairs;
  return dmo;
}

}  // namespace

void Resolver::RunOpenFixpoint() {
  if (options_.num_workers > 0) {
    open_dmatch_report_ = std::make_unique<DMatchReport>(
        engine::DMatch(*dataset_, rules_, *registry_,
                       ToDMatchOptions(options_), ctx_.get(), &profiles_));
    // The incremental engine (and its dependency store) is built lazily on
    // the first Append; queries only need the published snapshot.
  } else {
    EnsureEngine();
    Delta delta;
    engine_->Deduce(&delta);
    open_match_report_ =
        std::make_unique<MatchReport>(RunToFixpoint(std::move(delta)));
  }
  Publish();
}

std::unique_ptr<Resolver> Resolver::Open(Dataset&& dataset, RuleSet rules,
                                         const MlRegistry* registry,
                                         ResolverOptions options) {
  obs::InitFromEnv();  // sequential opens never reach the kernels' init
  auto owned = std::make_unique<Dataset>(std::move(dataset));
  std::unique_ptr<Resolver> r(new Resolver(std::move(owned), nullptr,
                                           std::move(rules), registry,
                                           options));
  r->RunOpenFixpoint();
  return r;
}

std::unique_ptr<Resolver> Resolver::OpenBorrowed(const Dataset& dataset,
                                                 RuleSet rules,
                                                 const MlRegistry* registry,
                                                 ResolverOptions options) {
  obs::InitFromEnv();
  std::unique_ptr<Resolver> r(new Resolver(nullptr, &dataset,
                                           std::move(rules), registry,
                                           options));
  r->RunOpenFixpoint();
  return r;
}

void Resolver::EnsureEngine() {
  if (engine_) return;
  view_ = std::make_unique<DatasetView>(DatasetView::Full(*dataset_));
  ChaseEngine::Options engine_options =
      ChaseEngine::FromEngineOptions(options_, &ThreadPool::Global());
  engine_options.profiles = profiles_.store();
  engine_ = std::make_unique<ChaseEngine>(view_.get(), &rules_, registry_,
                                          ctx_.get(), engine_options);
}

MatchReport Resolver::RunToFixpoint(Delta delta) {
  Timer timer;
  MatchReport report;
  // IncDeduce cascades internally until a round derives nothing, so one
  // call reaches the fixpoint.
  Delta rest;
  engine_->IncDeduce(delta, &rest);
  // Per-call stats: difference against the engine's running counters.
  const ChaseStats now = engine_->stats();
  report.chase = now - stats_before_;
  report.rounds = 1 + static_cast<int>(report.chase.inc_rounds);
  stats_before_ = now;
  report.seconds = timer.ElapsedSeconds();
  report.matched_pairs = ctx_->num_matched_pairs();
  report.validated_ml = ctx_->num_validated_ml();
  return report;
}

void Resolver::Publish() {
  auto snap = ctx_->MakeSnapshot(++version_);
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  snapshot_ = std::move(snap);
}

std::shared_ptr<const GammaSnapshot> Resolver::Snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

const ProvenanceLog* Resolver::provenance() const {
  return ctx_->provenance();
}

AppendOutcome Resolver::Append(TupleBatch batch) {
  DCER_TRACE("resolver.append");
  AppendOutcome out;
  if (!owned_dataset_) {
    DCER_LOG(Warning) << "Append refused: resolver borrows its dataset";
    return out;
  }
  std::lock_guard<std::mutex> lock(append_mu_);
  // A DMatch open defers this: the full Deduce over the already-complete
  // context derives nothing new but seeds the dependency store, after which
  // appends are |Δ|-proportional.
  const bool first_engine_use = engine_ == nullptr;
  EnsureEngine();
  if (first_engine_use && open_dmatch_report_) {
    Delta warmup;
    engine_->Deduce(&warmup);
    Delta rest;
    engine_->IncDeduce(warmup, &rest);
    stats_before_ = engine_->stats();
  }

  out.gids.reserve(batch.size());
  for (auto& entry : batch.tuples) {
    out.gids.push_back(
        owned_dataset_->AppendTuple(entry.relation, std::move(entry.row)));
  }

  // Make the new tuples visible to the evaluation scope, the indices, and
  // the equivalence relation, then run the update-driven pass.
  ctx_->GrowToDataset();
  for (Gid gid : out.gids) view_->Append(gid);
  profiles_.NotifyAppend(out.gids);
  engine_->NotifyAppend(out.gids);
  Delta delta;
  engine_->DeduceForNewTuples(out.gids, &delta);
  out.report = RunToFixpoint(std::move(delta));

  Publish();
  out.snapshot_version = version_;
  return out;
}

}  // namespace dcer
