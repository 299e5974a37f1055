#include "service/resolver.h"

#include "common/logging.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
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

// The first tuple of `batch` that `dataset` cannot hold, as InvalidArgument:
// an unknown relation, a row of the wrong arity, or a non-NULL cell whose
// type is not its column's.
Status ValidateBatch(const Dataset& dataset, const TupleBatch& batch) {
  for (size_t i = 0; i < batch.size(); ++i) {
    const TupleBatch::Entry& entry = batch.tuples[i];
    if (entry.relation >= dataset.num_relations()) {
      return Status::InvalidArgument(StringPrintf(
          "tuple %zu: relation %zu of %zu", i, entry.relation,
          dataset.num_relations()));
    }
    const Schema& schema = dataset.relation(entry.relation).schema();
    if (entry.row.size() != schema.num_attrs()) {
      return Status::InvalidArgument(StringPrintf(
          "tuple %zu: %zu cells for %s's %zu attributes", i, entry.row.size(),
          schema.name().c_str(), schema.num_attrs()));
    }
    for (size_t a = 0; a < entry.row.size(); ++a) {
      const Value& v = entry.row[a];
      const ValueType type = schema.attr(a).type;
      if (!v.is_null() && v.type() != type) {
        return Status::InvalidArgument(StringPrintf(
            "tuple %zu: %s.%s holds %s, got %s", i, schema.name().c_str(),
            schema.attr(a).name.c_str(), ValueTypeName(type),
            ValueTypeName(v.type())));
      }
    }
  }
  return Status::OK();
}

DMatchOptions ToDMatchOptions(const ResolverOptions& options) {
  DMatchOptions dmo;
  static_cast<EngineOptions&>(dmo) = options;
  dmo.num_workers = options.num_workers;
  dmo.run_parallel = options.run_parallel;
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
    open_match_report_ = std::make_unique<MatchReport>(BuildEngine());
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

MatchReport Resolver::BuildEngine() {
  view_ = std::make_unique<DatasetView>(DatasetView::Full(*dataset_));
  ChaseEngine::Options engine_options =
      ChaseEngine::FromEngineOptions(options_, &ThreadPool::Global());
  engine_options.profiles = profiles_.store();
  engine_ = std::make_unique<ChaseEngine>(view_.get(), &rules_, registry_,
                                          ctx_.get(), engine_options);
  return engine::RunFixpoint(engine_.get(), *registry_,
                             [this](Delta* d) { engine_->Deduce(d); });
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
    out.status = Status::NotSupported("resolver borrows its dataset");
    DCER_LOG(Warning) << "Append refused: " << out.status.ToString();
    return out;
  }
  std::lock_guard<std::mutex> lock(append_mu_);
  out.status = ValidateBatch(*owned_dataset_, batch);
  if (!out.status.ok()) return out;
  // Only a DMatch open gets here without an engine: the re-seed, after
  // which appends are |Δ|-proportional.
  if (engine_ == nullptr) BuildEngine();

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
  out.report = engine::RunFixpoint(
      engine_.get(), *registry_,
      [&](Delta* d) { engine_->DeduceForNewTuples(out.gids, d); });

  Publish();
  out.snapshot_version = version_;
  return out;
}

}  // namespace dcer
