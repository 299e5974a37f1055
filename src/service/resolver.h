#ifndef DCER_SERVICE_RESOLVER_H_
#define DCER_SERVICE_RESOLVER_H_

#include <memory>
#include <mutex>
#include <vector>

#include "chase/gamma_snapshot.h"
#include "chase/match.h"
#include "common/status.h"
#include "parallel/dmatch.h"

namespace dcer {

/// Knobs of an open resolver. The EngineOptions base carries everything the
/// chase itself understands (dependency capacity, MQO, ML indices and
/// profiles); the fields here select the
/// execution strategy around it. With `num_workers == 0` the initial
/// fixpoint runs the sequential chase in-process; with `num_workers > 0` it
/// runs the BSP DMatch (HyPart partitioning, supersteps, master routing) and
/// later appends fall back to the in-process incremental engine.
struct ResolverOptions : EngineOptions {
  /// 0 = sequential initial chase; > 0 = DMatch with that many BSP workers.
  int num_workers = 0;
  /// DMatch passthrough (ignored when num_workers == 0); see DMatchOptions.
  bool run_parallel = true;
  /// Record rule/fact provenance in the match context (sequential opens).
  bool enable_provenance = false;
  /// Read by nothing. Kept only so perfbench/, which assigns it, compiles
  /// until it can drop the assignment.
  int threads = 1;
};

/// A batch of raw tuples to ingest: each entry names the destination
/// relation by index and carries an owned row. Wire-free — the daemon
/// converts decoded tuple blocks into one of these, and embedded callers
/// build them directly.
struct TupleBatch {
  struct Entry {
    size_t relation;
    Row row;
  };
  std::vector<Entry> tuples;

  void Add(size_t relation, Row row) {
    tuples.push_back({relation, std::move(row)});
  }
  bool empty() const { return tuples.empty(); }
  size_t size() const { return tuples.size(); }
};

/// Outcome of one Append: the gids assigned to the batch (in batch order),
/// the incremental-maintenance report of the fixpoint it triggered, and the
/// version of the snapshot published at that fixpoint — by the time Append
/// returns, every query against Snapshot() sees the batch's consequences.
/// A refused batch has a non-OK `status`, no gids and snapshot_version 0,
/// and left the dataset and the published snapshot untouched.
struct AppendOutcome {
  Status status;
  std::vector<Gid> gids;
  MatchReport report;
  uint64_t snapshot_version = 0;
};

/// The unified entry point for deep and collective ER — the facade that
/// subsumed the old public free functions `Match` (sequential), `DMatch`
/// (BSP parallel) and the `IncrementalMatcher` wrapper, all since removed
/// (the fixpoint kernels live on as `engine::Match` / `engine::DMatch` for
/// white-box tests and benches). Open() chases the initial
/// dataset to its fixpoint; Append() extends Γ incrementally per batch
/// (update-driven IncDeduce, Sec. V-A Remark); Resolve()/SameEntity() answer
/// point queries; Snapshot() hands out the immutable Γ view those queries
/// read.
///
/// Concurrency contract (snapshot isolation): Append serializes internally;
/// queries run against the most recently *published* snapshot and therefore
/// never block an in-flight chase, and never observe a half-applied batch.
/// Any number of threads may call Resolve/SameEntity/Snapshot concurrently
/// with one appender.
class Resolver {
 public:
  /// Opens a resolver that owns `dataset` (moved; later Appends grow it) and
  /// chases the initial contents to the fixpoint. `registry` is borrowed and
  /// must outlive the resolver (it is shared, mutable state — the prediction
  /// cache — exactly like the old entry points borrowed it).
  static std::unique_ptr<Resolver> Open(Dataset&& dataset, RuleSet rules,
                                        const MlRegistry* registry,
                                        ResolverOptions options = {});

  /// Opens a read-only resolver over an externally owned dataset (borrowed;
  /// must outlive the resolver). Serves the same queries and snapshots, but
  /// Append is refused — growing a dataset this resolver does not own would
  /// race its owner. Evaluation and benches use this to run many resolver
  /// configurations over one generated dataset.
  static std::unique_ptr<Resolver> OpenBorrowed(const Dataset& dataset,
                                                RuleSet rules,
                                                const MlRegistry* registry,
                                                ResolverOptions options = {});

  ~Resolver();

  Resolver(const Resolver&) = delete;
  Resolver& operator=(const Resolver&) = delete;

  /// Appends the batch to the dataset, runs the update-driven chase to the
  /// new fixpoint, publishes a fresh snapshot, and returns the assigned gids
  /// plus the per-batch report. The whole batch is validated before the
  /// first tuple is appended: a relation index out of range, a row of the
  /// wrong arity or a non-NULL cell of the wrong type refuses it with
  /// InvalidArgument, and a borrowed-dataset resolver refuses every batch
  /// with NotSupported.
  AppendOutcome Append(TupleBatch batch);

  /// The current published Γ snapshot (never null after Open returns).
  std::shared_ptr<const GammaSnapshot> Snapshot() const;

  /// Entity class of `gid` in the current snapshot (sorted, includes gid).
  std::vector<Gid> Resolve(Gid gid) const { return Snapshot()->Entity(gid); }

  /// True iff (a, b) ∈ E_id in the current snapshot.
  bool SameEntity(Gid a, Gid b) const { return Snapshot()->SameEntity(a, b); }

  const Dataset& dataset() const { return *dataset_; }
  const RuleSet& rules() const { return rules_; }
  const MlRegistry& registry() const { return *registry_; }
  const ResolverOptions& options() const { return options_; }
  bool owns_dataset() const { return owned_dataset_ != nullptr; }

  /// The dataset's one ML profile store, read by every engine this resolver
  /// runs (DMatch workers included); nullptr when ml_profiles is off or no
  /// ML predicate reads a single string column. Appends extend it in place.
  const ProfileStore* profiles() const { return profiles_.store(); }

  /// Rule/fact provenance recorded by the fixpoints (Explain()); non-null
  /// only when opened with enable_provenance and num_workers == 0.
  const ProvenanceLog* provenance() const;

  /// Report of the Open-time fixpoint. For a sequential open match_report()
  /// is set; for a DMatch open dmatch_report() is set instead (with the BSP
  /// specifics: partitioning, supersteps, message/byte counts).
  const MatchReport* match_report() const { return open_match_report_.get(); }
  const DMatchReport* dmatch_report() const {
    return open_dmatch_report_.get();
  }

 private:
  Resolver(std::unique_ptr<Dataset> owned, const Dataset* dataset,
           RuleSet rules, const MlRegistry* registry, ResolverOptions options);

  /// Runs the Open-time fixpoint (sequential chase or DMatch per options)
  /// and publishes the first snapshot.
  void RunOpenFixpoint();

  /// Builds the single-engine chase over the full view and runs it to the
  /// fixpoint with a full pass. A sequential open does this up front; a
  /// DMatch open leaves Γ complete but no single-engine dependency store H,
  /// so the first Append re-seeds one this way (derives nothing new —
  /// Prop. 4/8 — but records every dependency).
  MatchReport BuildEngine();
  void Publish();

  ResolverOptions options_;
  std::unique_ptr<Dataset> owned_dataset_;  // null when borrowed
  const Dataset* dataset_;                  // owned_dataset_ or the borrow
  RuleSet rules_;
  const MlRegistry* registry_;
  DatasetProfiles profiles_;  // built at Open; extended by Append

  std::unique_ptr<DatasetView> view_;
  std::unique_ptr<MatchContext> ctx_;
  std::unique_ptr<ChaseEngine> engine_;

  std::unique_ptr<MatchReport> open_match_report_;
  std::unique_ptr<DMatchReport> open_dmatch_report_;

  uint64_t version_ = 0;            // last published snapshot version
  std::mutex append_mu_;            // serializes Append + BuildEngine
  mutable std::mutex snapshot_mu_;  // guards the snapshot pointer swap
  std::shared_ptr<const GammaSnapshot> snapshot_;
};

}  // namespace dcer

#endif  // DCER_SERVICE_RESOLVER_H_
