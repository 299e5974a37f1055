#ifndef DCER_PARALLEL_MASTER_H_
#define DCER_PARALLEL_MASTER_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "chase/fact.h"
#include "common/union_find.h"
#include "parallel/wire.h"

namespace dcer {

class ThreadPool;

/// The coordinator P_0 of the fixpoint model (Sec. III-B): collects the new
/// matches each worker deduced in a superstep and routes them to the workers
/// that can use them.
///
/// Collect is the only serial section. It maintains exactly one piece of
/// global state, the equivalence relation E_id (a union-find over tuple
/// ids), and picks each routed fact's destinations:
///   - A validated ML fact M(a, b) goes to the workers hosting both a and b:
///     only a valuation binding both reads it, and Lemma 6 places every
///     valuation on a worker hosting all its tuples.
///   - When a match merges classes Ca and Cb, the master emits the
///     |Ca| + |Cb| − 1 spanning pairs (x, new-root) instead of the
///     |Ca| × |Cb| cross product. (x, root) goes to the workers hosting x
///     and at least one other member of the merged class. Each such worker
///     recovers from the spanning pairs it receives every pair of members it
///     hosts, through its own union-find (MatchContext::Apply expands class
///     merges locally). A valuation needing a concrete pair (x, y) lives on
///     a worker hosting both, which receives both spanning pairs, so Γ
///     equals sequential Match's.
///
/// Dispatch is the parallel section: each destination merges what the
/// sources queued for it on the thread pool — sources in worker order,
/// duplicate delivery suppressed by one `seen` shard per destination (no
/// global set, no cross-shard writes). Each destination's batch is then
/// serialized by the wire codec (`parallel/wire.h`) and decoded into the
/// worker inbox, so every reported byte is a byte a real channel would
/// carry.
class Master {
 public:
  struct Options {
    /// Runs Dispatch's per-destination merge/encode as pool tasks. nullptr
    /// routes serially; delivered facts are identical.
    ThreadPool* pool = nullptr;
  };

  /// `hosts` maps gid -> sorted worker ids hosting that tuple (from HyPart).
  /// The three-argument form uses default Options (serial routing).
  Master(const std::vector<std::vector<uint32_t>>* hosts, int num_workers,
         size_t num_tuples);
  Master(const std::vector<std::vector<uint32_t>>* hosts, int num_workers,
         size_t num_tuples, Options options);

  /// Accepts the outbox of worker `from` at the end of a superstep: updates
  /// the global E_id and queues each routed fact for its destinations
  /// (serial, O(α + hosts) per fact plus the members' hosts on merges).
  void Collect(int from, std::vector<Fact> facts);

  /// Decodes worker `from`'s encoded outbox batch (empty = no facts) and
  /// Collects it, charging the batch to the collect-side wire accounting.
  /// The batch is decoded before any state changes: a batch the codec
  /// rejects returns its error and leaves E_id, the route queues and the
  /// outbox counters untouched.
  wire::WireError CollectFromWorker(int from, std::vector<uint8_t> bytes);

  /// Routes everything queued since the last Dispatch into per-worker
  /// inboxes (resized to num_workers). Returns true if any inbox is
  /// non-empty, i.e., another superstep is needed.
  bool Dispatch(std::vector<std::vector<Fact>>* inboxes);

  /// Facts delivered to worker inboxes, total and for the most recent
  /// Dispatch. Bytes are actual serialized batch sizes from the wire codec
  /// — the single source of truth for the per-superstep numbers in
  /// `SuperstepStats` and the totals in `DMatchReport`.
  uint64_t messages_routed() const { return messages_routed_; }
  uint64_t bytes_routed() const { return bytes_routed_; }
  uint64_t last_dispatch_messages() const { return last_dispatch_messages_; }
  uint64_t last_dispatch_bytes() const { return last_dispatch_bytes_; }

  /// Collect-side wire volume: facts/serialized bytes of the worker
  /// outbox batches (counted when CollectFromWorker decodes a batch;
  /// plain Collect calls count facts with zero bytes).
  uint64_t outbox_messages() const { return outbox_messages_; }
  uint64_t outbox_bytes() const { return outbox_bytes_; }

  /// Router timing: total wall clock spent routing in Dispatch.
  double route_seconds() const { return route_seconds_; }

  const UnionFind& global_eid() const { return eid_; }

 private:
  // Sorted workers hosting `gid` (none for a gid HyPart never saw).
  const std::vector<uint32_t>& HostsOf(Gid gid) const;

  const std::vector<std::vector<uint32_t>>* hosts_;
  int num_workers_;
  Options options_;
  UnionFind eid_;  // global equivalence over all tuple ids

  // Queued by Collect, drained by Dispatch: [source][destination] facts,
  // and per source the keys of the facts it sent.
  std::vector<std::vector<std::vector<Fact>>> outgoing_;
  std::vector<std::vector<uint64_t>> sender_keys_;
  // Collect's scratch: per worker, members of the class being merged that
  // it hosts.
  std::vector<uint32_t> hosted_members_;

  // Per-destination fact keys already delivered (or derived by the
  // destination itself). Only the destination's own Dispatch shard writes
  // its set.
  std::vector<std::unordered_set<uint64_t>> seen_;

  uint64_t messages_routed_ = 0;
  uint64_t bytes_routed_ = 0;
  uint64_t last_dispatch_messages_ = 0;
  uint64_t last_dispatch_bytes_ = 0;
  uint64_t outbox_messages_ = 0;
  uint64_t outbox_bytes_ = 0;
  double route_seconds_ = 0;
};

}  // namespace dcer

#endif  // DCER_PARALLEL_MASTER_H_
