#include "parallel/master.h"

#include <algorithm>
#include <cstdlib>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/timer.h"

namespace dcer {

Master::Master(const std::vector<std::vector<uint32_t>>* hosts,
               int num_workers, size_t num_tuples)
    : Master(hosts, num_workers, num_tuples, Options()) {}

Master::Master(const std::vector<std::vector<uint32_t>>* hosts,
               int num_workers, size_t num_tuples, Options options)
    : hosts_(hosts),
      num_workers_(num_workers),
      options_(options),
      eid_(num_tuples),
      outgoing_(num_workers, std::vector<std::vector<Fact>>(num_workers)),
      sender_keys_(num_workers),
      hosted_members_(num_workers, 0),
      seen_(num_workers) {}

const std::vector<uint32_t>& Master::HostsOf(Gid gid) const {
  static const std::vector<uint32_t> kNone;
  return gid < hosts_->size() ? (*hosts_)[gid] : kNone;
}

void Master::Collect(int from, std::vector<Fact> facts) {
  std::vector<std::vector<Fact>>& out = outgoing_[from];
  std::vector<uint64_t>& sent = sender_keys_[from];
  for (const Fact& f : facts) {
    // The sender already knows this exact fact; its Dispatch shard marks it
    // before any delivery so it is never echoed back.
    sent.push_back(f.Key());
    if (f.kind == Fact::Kind::kMl) {
      // Only a valuation binding both tuples reads M(a, b), and it runs on
      // a worker hosting both: route to the intersection of their hosts.
      // Cross-superstep duplicates are suppressed at delivery by the
      // per-destination seen shards; no global validated-ML set.
      const std::vector<uint32_t>& ha = HostsOf(f.a);
      const std::vector<uint32_t>& hb = HostsOf(f.b);
      size_t j = 0;
      for (uint32_t w : ha) {
        while (j < hb.size() && hb[j] < w) ++j;
        if (j < hb.size() && hb[j] == w) out[w].push_back(f);
      }
      continue;
    }
    if (eid_.Same(f.a, f.b)) continue;
    // Route the |Ca| + |Cb| - 1 spanning pairs (x, new-root). A worker
    // learns x ~ root iff it hosts x and at least one other member of the
    // merged class: its local union-find then recovers every pair of
    // members it hosts, which are the only pairs its valuations can bind.
    // A host of x alone needs nothing until a later merge brings a second
    // member, and that merge re-routes every member's spanning pair.
    std::vector<uint32_t> members = eid_.ClassMembers(f.a);
    {
      std::vector<uint32_t> cb = eid_.ClassMembers(f.b);
      members.insert(members.end(), cb.begin(), cb.end());
    }
    eid_.Union(f.a, f.b);
    const uint32_t root = eid_.Find(f.a);
    std::fill(hosted_members_.begin(), hosted_members_.end(), 0);
    for (uint32_t x : members) {
      for (uint32_t w : HostsOf(x)) ++hosted_members_[w];
    }
    for (uint32_t x : members) {
      if (x == root) continue;
      for (uint32_t w : HostsOf(x)) {
        if (hosted_members_[w] >= 2) out[w].push_back(Fact::IdMatch(x, root));
      }
    }
  }
  outbox_messages_ += facts.size();
}

wire::WireError Master::CollectFromWorker(int from,
                                          std::vector<uint8_t> bytes) {
  std::vector<Fact> facts;
  if (!bytes.empty()) {
    const wire::WireError err = wire::DecodeFactBatch(bytes, &facts);
    if (err != wire::WireError::kOk) return err;
  }
  outbox_bytes_ += bytes.size();
  Collect(from, std::move(facts));
  return wire::WireError::kOk;
}

bool Master::Dispatch(std::vector<std::vector<Fact>>* inboxes) {
  Timer route_timer;
  inboxes->assign(num_workers_, {});

  // Per-destination merge: sources in worker order (the deterministic
  // merge), duplicate delivery suppressed by the destination's own seen
  // shard, then the batch is serialized by the wire codec. No shard touches
  // another shard's state.
  std::vector<std::vector<uint8_t>> encoded(num_workers_);
  std::vector<uint64_t> shard_messages(num_workers_, 0);
  auto merge_one = [&](int d) {
    // The destination knows every fact it sent this superstep: mark those
    // first so they are never delivered back to their producer.
    std::unordered_set<uint64_t>& seen = seen_[d];
    for (uint64_t key : sender_keys_[d]) seen.insert(key);
    std::vector<Fact> inbox;
    for (int src = 0; src < num_workers_; ++src) {
      for (const Fact& f : outgoing_[src][d]) {
        if (seen.insert(f.Key()).second) inbox.push_back(f);
      }
    }
    if (!inbox.empty()) {
      shard_messages[d] = wire::EncodeFactBatch(inbox, &encoded[d]);
    }
  };

  if (options_.pool != nullptr) {
    TaskGroup group(options_.pool);
    for (int d = 0; d < num_workers_; ++d) {
      group.Run([&merge_one, d] { merge_one(d); });
    }
    group.Wait();
  } else {
    for (int d = 0; d < num_workers_; ++d) merge_one(d);
  }

  // Delivery (serial, worker order): decode each encoded batch into the
  // worker's inbox and account the serialized size. The inbox is what the
  // codec delivered, not the merge shard's vector.
  last_dispatch_messages_ = 0;
  last_dispatch_bytes_ = 0;
  bool any = false;
  for (int d = 0; d < num_workers_; ++d) {
    if (encoded[d].empty()) continue;
    last_dispatch_bytes_ += encoded[d].size();
    last_dispatch_messages_ += shard_messages[d];
    const wire::WireError err =
        wire::DecodeFactBatch(encoded[d], &(*inboxes)[d]);
    if (err != wire::WireError::kOk) {
      // Encoder and decoder run in this process: a rejected batch is a
      // codec bug, and continuing would silently drop facts from Γ.
      DCER_LOG(Error) << "master: routed batch for worker " << d
                      << " failed to decode: " << wire::WireErrorName(err);
      std::abort();
    }
    if (!(*inboxes)[d].empty()) any = true;
  }
  messages_routed_ += last_dispatch_messages_;
  bytes_routed_ += last_dispatch_bytes_;

  for (int w = 0; w < num_workers_; ++w) {
    for (std::vector<Fact>& bucket : outgoing_[w]) bucket.clear();
    sender_keys_[w].clear();
  }

  route_seconds_ += route_timer.ElapsedSeconds();
  return any;
}

}  // namespace dcer
