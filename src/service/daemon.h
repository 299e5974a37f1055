#ifndef DCER_SERVICE_DAEMON_H_
#define DCER_SERVICE_DAEMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "service/protocol.h"
#include "service/resolver.h"

namespace dcer {
namespace service {

struct DaemonOptions {
  /// 0 = kernel-assigned ephemeral port (read it back from port()).
  uint16_t port = 0;
  int backlog = 64;
  /// Frames whose length prefix exceeds this are refused and the connection
  /// dropped — a garbage prefix must not make the daemon buffer gigabytes.
  size_t max_frame_bytes = size_t{32} << 20;
  /// Plain-HTTP telemetry listener: GET /metrics (Prometheus exposition) and
  /// GET /healthz, served from the same epoll loop so standard scrapers work
  /// with zero client code. -1 = disabled; 0 = kernel-assigned (read back
  /// from metrics_port()); otherwise the port to bind on 127.0.0.1.
  int metrics_port = -1;
  /// Queries and appends whose daemon-side latency exceeds this emit one
  /// structured "slow_query" log record (rate-limited per call site) with
  /// the request kind, trace id, batch size, fixpoint rounds and seeded
  /// joins. 0 = disabled.
  uint32_t slow_query_ms = 0;
};

/// Counters the daemon always keeps. Since the telemetry plane landed this
/// is a *view* assembled from the process-wide metrics registry ("dcerd.*"
/// families, recorded unconditionally — they are lock-free stripes, cheap
/// enough to not gate on DCER_METRICS) plus two per-daemon max trackers.
/// Counts are baselined at Start(), so a daemon reports only its own
/// traffic even when several daemons share the process. Returned by
/// ResolverDaemon::stats() and serialized into STATS replies.
struct DaemonStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_closed = 0;
  uint64_t frames_received = 0;
  uint64_t frames_rejected = 0;
  uint64_t append_requests = 0;
  uint64_t tuples_appended = 0;
  uint64_t append_batches = 0;  // fixpoints run (drained micro-batches)
  uint64_t queries_served = 0;
  double total_query_seconds = 0;
  double max_query_seconds = 0;
  /// Update-visibility lag: APPEND frame arrival → the fixpoint snapshot
  /// containing it is published. One sample per append request.
  uint64_t visibility_lag_samples = 0;
  double total_visibility_lag_seconds = 0;
  double max_visibility_lag_seconds = 0;
};

/// `dcerd`: the online resolver daemon. A single epoll event-loop thread
/// serves point queries (RESOLVE / SAME / STATS / METRICS) directly from the
/// resolver's current snapshot — never touching live chase state — while
/// APPEND requests are queued and drained into `Resolver::Append`
/// micro-batches on the shared thread pool. Each drain runs one
/// update-driven fixpoint over everything queued while the previous one ran
/// (natural batching under load), publishes a fresh snapshot, and only then
/// acks the appends — an APPENDED reply therefore guarantees the batch is
/// visible to every subsequent query.
///
/// Telemetry plane: every request is accounted into registry histograms —
/// `dcerd.queue_wait` (APPEND arrival → drain start), `dcerd.exec` (drain
/// start → snapshot published) and `dcerd.publish_lag` (published → reply
/// handed to the socket), plus `dcerd.query` for inline queries — and a
/// request carrying a v3 trace context has all daemon-side spans recorded
/// under its trace_id, so DCER_TRACE_FILE yields one stitched Chrome trace
/// per request. The optional `metrics_port` HTTP listener exposes the whole
/// registry in Prometheus text format.
///
/// Transport: loopback TCP, u32-LE length-prefixed frames, each frame one
/// protocol message (service/protocol.h). A killed client or half-written
/// frame just closes that connection; a frame with a foreign protocol
/// version gets a typed ERROR reply and the stream keeps going (framing
/// stays in sync).
class ResolverDaemon {
 public:
  explicit ResolverDaemon(std::unique_ptr<Resolver> resolver,
                          DaemonOptions options = {});
  ~ResolverDaemon();

  ResolverDaemon(const ResolverDaemon&) = delete;
  ResolverDaemon& operator=(const ResolverDaemon&) = delete;

  /// Binds 127.0.0.1, listens, and spawns the event-loop thread.
  Status Start();

  /// Stops the loop, waits for any in-flight chase, closes every
  /// connection. Idempotent; also run by the destructor.
  void Stop();

  /// The bound port (valid after Start() succeeded).
  uint16_t port() const { return port_; }

  /// The bound telemetry HTTP port; 0 when the listener is disabled.
  uint16_t metrics_port() const { return metrics_port_; }

  /// True once a SHUTDOWN request arrived or Stop() began — the dcerd
  /// binary polls this to know when to tear down.
  bool stop_requested() const { return stop_requested_.load(); }

  Resolver& resolver() { return *resolver_; }
  const Resolver& resolver() const { return *resolver_; }

  DaemonStats stats() const;

  /// The STATS-reply JSON body (also handy for tests and the bench).
  std::string StatsJson() const;

  /// The /metrics + METRICS-reply body: the registry in Prometheus text.
  std::string MetricsText() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Connection {
    int fd = -1;
    uint64_t id = 0;
    bool http = false;        // accepted on the telemetry listener
    std::vector<uint8_t> in;  // accumulated unparsed input
    size_t in_off = 0;
    std::vector<uint8_t> out;  // unflushed framed output
    size_t out_off = 0;
    bool close_after_flush = false;
    bool want_write = false;
  };

  struct AppendWork {
    uint64_t conn_id = 0;
    Request request;  // kAppend; blocks decoded on the chase task
    Clock::time_point arrival;
  };

  struct Outgoing {
    uint64_t conn_id = 0;
    std::vector<uint8_t> frame;  // length prefix + encoded response
    /// When the fixpoint covering this reply published; zero (epoch) for
    /// error replies. Feeds dcerd.publish_lag on the loop thread.
    Clock::time_point published{};
  };

  /// Cached registry metric pointers (stable for the process lifetime) and
  /// the values they held when this daemon started — stats() reports the
  /// delta, two local atomics track the per-daemon maxima.
  struct Telemetry {
    obs::Counter* connections_accepted;
    obs::Counter* connections_closed;
    obs::Counter* frames_received;
    obs::Counter* frames_rejected;
    obs::Counter* append_requests;
    obs::Counter* tuples_appended;
    obs::Counter* append_batches;
    obs::Histogram* query;           // kNanos, one sample per inline query
    obs::Histogram* queue_wait;      // kNanos, per append request
    obs::Histogram* exec;            // kNanos, per append request
    obs::Histogram* publish_lag;     // kNanos, per append reply
    obs::Histogram* visibility_lag;  // kNanos, per append request

    struct Base {
      uint64_t connections_accepted = 0;
      uint64_t connections_closed = 0;
      uint64_t frames_received = 0;
      uint64_t frames_rejected = 0;
      uint64_t append_requests = 0;
      uint64_t tuples_appended = 0;
      uint64_t append_batches = 0;
      uint64_t query_count = 0;
      uint64_t query_sum_ns = 0;
      uint64_t visibility_count = 0;
      uint64_t visibility_sum_ns = 0;
    } base;

    std::atomic<uint64_t> max_query_ns{0};
    std::atomic<uint64_t> max_visibility_lag_ns{0};

    Telemetry();
    void Rebase();
    void MergeMax(std::atomic<uint64_t>* slot, uint64_t ns);
  };

  void LoopThread();
  void AcceptAll(int listen_fd, bool http);
  void HandleReadable(Connection* c);
  void HandleWritable(Connection* c);
  /// Parses complete frames out of c->in; returns false if c was closed.
  bool ParseFrames(Connection* c);
  /// Serves GET /metrics and /healthz; returns false if c was closed.
  bool ParseHttp(Connection* c);
  void HandleFrame(Connection* c, const uint8_t* data, size_t size);
  void QueueResponse(Connection* c, const Response& resp);
  void FlushOutput(Connection* c);
  void UpdateWriteInterest(Connection* c);
  void CloseConnection(Connection* c);
  void DrainCompleted();

  /// Starts a chase-drain task if none is running (queue_mu_ held).
  void MaybeStartChaseLocked();
  /// Runs on the thread pool: drains queued appends in micro-batches.
  void ChaseDrain();
  void WakeLoop();

  std::unique_ptr<Resolver> resolver_;
  DaemonOptions options_;

  int listen_fd_ = -1;
  int metrics_listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  uint16_t port_ = 0;
  uint16_t metrics_port_ = 0;
  std::thread loop_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};

  // Event-loop-thread-only state.
  std::unordered_map<int, std::unique_ptr<Connection>> conns_;
  std::unordered_map<uint64_t, Connection*> conns_by_id_;
  uint64_t next_conn_id_ = 1;

  // Shared between the loop thread and chase tasks.
  std::mutex queue_mu_;
  std::vector<AppendWork> pending_appends_;
  std::vector<Outgoing> completed_;
  bool chase_inflight_ = false;
  TaskGroup chase_group_;

  mutable Telemetry telemetry_;
};

}  // namespace service
}  // namespace dcer

#endif  // DCER_SERVICE_DAEMON_H_
