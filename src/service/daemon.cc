#include "service/daemon.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/logging.h"
#include "obs/exposition.h"
#include "obs/json.h"
#include "obs/trace.h"

namespace dcer {
namespace service {

namespace {

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

uint64_t Nanos(std::chrono::steady_clock::duration d) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(d);
  return ns.count() <= 0 ? 0 : static_cast<uint64_t>(ns.count());
}

uint32_t ReadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

void AppendFramed(const std::vector<uint8_t>& payload,
                  std::vector<uint8_t>* out) {
  const uint32_t len = static_cast<uint32_t>(payload.size());
  out->push_back(static_cast<uint8_t>(len));
  out->push_back(static_cast<uint8_t>(len >> 8));
  out->push_back(static_cast<uint8_t>(len >> 16));
  out->push_back(static_cast<uint8_t>(len >> 24));
  out->insert(out->end(), payload.begin(), payload.end());
}

const char* RequestSpanName(Request::Kind kind) {
  switch (kind) {
    case Request::Kind::kAppend:
      return "dcerd.append.enqueue";
    case Request::Kind::kResolve:
      return "dcerd.resolve";
    case Request::Kind::kSame:
      return "dcerd.same";
    case Request::Kind::kStats:
      return "dcerd.stats";
    case Request::Kind::kShutdown:
      return "dcerd.shutdown";
    case Request::Kind::kMetrics:
      return "dcerd.metrics";
  }
  return "dcerd.request";
}

const char* RequestKindName(Request::Kind kind) {
  switch (kind) {
    case Request::Kind::kAppend:
      return "append";
    case Request::Kind::kResolve:
      return "resolve";
    case Request::Kind::kSame:
      return "same";
    case Request::Kind::kStats:
      return "stats";
    case Request::Kind::kShutdown:
      return "shutdown";
    case Request::Kind::kMetrics:
      return "metrics";
  }
  return "?";
}

int OpenLoopbackListener(uint16_t port, int backlog, uint16_t* bound) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      listen(fd, backlog) < 0) {
    close(fd);
    return -1;
  }
  socklen_t addr_len = sizeof(addr);
  getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  *bound = ntohs(addr.sin_port);
  return fd;
}

}  // namespace

ResolverDaemon::Telemetry::Telemetry() {
  auto& reg = obs::MetricsRegistry::Global();
  connections_accepted = reg.GetCounter("dcerd.connections_accepted");
  connections_closed = reg.GetCounter("dcerd.connections_closed");
  frames_received = reg.GetCounter("dcerd.frames_received");
  frames_rejected = reg.GetCounter("dcerd.frames_rejected");
  append_requests = reg.GetCounter("dcerd.append_requests");
  tuples_appended = reg.GetCounter("dcerd.tuples_appended");
  append_batches = reg.GetCounter("dcerd.append_batches");
  query = reg.GetHistogram("dcerd.query", obs::Histogram::Unit::kNanos);
  queue_wait =
      reg.GetHistogram("dcerd.queue_wait", obs::Histogram::Unit::kNanos);
  exec = reg.GetHistogram("dcerd.exec", obs::Histogram::Unit::kNanos);
  publish_lag =
      reg.GetHistogram("dcerd.publish_lag", obs::Histogram::Unit::kNanos);
  visibility_lag =
      reg.GetHistogram("dcerd.visibility_lag", obs::Histogram::Unit::kNanos);
}

void ResolverDaemon::Telemetry::Rebase() {
  base.connections_accepted = connections_accepted->Value();
  base.connections_closed = connections_closed->Value();
  base.frames_received = frames_received->Value();
  base.frames_rejected = frames_rejected->Value();
  base.append_requests = append_requests->Value();
  base.tuples_appended = tuples_appended->Value();
  base.append_batches = append_batches->Value();
  base.query_count = query->TotalCount();
  base.query_sum_ns = query->TotalSum();
  base.visibility_count = visibility_lag->TotalCount();
  base.visibility_sum_ns = visibility_lag->TotalSum();
  max_query_ns.store(0, std::memory_order_relaxed);
  max_visibility_lag_ns.store(0, std::memory_order_relaxed);
}

void ResolverDaemon::Telemetry::MergeMax(std::atomic<uint64_t>* slot,
                                         uint64_t ns) {
  uint64_t cur = slot->load(std::memory_order_relaxed);
  while (ns > cur &&
         !slot->compare_exchange_weak(cur, ns, std::memory_order_relaxed)) {
  }
}

ResolverDaemon::ResolverDaemon(std::unique_ptr<Resolver> resolver,
                               DaemonOptions options)
    : resolver_(std::move(resolver)),
      options_(options),
      chase_group_(&ThreadPool::Global()) {}

ResolverDaemon::~ResolverDaemon() { Stop(); }

Status ResolverDaemon::Start() {
  if (running_.load()) return Status::OK();

  listen_fd_ = OpenLoopbackListener(options_.port, options_.backlog, &port_);
  if (listen_fd_ < 0) return Status::IOError("bind/listen on 127.0.0.1 failed");

  if (options_.metrics_port >= 0) {
    metrics_listen_fd_ = OpenLoopbackListener(
        static_cast<uint16_t>(options_.metrics_port), options_.backlog,
        &metrics_port_);
    if (metrics_listen_fd_ < 0) {
      close(listen_fd_);
      listen_fd_ = -1;
      return Status::IOError("bind/listen for --metrics_port failed");
    }
  }

  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    if (epoll_fd_ >= 0) close(epoll_fd_);
    if (wake_fd_ >= 0) close(wake_fd_);
    close(listen_fd_);
    if (metrics_listen_fd_ >= 0) close(metrics_listen_fd_);
    listen_fd_ = metrics_listen_fd_ = epoll_fd_ = wake_fd_ = -1;
    return Status::IOError("epoll/eventfd setup failed");
  }

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_fd_;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  if (metrics_listen_fd_ >= 0) {
    ev.data.fd = metrics_listen_fd_;
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, metrics_listen_fd_, &ev);
  }

  telemetry_.Rebase();
  stop_requested_.store(false);
  running_.store(true);
  loop_ = std::thread([this] { LoopThread(); });
  return Status::OK();
}

void ResolverDaemon::Stop() {
  if (!running_.exchange(false)) return;
  stop_requested_.store(true);
  WakeLoop();
  if (loop_.joinable()) loop_.join();
  // Any in-flight chase still references the queues and the resolver; wait
  // it out before tearing anything down.
  chase_group_.Wait();
  for (auto& [fd, c] : conns_) close(fd);
  conns_.clear();
  conns_by_id_.clear();
  if (listen_fd_ >= 0) close(listen_fd_);
  if (metrics_listen_fd_ >= 0) close(metrics_listen_fd_);
  if (epoll_fd_ >= 0) close(epoll_fd_);
  if (wake_fd_ >= 0) close(wake_fd_);
  listen_fd_ = metrics_listen_fd_ = epoll_fd_ = wake_fd_ = -1;
}

DaemonStats ResolverDaemon::stats() const {
  const Telemetry& t = telemetry_;
  DaemonStats s;
  s.connections_accepted =
      t.connections_accepted->Value() - t.base.connections_accepted;
  s.connections_closed =
      t.connections_closed->Value() - t.base.connections_closed;
  s.frames_received = t.frames_received->Value() - t.base.frames_received;
  s.frames_rejected = t.frames_rejected->Value() - t.base.frames_rejected;
  s.append_requests = t.append_requests->Value() - t.base.append_requests;
  s.tuples_appended = t.tuples_appended->Value() - t.base.tuples_appended;
  s.append_batches = t.append_batches->Value() - t.base.append_batches;
  s.queries_served = t.query->TotalCount() - t.base.query_count;
  s.total_query_seconds =
      static_cast<double>(t.query->TotalSum() - t.base.query_sum_ns) / 1e9;
  s.max_query_seconds =
      static_cast<double>(t.max_query_ns.load(std::memory_order_relaxed)) /
      1e9;
  s.visibility_lag_samples =
      t.visibility_lag->TotalCount() - t.base.visibility_count;
  s.total_visibility_lag_seconds =
      static_cast<double>(t.visibility_lag->TotalSum() -
                          t.base.visibility_sum_ns) /
      1e9;
  s.max_visibility_lag_seconds =
      static_cast<double>(
          t.max_visibility_lag_ns.load(std::memory_order_relaxed)) /
      1e9;
  return s;
}

std::string ResolverDaemon::StatsJson() const {
  const DaemonStats s = stats();
  const auto snapshot = resolver_->Snapshot();
  JsonWriter w;
  w.BeginObject();
  w.KV("snapshot_version", snapshot->version());
  w.KV("num_tuples", static_cast<uint64_t>(snapshot->num_tuples()));
  w.KV("matched_pairs", snapshot->num_matched_pairs());
  w.KV("validated_ml", static_cast<uint64_t>(snapshot->num_validated_ml()));
  w.KV("connections_accepted", s.connections_accepted);
  w.KV("connections_closed", s.connections_closed);
  w.KV("frames_received", s.frames_received);
  w.KV("frames_rejected", s.frames_rejected);
  w.KV("append_requests", s.append_requests);
  w.KV("tuples_appended", s.tuples_appended);
  w.KV("append_batches", s.append_batches);
  w.KV("queries_served", s.queries_served);
  w.KV("total_query_seconds", s.total_query_seconds);
  w.KV("max_query_seconds", s.max_query_seconds);
  w.KV("visibility_lag_samples", s.visibility_lag_samples);
  w.KV("total_visibility_lag_seconds", s.total_visibility_lag_seconds);
  w.KV("max_visibility_lag_seconds", s.max_visibility_lag_seconds);
  // Interpolated quantiles over the whole-process dcerd.query histogram —
  // scrape-friendly mirrors of the client-side latencies perfbench measures.
  const auto snap = obs::MetricsRegistry::Global().Snapshot();
  auto it = snap.histograms.find("dcerd.query");
  if (it != snap.histograms.end() && it->second.count > 0) {
    w.KV("query_p50_seconds", it->second.Quantile(0.5) / 1e9);
    w.KV("query_p99_seconds", it->second.Quantile(0.99) / 1e9);
  }
  w.EndObject();
  return w.str();
}

std::string ResolverDaemon::MetricsText() const {
  return obs::RenderExposition(obs::MetricsRegistry::Global().Snapshot());
}

void ResolverDaemon::WakeLoop() {
  if (wake_fd_ < 0) return;
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t n = write(wake_fd_, &one, sizeof(one));
}

void ResolverDaemon::LoopThread() {
  epoll_event events[64];
  while (true) {
    const int n = epoll_wait(epoll_fd_, events, 64, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == listen_fd_) {
        AcceptAll(listen_fd_, /*http=*/false);
        continue;
      }
      if (fd == metrics_listen_fd_) {
        AcceptAll(metrics_listen_fd_, /*http=*/true);
        continue;
      }
      if (fd == wake_fd_) {
        uint64_t drained;
        while (read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        DrainCompleted();
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      Connection* c = it->second.get();
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        CloseConnection(c);
        continue;
      }
      if (events[i].events & EPOLLIN) {
        HandleReadable(c);
        if (conns_.find(fd) == conns_.end()) continue;  // closed mid-read
      }
      if (events[i].events & EPOLLOUT) HandleWritable(c);
    }
    if (stop_requested_.load()) {
      // Best-effort: push out whatever replies are already queued (e.g. the
      // SHUTDOWN ack) before leaving.
      DrainCompleted();
      for (auto& [fd, c] : conns_) FlushOutput(c.get());
      break;
    }
  }
}

void ResolverDaemon::AcceptAll(int listen_fd, bool http) {
  while (true) {
    const int fd =
        accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or a transient error: nothing more to accept
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    conn->http = http;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    conns_by_id_[conn->id] = conn.get();
    conns_.emplace(fd, std::move(conn));
    telemetry_.connections_accepted->Increment();
  }
}

void ResolverDaemon::HandleReadable(Connection* c) {
  uint8_t buf[64 * 1024];
  while (true) {
    const ssize_t n = recv(c->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      c->in.insert(c->in.end(), buf, buf + n);
      continue;
    }
    if (n == 0) {
      // Peer closed — possibly mid-frame (a killed client). Whatever partial
      // frame is buffered is discarded with the connection; nothing else in
      // the daemon ever saw it.
      CloseConnection(c);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConnection(c);
    return;
  }
  if (c->http) {
    ParseHttp(c);
  } else {
    ParseFrames(c);
  }
}

bool ResolverDaemon::ParseHttp(Connection* c) {
  // Minimal HTTP/1.0-style server: one GET per connection, reply, close.
  // The request is complete at the first blank line (no bodies on GET).
  static constexpr size_t kMaxHttpRequest = 16 * 1024;
  const std::string_view in(reinterpret_cast<const char*>(c->in.data()),
                            c->in.size());
  const size_t end = in.find("\r\n\r\n");
  if (end == std::string_view::npos) {
    if (c->in.size() > kMaxHttpRequest) {
      CloseConnection(c);
      return false;
    }
    return true;  // headers not complete yet
  }
  const size_t line_end = in.find("\r\n");
  const std::string_view request_line = in.substr(0, line_end);

  std::string status = "404 Not Found";
  std::string content_type = "text/plain; charset=utf-8";
  std::string body = "not found\n";
  if (request_line.rfind("GET ", 0) == 0) {
    const size_t path_end = request_line.find(' ', 4);
    const std::string_view path =
        request_line.substr(4, path_end == std::string_view::npos
                                   ? std::string_view::npos
                                   : path_end - 4);
    if (path == "/metrics") {
      status = "200 OK";
      content_type = "text/plain; version=0.0.4; charset=utf-8";
      body = MetricsText();
    } else if (path == "/healthz") {
      status = "200 OK";
      body = "ok\n";
    }
  } else {
    status = "405 Method Not Allowed";
    body = "only GET is served here\n";
  }

  std::string resp = "HTTP/1.0 " + status +
                     "\r\nContent-Type: " + content_type +
                     "\r\nContent-Length: " + std::to_string(body.size()) +
                     "\r\nConnection: close\r\n\r\n" + body;
  c->out.insert(c->out.end(), resp.begin(), resp.end());
  c->in.clear();
  c->in_off = 0;
  c->close_after_flush = true;
  telemetry_.frames_received->Increment();
  // FlushOutput may close (and free) the connection once the reply drains.
  const int fd = c->fd;
  FlushOutput(c);
  return conns_.count(fd) > 0;
}

bool ResolverDaemon::ParseFrames(Connection* c) {
  while (c->in.size() - c->in_off >= 4) {
    const uint32_t len = ReadLe32(c->in.data() + c->in_off);
    if (len > options_.max_frame_bytes) {
      // A garbage length prefix means the stream can never resync — refuse
      // and drop the connection once the error reply flushes.
      telemetry_.frames_rejected->Increment();
      Response err;
      err.kind = Response::Kind::kError;
      err.error = wire::WireError::kMalformed;
      err.text = "frame exceeds max_frame_bytes";
      QueueResponse(c, err);
      c->close_after_flush = true;
      FlushOutput(c);
      return conns_.count(c->fd) > 0;
    }
    if (c->in.size() - c->in_off < 4u + len) break;  // incomplete frame
    const uint8_t* payload = c->in.data() + c->in_off + 4;
    c->in_off += 4u + len;
    HandleFrame(c, payload, len);
    if (conns_.count(c->fd) == 0) return false;  // closed while handling
  }
  if (c->in_off == c->in.size()) {
    c->in.clear();
    c->in_off = 0;
  } else if (c->in_off > size_t{64} * 1024) {
    c->in.erase(c->in.begin(), c->in.begin() + c->in_off);
    c->in_off = 0;
  }
  return true;
}

void ResolverDaemon::HandleFrame(Connection* c, const uint8_t* data,
                                 size_t size) {
  const Clock::time_point t0 = Clock::now();
  telemetry_.frames_received->Increment();

  Request req;
  const wire::WireError decode_err = DecodeRequest(data, size, &req);
  if (decode_err != wire::WireError::kOk) {
    // Typed refusal — a frame from an old protocol revision (or garbage)
    // gets an ERROR reply naming the reason; the stream itself stays in
    // sync because framing is length-prefixed, so the connection survives.
    telemetry_.frames_rejected->Increment();
    Response err;
    err.kind = Response::Kind::kError;
    err.error = decode_err;
    err.text = wire::WireErrorName(decode_err);
    QueueResponse(c, err);
    return;
  }

  // Everything this request triggers on this thread records under the
  // client's trace context (a v2 peer or traceless client scopes nothing).
  obs::TraceContextScope trace_scope(req.trace);
  obs::TraceSpan span(RequestSpanName(req.kind));

  switch (req.kind) {
    case Request::Kind::kAppend: {
      telemetry_.append_requests->Increment();
      std::lock_guard<std::mutex> lock(queue_mu_);
      pending_appends_.push_back({c->id, std::move(req), t0});
      MaybeStartChaseLocked();
      return;  // acked after its fixpoint publishes
    }
    case Request::Kind::kResolve: {
      const auto snapshot = resolver_->Snapshot();
      Response resp;
      resp.kind = Response::Kind::kEntity;
      resp.snapshot_version = snapshot->version();
      resp.gids = snapshot->Entity(req.gid);
      QueueResponse(c, resp);
      break;
    }
    case Request::Kind::kSame: {
      const auto snapshot = resolver_->Snapshot();
      Response resp;
      resp.kind = Response::Kind::kBool;
      resp.snapshot_version = snapshot->version();
      resp.value = snapshot->SameEntity(req.a, req.b);
      QueueResponse(c, resp);
      break;
    }
    case Request::Kind::kStats: {
      Response resp;
      resp.kind = Response::Kind::kStats;
      resp.text = StatsJson();
      resp.snapshot_version = resolver_->Snapshot()->version();
      QueueResponse(c, resp);
      break;
    }
    case Request::Kind::kMetrics: {
      Response resp;
      resp.kind = Response::Kind::kMetrics;
      resp.text = MetricsText();
      resp.snapshot_version = resolver_->Snapshot()->version();
      QueueResponse(c, resp);
      break;
    }
    case Request::Kind::kShutdown: {
      Response resp;
      resp.kind = Response::Kind::kBool;
      resp.snapshot_version = resolver_->Snapshot()->version();
      resp.value = true;
      QueueResponse(c, resp);
      stop_requested_.store(true);
      break;
    }
  }

  const uint64_t query_ns = Nanos(Clock::now() - t0);
  telemetry_.query->Record(query_ns);
  telemetry_.MergeMax(&telemetry_.max_query_ns, query_ns);
  if (options_.slow_query_ms > 0 &&
      query_ns >= uint64_t{options_.slow_query_ms} * 1000000ull) {
    DCER_SLOG_LIMITED(Warning, "slow_query", 5.0)
        .KV("kind", RequestKindName(req.kind))
        .KV("trace_id", TraceIdHex(req.trace.trace_id))
        .KV("elapsed_ms", static_cast<double>(query_ns) / 1e6);
  }
}

void ResolverDaemon::QueueResponse(Connection* c, const Response& resp) {
  std::vector<uint8_t> payload;
  EncodeResponse(resp, &payload);
  AppendFramed(payload, &c->out);
  FlushOutput(c);
}

void ResolverDaemon::FlushOutput(Connection* c) {
  while (c->out_off < c->out.size()) {
    const ssize_t n = send(c->fd, c->out.data() + c->out_off,
                           c->out.size() - c->out_off, MSG_NOSIGNAL);
    if (n > 0) {
      c->out_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      UpdateWriteInterest(c);
      return;
    }
    CloseConnection(c);
    return;
  }
  c->out.clear();
  c->out_off = 0;
  if (c->close_after_flush) {
    CloseConnection(c);
    return;
  }
  UpdateWriteInterest(c);
}

void ResolverDaemon::UpdateWriteInterest(Connection* c) {
  const bool want = c->out_off < c->out.size();
  if (want == c->want_write) return;
  c->want_write = want;
  epoll_event ev{};
  ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
  ev.data.fd = c->fd;
  epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c->fd, &ev);
}

void ResolverDaemon::HandleWritable(Connection* c) { FlushOutput(c); }

void ResolverDaemon::CloseConnection(Connection* c) {
  conns_by_id_.erase(c->id);
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c->fd, nullptr);
  close(c->fd);
  conns_.erase(c->fd);  // destroys c
  telemetry_.connections_closed->Increment();
}

void ResolverDaemon::DrainCompleted() {
  const Clock::time_point now = Clock::now();
  std::vector<Outgoing> done;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    done.swap(completed_);
  }
  for (Outgoing& o : done) {
    if (o.published != Clock::time_point{}) {
      // Published snapshot → reply bytes handed to the socket layer.
      telemetry_.publish_lag->Record(Nanos(now - o.published));
    }
    auto it = conns_by_id_.find(o.conn_id);
    if (it == conns_by_id_.end()) continue;  // client went away; drop reply
    Connection* c = it->second;
    c->out.insert(c->out.end(), o.frame.begin(), o.frame.end());
    FlushOutput(c);
  }
}

void ResolverDaemon::MaybeStartChaseLocked() {
  if (chase_inflight_ || pending_appends_.empty()) return;
  chase_inflight_ = true;
  chase_group_.Run([this] { ChaseDrain(); });
}

void ResolverDaemon::ChaseDrain() {
  while (true) {
    std::vector<AppendWork> works;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (pending_appends_.empty()) {
        chase_inflight_ = false;
        return;
      }
      works.swap(pending_appends_);
    }
    const Clock::time_point drain_start = Clock::now();
    for (const AppendWork& w : works) {
      telemetry_.queue_wait->Record(Nanos(drain_start - w.arrival));
    }

    // A merged micro-batch runs as one fixpoint; its spans are attributed to
    // the first traced request in the batch (the common case — one request
    // per drain — attributes exactly).
    obs::TraceContext batch_ctx;
    for (const AppendWork& w : works) {
      if (w.request.trace.valid()) {
        batch_ctx = w.request.trace;
        break;
      }
    }
    obs::TraceContextScope trace_scope(batch_ctx);
    obs::TraceSpan drain_span("dcerd.drain");

    // Decode every queued request; all valid ones merge into one micro-batch
    // and share one update-driven fixpoint (everything that arrived while
    // the previous fixpoint ran is batched — natural backpressure).
    struct Decoded {
      size_t work = 0;
      size_t first_tuple = 0;
      size_t num_tuples = 0;
    };
    TupleBatch merged;
    std::vector<Decoded> decoded;
    std::vector<Outgoing> replies(works.size());
    for (size_t i = 0; i < works.size(); ++i) {
      replies[i].conn_id = works[i].conn_id;
      TupleBatch one;
      const wire::WireError err =
          DecodeAppendBlocks(works[i].request, resolver_->dataset(), &one);
      if (err != wire::WireError::kOk) {
        Response resp;
        resp.kind = Response::Kind::kError;
        resp.error = err;
        resp.text = wire::WireErrorName(err);
        std::vector<uint8_t> payload;
        EncodeResponse(resp, &payload);
        AppendFramed(payload, &replies[i].frame);
        continue;
      }
      decoded.push_back({i, merged.size(), one.size()});
      for (auto& entry : one.tuples) {
        merged.tuples.push_back(std::move(entry));
      }
    }

    const size_t merged_tuples = merged.size();
    AppendOutcome outcome;
    if (!merged.empty()) outcome = resolver_->Append(std::move(merged));
    const Clock::time_point published = Clock::now();
    const uint64_t exec_ns = Nanos(published - drain_start);
    telemetry_.exec->Record(exec_ns);

    for (const Decoded& d : decoded) {
      Response resp;
      if (!outcome.status.ok()) {
        // A refused batch appended nothing: none of its requests did.
        resp.kind = Response::Kind::kError;
        resp.error = wire::WireError::kSchemaMismatch;
        resp.text = outcome.status.ToString();
      } else {
        resp.kind = Response::Kind::kAppended;
        resp.snapshot_version = outcome.snapshot_version;
        resp.gids.assign(
            outcome.gids.begin() + static_cast<ptrdiff_t>(d.first_tuple),
            outcome.gids.begin() +
                static_cast<ptrdiff_t>(d.first_tuple + d.num_tuples));
      }
      std::vector<uint8_t> payload;
      EncodeResponse(resp, &payload);
      AppendFramed(payload, &replies[d.work].frame);
      replies[d.work].published = published;

      const uint64_t lag_ns = Nanos(published - works[d.work].arrival);
      telemetry_.visibility_lag->Record(lag_ns);
      telemetry_.MergeMax(&telemetry_.max_visibility_lag_ns, lag_ns);
      if (options_.slow_query_ms > 0 &&
          lag_ns >= uint64_t{options_.slow_query_ms} * 1000000ull) {
        const Request& r = works[d.work].request;
        DCER_SLOG_LIMITED(Warning, "slow_query", 5.0)
            .KV("kind", "append")
            .KV("trace_id", TraceIdHex(r.trace.trace_id))
            .KV("batch_tuples", static_cast<uint64_t>(d.num_tuples))
            .KV("merged_tuples", static_cast<uint64_t>(merged_tuples))
            .KV("rounds", outcome.report.rounds)
            .KV("seeded_joins", outcome.report.chase.seeded_joins)
            .KV("queue_wait_ms",
                Seconds(drain_start - works[d.work].arrival) * 1e3)
            .KV("exec_ms", static_cast<double>(exec_ns) / 1e6)
            .KV("elapsed_ms", static_cast<double>(lag_ns) / 1e6);
      }
    }
    if (!decoded.empty()) {
      telemetry_.append_batches->Increment();
      telemetry_.tuples_appended->Add(outcome.gids.size());
    }

    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      for (Outgoing& r : replies) {
        if (!r.frame.empty()) completed_.push_back(std::move(r));
      }
    }
    WakeLoop();
  }
}

}  // namespace service
}  // namespace dcer
