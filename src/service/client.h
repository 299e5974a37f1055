#ifndef DCER_SERVICE_CLIENT_H_
#define DCER_SERVICE_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "service/protocol.h"

namespace dcer {
namespace service {

/// Blocking dcerd client: one loopback TCP connection, one request/response
/// in flight at a time. Each Call() writes a length-prefixed request frame
/// and blocks for the reply frame. Used by the dcerd example binary, the
/// service bench, and the end-to-end tests; not thread-safe — give each
/// client thread its own connection (the daemon multiplexes fine).
class ResolverClient {
 public:
  ResolverClient() = default;
  ~ResolverClient();

  ResolverClient(const ResolverClient&) = delete;
  ResolverClient& operator=(const ResolverClient&) = delete;

  Status Connect(uint16_t port);
  void Close();
  bool connected() const { return fd_ >= 0; }

  /// Encode + send `req`, block for one reply frame, decode into `resp`.
  Status Call(const Request& req, Response* resp);

  /// Sends exactly `payload` as one frame (no validation) and blocks for the
  /// raw reply frame. Lets tests hand-craft wrong-version / garbage frames.
  Status CallRaw(const std::vector<uint8_t>& payload,
                 std::vector<uint8_t>* reply);

  /// Sends raw bytes with no framing at all — for half-written-frame tests.
  Status SendBytes(const std::vector<uint8_t>& bytes);

  // Convenience wrappers; each fails if the reply is an ERROR frame, with
  // the server's message in the status. When tracing is enabled each wrapper
  // records a client-side span and stamps the request with a trace context
  // (reusing the calling thread's trace_id when one is installed, minting a
  // fresh one otherwise) — the daemon scopes its work under the same ids, so
  // DCER_TRACE_FILE yields one stitched Chrome trace per request.
  //
  // Append sends `rows` as one tuple block per destination relation, in
  // ascending relation index with row order kept inside each block, so
  // resp->gids come back in that block order — not in the order of `rows`
  // unless `rows` is already grouped by relation.
  Status Append(const Dataset& schema_source,
                const std::vector<std::pair<uint32_t, Row>>& rows,
                Response* resp);
  Status Resolve(Gid gid, Response* resp);
  Status SameEntity(Gid a, Gid b, Response* resp);
  Status Stats(Response* resp);
  Status Shutdown(Response* resp);
  /// METRICS verb (v3+): the daemon's registry as Prometheus text in
  /// resp->text — the same body GET /metrics serves.
  Status Metrics(Response* resp);

 private:
  Status CallKind(Request&& req, Response::Kind expected, Response* resp);

  int fd_ = -1;
};

}  // namespace service
}  // namespace dcer

#endif  // DCER_SERVICE_CLIENT_H_
