#ifndef DCER_SERVICE_PROTOCOL_H_
#define DCER_SERVICE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "parallel/wire.h"
#include "relational/dataset.h"
#include "service/resolver.h"

namespace dcer {
namespace service {

/// The dcerd request/response protocol: one frame per message, carried over
/// a u32-LE length-prefixed stream framing, with every frame starting in
/// the shared wire header ([magic][version][tag], see parallel/wire.h).
/// APPEND payloads embed the columnar tuple-block codec — the ingest plane
/// reuses the data plane's format byte for byte.
///
/// Frame bodies (after the 3-byte header; all varints as in wire.h).
///
/// Version-3 request frames open with one flags byte before the body below;
/// bit 0 set means a trace-context extension follows immediately: fixed64
/// trace_id, fixed64 span_id (the client's ids — the daemon scopes all work
/// the request triggers under them, which is what stitches a Chrome trace
/// across the socket). All other flag bits must be zero. Version-2 request
/// frames carry no flags byte and decode exactly as before, so one-release-
/// old clients keep working — they simply produce traceless requests.
/// Response frames are identical in v2 and v3.
///
///   APPEND    varint num_blocks, then per block:
///               varint relation_index, varint length, <tuple-block frame>
///   RESOLVE   varint gid
///   SAME      varint a, varint b
///   STATS     (empty)
///   SHUTDOWN  (empty)
///   METRICS   (empty; v3+)
///
///   APPENDED  varint snapshot_version, varint n, first gid varint then
///             zigzag deltas (block order: the i-th gid belongs to the i-th
///             tuple of the request's blocks read in sequence; blocks from
///             MakeAppendRequest are grouped by ascending relation index,
///             so this is not the caller's row order)
///   ENTITY    varint snapshot_version, varint n, first gid varint then
///             zigzag deltas (sorted members)
///   BOOL      varint snapshot_version, one byte 0/1
///   STATS_R   varint snapshot_version, varint length, raw JSON bytes
///   METRICS_R varint snapshot_version, varint length, raw Prometheus text
///   ERROR     one byte WireError code, varint length, raw message bytes

struct Request {
  enum class Kind : uint8_t {
    kAppend,
    kResolve,
    kSame,
    kStats,
    kShutdown,
    kMetrics
  };
  Kind kind = Kind::kStats;
  /// kAppend: encoded tuple-block frames, one per destination relation.
  std::vector<std::pair<uint32_t, std::vector<uint8_t>>> blocks;
  Gid gid = 0;  // kResolve
  Gid a = 0;    // kSame
  Gid b = 0;
  /// Trace context the client stamped on the frame (invalid = none sent, or
  /// a v2 peer). Encoded only when valid.
  obs::TraceContext trace;
};

struct Response {
  enum class Kind : uint8_t {
    kAppended,
    kEntity,
    kBool,
    kStats,
    kMetrics,
    kError
  };
  Kind kind = Kind::kError;
  std::vector<Gid> gids;  // kAppended: assigned gids; kEntity: class members
  uint64_t snapshot_version = 0;
  bool value = false;  // kBool
  std::string text;  // kStats: JSON; kMetrics: exposition text; kError: message
  wire::WireError error = wire::WireError::kOk;  // kError
};

void EncodeRequest(const Request& req, std::vector<uint8_t>* out);
wire::WireError DecodeRequest(const uint8_t* data, size_t size, Request* out);
inline wire::WireError DecodeRequest(const std::vector<uint8_t>& bytes,
                                     Request* out) {
  return DecodeRequest(bytes.data(), bytes.size(), out);
}

void EncodeResponse(const Response& resp, std::vector<uint8_t>* out);
wire::WireError DecodeResponse(const uint8_t* data, size_t size,
                               Response* out);
inline wire::WireError DecodeResponse(const std::vector<uint8_t>& bytes,
                                      Response* out) {
  return DecodeResponse(bytes.data(), bytes.size(), out);
}

/// Builds an APPEND request from materialized rows: groups rows by
/// destination relation, stages each group in a scratch relation sharing
/// `schema_source`'s column layout, and encodes one tuple block per group.
/// The staged gids are placeholders — the server assigns authoritative gids
/// on ingest and returns them in the APPENDED reply.
Request MakeAppendRequest(
    const Dataset& schema_source,
    const std::vector<std::pair<uint32_t, Row>>& rows);

/// Server side of APPEND: decodes every block into owned rows (strings
/// copied out of the scratch pools) ready for Resolver::Append. Returns
/// kMalformed for an out-of-range relation index, or the block decode error.
wire::WireError DecodeAppendBlocks(const Request& req,
                                   const Dataset& schema_source,
                                   TupleBatch* out);

}  // namespace service
}  // namespace dcer

#endif  // DCER_SERVICE_PROTOCOL_H_
