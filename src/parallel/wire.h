#ifndef DCER_PARALLEL_WIRE_H_
#define DCER_PARALLEL_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "chase/fact.h"
#include "relational/relation.h"

namespace dcer {
namespace wire {

/// --- Shared frame header ----------------------------------------------------
///
/// Every payload that crosses a process or socket boundary — fact batches,
/// tuple blocks, and the resolver service's request/response frames — starts
/// with the same 3-byte header:
///
///   [magic 0xDC][protocol version][frame tag]
///
/// The version byte is the compatibility contract: a decoder refuses a frame
/// whose version differs from its own with a typed kVersionMismatch instead
/// of misparsing the body (v1 frames had per-format two-byte headers with no
/// shared version, so a layout change could only be detected as garbage).
/// The tag identifies the frame type within the version; one tag space
/// covers the whole protocol so a misrouted frame fails fast as kBadTag.

inline constexpr uint8_t kMagic = 0xDC;
/// Bumped whenever any frame layout changes incompatibly. v3 added the
/// optional trace-context extension to service request frames (a flags byte
/// after the body start; see service/protocol.h) and the METRICS verb.
inline constexpr uint8_t kWireVersion = 0x03;
/// Oldest version this build still decodes. v2 frames are identical to v3
/// except that service requests carry no flags byte, so v2 peers keep
/// getting correct answers one release after the bump.
inline constexpr uint8_t kMinWireVersion = 0x02;

// Frame tags. 0x0_ = data planes, 0x1_+ = service requests, 0x2_ = service
// responses.
inline constexpr uint8_t kFactBatchTag = 0x01;
inline constexpr uint8_t kTupleBlockTag = 0x02;
inline constexpr uint8_t kAppendRequestTag = 0x11;
inline constexpr uint8_t kResolveRequestTag = 0x12;
inline constexpr uint8_t kSameRequestTag = 0x13;
inline constexpr uint8_t kStatsRequestTag = 0x14;
inline constexpr uint8_t kShutdownRequestTag = 0x15;
inline constexpr uint8_t kMetricsRequestTag = 0x16;  // v3+
inline constexpr uint8_t kAppendedResponseTag = 0x21;
inline constexpr uint8_t kEntityResponseTag = 0x22;
inline constexpr uint8_t kBoolResponseTag = 0x23;
inline constexpr uint8_t kStatsResponseTag = 0x24;
inline constexpr uint8_t kMetricsResponseTag = 0x25;  // v3+
inline constexpr uint8_t kErrorResponseTag = 0x2F;

/// Typed decode outcome. Everything except kOk leaves the output in an
/// unspecified partial state; callers treat non-kOk as a fatal frame error.
enum class WireError : uint8_t {
  kOk = 0,
  kTruncated,        // buffer ended before the structure did
  kBadMagic,         // first byte is not 0xDC — not one of our frames
  kVersionMismatch,  // peer speaks a different protocol revision
  kBadTag,           // well-versioned frame of an unexpected type
  kMalformed,        // structurally invalid body (counts, indices, varints)
  kTrailingBytes,    // valid structure followed by garbage
  kSchemaMismatch,   // tuple block does not fit the destination relation
};

/// Stable lowercase name for logs and error replies.
const char* WireErrorName(WireError e);

/// --- Primitive encoders/decoders -------------------------------------------
///
/// Exposed so the service protocol (src/service/protocol.cc) composes frames
/// from the same primitives as the data planes below.

void PutVarint(uint64_t v, std::vector<uint8_t>* out);
void PutFixed64(uint64_t v, std::vector<uint8_t>* out);
uint64_t ZigZag(int64_t v);
int64_t UnZigZag(uint64_t v);

/// Bounded reader; every Get* returns false on underrun instead of reading
/// past the buffer, so a truncated frame decodes to an error, never to UB.
struct Reader {
  const uint8_t* p;
  const uint8_t* end;

  bool GetByte(uint8_t* v) {
    if (p == end) return false;
    *v = *p++;
    return true;
  }

  bool GetVarint(uint64_t* v) {
    uint64_t result = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      uint8_t byte;
      if (!GetByte(&byte)) return false;
      result |= static_cast<uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) {
        *v = result;
        return true;
      }
    }
    return false;  // varint longer than 10 bytes
  }

  bool GetFixed64(uint64_t* v) {
    if (end - p < 8) return false;
    uint64_t result = 0;
    for (int i = 0; i < 8; ++i) {
      result |= static_cast<uint64_t>(p[i]) << (8 * i);
    }
    p += 8;
    *v = result;
    return true;
  }

  size_t remaining() const { return static_cast<size_t>(end - p); }
};

/// Appends the shared [magic][version][tag] header.
void PutHeader(uint8_t tag, std::vector<uint8_t>* out);

/// Consumes and validates the shared header, storing the frame tag in
/// *tag_out and (optionally) the peer's version in *version_out. Versions in
/// [kMinWireVersion, kWireVersion] are accepted — the frame layouts they
/// share are identical, and version-conditional extensions (the service
/// request trace context) key off *version_out. Anything outside the window
/// is refused kVersionMismatch before ever looking at the tag, so foreign
/// peers get a clean typed refusal.
WireError ReadHeader(Reader* r, uint8_t* tag_out,
                     uint8_t* version_out = nullptr);

/// --- Fact batches -----------------------------------------------------------
///
/// Binary wire codec for the BSP message plane. Only deduced facts — never
/// raw tuples — cross worker boundaries (Sec. V-B), so one compact batch
/// format covers all of DMatch's communication. Every byte count the system
/// reports (`DMatchReport::bytes`, `SuperstepStats::bytes`, the exact wire
/// pins in tests/counters_test.cc) is the size of a batch produced by
/// EncodeFactBatch: the codec is the single unit of comm-volume accounting.
///
/// Layout (all integers little-endian):
///
///   [shared header, tag kFactBatchTag]
///   [varint num_id_facts][varint num_ml_facts]
///   id section   — facts canonicalized to a <= b, sorted by (a, b),
///                  strictly deduplicated:
///                    varint(a - prev_a)                  // 0 within a run
///                    varint(b - prev_b)  if same-a run
///                    varint(b - a)       otherwise       // a <= b
///   ml section   — sides canonicalized to (a, a_sig) <= (b, b_sig),
///                  sorted by (ml_id, a, b, a_sig, b_sig), deduplicated:
///                    varint(ml_id - prev_ml_id)          // sorted: >= 0
///                    zigzag-varint(a - prev_a)           // resets per ml_id
///                    varint(b - a)                       // a <= b
///                    fixed64 a_sig, fixed64 b_sig        // high-entropy
///
/// Gid deltas are varint-encoded because routed batches are dominated by
/// id facts over nearby gids (class merges, partition-local chains); ML
/// side signatures are uniform 64-bit hashes, so they stay fixed-width
/// (a varint would average 9.1 bytes for 8 bytes of entropy).
///
/// Canonical form: side order within a fact carries no meaning (Fact::Key
/// is symmetric and every consumer — MatchContext::Apply, the dependency
/// store — keys on it), so the encoder normalizes sides and sorts; a batch
/// in canonical form round-trips bit-identically through encode → decode,
/// and Encode(Decode(bytes)) == bytes for any encoder output.

/// In-place canonicalization: normalizes side order of every fact, sorts by
/// the wire order above, and removes duplicates. Encoding canonicalizes
/// internally; this is exposed so tests and senders can compare batches.
void CanonicalizeBatch(std::vector<Fact>* facts);

/// Serializes `facts` (canonicalizing a copy first — send-side dedup) and
/// appends to *out (cleared first). Returns the number of facts encoded
/// after deduplication.
size_t EncodeFactBatch(const std::vector<Fact>& facts,
                       std::vector<uint8_t>* out);

/// Parses a batch produced by EncodeFactBatch into *out (cleared first; the
/// result is in canonical form). Returns a typed error on malformed input
/// (truncated buffer, bad magic/version/tag, trailing bytes).
WireError DecodeFactBatch(const uint8_t* data, size_t size,
                          std::vector<Fact>* out);

inline WireError DecodeFactBatch(const std::vector<uint8_t>& bytes,
                                 std::vector<Fact>* out) {
  return DecodeFactBatch(bytes.data(), bytes.size(), out);
}

/// Exact field-wise equality of two facts in canonical form (operator== is
/// intentionally absent on Fact: the engine compares by Key, the codec by
/// representation).
bool SameFact(const Fact& x, const Fact& y);

/// --- Tuple blocks -----------------------------------------------------------
///
/// Columnar codec for shipping relation fragments (data loading, the
/// service's APPEND requests, and repartitioning; the match plane itself
/// still only exchanges facts). A block carries the selected rows of one
/// relation, column by column:
///
///   [shared header, tag kTupleBlockTag]
///   [varint num_rows][varint num_cols]
///   gid section    — varint first gid, then zigzag-varint deltas
///   per column     — [type byte][null bitmap, ceil(num_rows/8) bytes,
///                     bit set = NULL], then the non-NULL cells only:
///       int        — zigzag-varint delta vs the previous non-NULL cell
///       double     — fixed64 bit pattern (-0.0 already canonicalized
///                     by Column::Append)
///       string     — a per-block dictionary of the distinct strings in
///                     first-use order (varint length + raw bytes each),
///                     then one varint dictionary index per cell
///
/// The dictionary is built by interning id — the columnar pool makes
/// "distinct within this block" an O(1) id lookup per cell — so repeated
/// attribute values (categories, city names, ...) cross the wire once.

/// Serializes `rows` of `rel` into *out (cleared first). Returns the encoded
/// byte count.
size_t EncodeTupleBlock(const Relation& rel, const std::vector<uint32_t>& rows,
                        std::vector<uint8_t>* out);

/// Appends the rows of a block into *dst, whose schema must have the same
/// column types as the encoded relation. Strings are re-interned into dst's
/// pool; original gids are preserved. Returns a typed error on malformed
/// input or a column-type mismatch; dst is then left partially appended, so
/// callers decode into a scratch relation and discard it on error (see
/// service::DecodeAppendBlocks).
WireError DecodeTupleBlock(const uint8_t* data, size_t size, Relation* dst);

inline WireError DecodeTupleBlock(const std::vector<uint8_t>& bytes,
                                  Relation* dst) {
  return DecodeTupleBlock(bytes.data(), bytes.size(), dst);
}

}  // namespace wire
}  // namespace dcer

#endif  // DCER_PARALLEL_WIRE_H_
