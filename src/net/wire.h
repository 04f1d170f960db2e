#ifndef CCDB_NET_WIRE_H_
#define CCDB_NET_WIRE_H_

/// \file wire.h
/// The CCDB binary wire protocol: framing and payload codecs.
///
/// Every message on the wire is one *frame*:
///
///     [u32 payload_len][u8 type][payload bytes][u32 crc]
///
/// all little-endian; the CRC-32 (same polynomial as the WAL's) covers the
/// type byte followed by the payload, so a flipped type or a corrupted
/// body is detected before dispatch. `payload_len` is bounded by
/// `kMaxFramePayload` — a garbage length prefix surfaces as a typed
/// protocol error, never as a multi-gigabyte allocation.
///
/// Payloads are built with the storage layer's `Writer`/`Reader`
/// (little-endian, length-prefixed — the same primitives that serialize
/// tuples on disk), so each tuple crosses the wire as exactly its heap
/// record. Statuses cross via `EncodeStatus`/`DecodeStatus`
/// (util/status.h): code, `retry_after_ms()` hint, and message round-trip,
/// so governance shedding on the server surfaces to remote clients with
/// the same backoff hint in-process callers see.
///
/// The request/response vocabulary (`MsgType`) is deliberately flat — one
/// request frame in, one or more response frames out, ending with exactly
/// one terminal frame per request (`kShipWal` streams `kWalBatch` frames
/// before its terminal `kShipEnd`/`kSnapshot`/`kError`).

#include <cstdint>
#include <string>
#include <vector>

#include "data/relation.h"
#include "service/query_service.h"
#include "storage/serde.h"
#include "util/socket.h"
#include "util/status.h"

namespace ccdb::net {

/// Bumped on any incompatible change; HELLO fails on mismatch.
/// v2: leader-term fencing — HELLO carries the client's highest seen
/// term, HELLO_OK / SHIP_END / SNAPSHOT carry the server's term, and the
/// PROMOTE/PROMOTED pair exists.
/// v3: FETCH_TRACE nodes carry the box-prune counter after conjunctions.
/// v4: TRACE/TRACE_RESULT (types 8 and 69) are gone; FETCH_TRACE carries
/// QueryOptions instead of a bare trace id, and its reply drops the
/// always-true used_plan byte.
/// v5: FETCH_TRACE nodes carry the boxes-built counter after box prunes.
/// v6: FETCH_TRACE nodes carry the box-solves counter after FM
/// eliminations.
/// v7: relations cross in the lean tuple codec (storage/serde.h): varint
/// counts, names and integers, canonical constraints as integers, and
/// the schema inline.
/// v8: FETCH_TRACE nodes carry the FM-pairings counter after pool hits.
inline constexpr uint32_t kProtocolVersion = 8;

/// Upper bound on a frame's payload. Large enough for a bootstrap
/// snapshot of any disk the tests or benches build (16 Ki pages), small
/// enough that a hostile length prefix cannot balloon memory.
inline constexpr uint32_t kMaxFramePayload = 64u << 20;

/// Bytes of frame overhead around the payload (length, type, CRC).
inline constexpr size_t kFrameOverhead = 4 + 1 + 4;

/// Frame types. Requests are < 64, responses >= 64.
enum class MsgType : uint8_t {
  // --- Requests ---
  kHello = 1,        ///< u32 version, string client name,
                     ///< u64 highest term the client has seen (fencing)
  kQuery = 2,        ///< string script, QueryOptions
  kSubmit = 3,       ///< string script, QueryOptions
  kWait = 4,         ///< u64 query id
  kCancel = 5,       ///< u64 query id
  kCheckpoint = 6,   ///< (empty)
  kMetrics = 7,      ///< (empty)
  kListRelations = 9,   ///< (empty)
  kGetRelation = 10,    ///< string name
  kLoadRelation = 11,   ///< string name, relation
  kShipWal = 12,        ///< u64 from_lsn (0 = request a full snapshot)
  kFetchTrace = 13,     ///< string script, QueryOptions — run traced,
                        ///< return the structured span tree
  kMetricsSnapshot = 14,  ///< (empty) — merged service+net registry
                          ///< snapshot (the binary scrape surface)
  kPromote = 15,     ///< (empty) — promote this replica to leader

  // --- Responses ---
  kOk = 64,          ///< (empty) — generic success
  kError = 65,       ///< EncodeStatus bytes
  kResult = 66,      ///< QueryResponse
  kSubmitted = 67,   ///< u64 query id
  kMetricsText = 68, ///< string rendering
  kNameList = 70,    ///< u32 n, n strings
  kRelationData = 71,  ///< relation
  kHelloOk = 72,     ///< u32 version, u8 read_only, u64 session id,
                     ///< string server name, u64 leader term
  kSnapshot = 73,    ///< u64 next_lsn, u64 catalog_root, u32 n_pages,
                     ///< n_pages x kPageSize raw images, u64 leader term
  kWalBatch = 74,    ///< raw committed WAL batch record bytes
  kShipEnd = 75,     ///< u64 leader next_lsn, u64 leader term
  kTraceTree = 76,   ///< string plan, u64 trace_id, TraceNode tree,
                     ///< QueryResponse
  kMetricsSnapshotData = 77,  ///< encoded MetricsRegistry::Snapshot
  kPromoted = 78,    ///< u64 new leader term
};

/// True for a type byte this protocol version knows.
bool IsKnownMsgType(uint8_t type);

/// Human-readable type name ("QUERY", "SHIP_WAL", ...; "?" when unknown).
const char* MsgTypeName(MsgType type);

/// One decoded frame.
struct Frame {
  MsgType type = MsgType::kError;
  std::vector<uint8_t> payload;
};

/// Writes one frame. `bytes_out`, when given, is incremented by the bytes
/// put on the wire. kInvalidArgument when the payload exceeds
/// `kMaxFramePayload`; IoError when the peer is gone.
Status WriteFrame(Socket* sock, MsgType type,
                  const std::vector<uint8_t>& payload,
                  uint64_t* bytes_out = nullptr);

/// Reads one frame. `bytes_in`, when given, is incremented by the bytes
/// consumed. Errors:
///  - kUnavailable "peer closed": clean EOF between frames;
///  - kIoError: EOF or socket error mid-frame (a torn frame);
///  - kInvalidArgument: oversized length prefix, unknown type byte, or
///    CRC mismatch — the caller cannot trust the stream past this point.
Status ReadFrame(Socket* sock, Frame* out, uint64_t* bytes_in = nullptr);

// --- Payload codecs ---
//
// Encoders append to a Writer; decoders consume from a Reader and fail
// with kInvalidArgument on malformed bytes. Every Get* mirrors a Put*.

void PutQueryOptions(Writer* w, const service::QueryOptions& opts);
Status GetQueryOptions(Reader* r, service::QueryOptions* out);

/// A relation: its schema, a varint tuple count, then per tuple a u32
/// length and the tuple's record, written in place and decoded from a
/// view bounded by that length.
void PutRelation(Writer* w, const Relation& relation);
Status GetRelation(Reader* r, Relation* out);

void PutQueryResponse(Writer* w, const service::QueryResponse& response);
Status GetQueryResponse(Reader* r, service::QueryResponse* out);

/// Span-tree codec for FETCH_TRACE: every TraceNode field (label,
/// timings, tuple counts, the layer counters in `obs::kLayerCounterFields`
/// order) plus the children, recursively. The decoder bounds nesting at
/// `kMaxTraceDepth` and fans out at most `kMaxFramePayload` worth of nodes
/// — a hostile payload fails with kInvalidArgument instead of exhausting
/// the stack.
inline constexpr uint32_t kMaxTraceDepth = 100;
void PutTraceNode(Writer* w, const obs::TraceNode& node);
Status GetTraceNode(Reader* r, obs::TraceNode* out, uint32_t depth = 0);

/// Registry-snapshot codec for the binary metrics scrape: counter/gauge
/// values (with their kind), then histograms with full bucket arrays.
void PutRegistrySnapshot(Writer* w,
                         const obs::MetricsRegistry::Snapshot& snapshot);
Status GetRegistrySnapshot(Reader* r, obs::MetricsRegistry::Snapshot* out);

/// The kError payload: `EncodeStatus` bytes. DecodeErrorPayload fails
/// with kInvalidArgument when the payload itself is malformed; otherwise
/// `*out` is the transported (always non-OK on the wire) status.
std::vector<uint8_t> EncodeErrorPayload(const Status& status);
Status DecodeErrorPayload(const std::vector<uint8_t>& payload, Status* out);

}  // namespace ccdb::net

#endif  // CCDB_NET_WIRE_H_
