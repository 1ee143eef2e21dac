// DuetRpc v1: the length-prefixed binary protocol of the network serving
// front-end (docs/networking.md has the frame diagram).
//
// Every frame is a fixed 40-byte header followed by `payload_len` payload
// bytes. The header carries a magic, the protocol version, a frame type, a
// client-chosen correlation id, a type-specific element count, an FNV-1a
// checksum over the payload and an FNV-1a checksum over the preceding
// header bytes — so a bit flip anywhere in a frame is caught before any
// field is trusted, exactly the artifact-container integrity rule
// (artifact/format.h) applied to the wire. Validation failures are clean
// WireStatus errors; the server answers every one by dropping the
// connection (server state, other connections and the serving engine are
// untouched — tests/test_net.cc pins this battery).
//
// Request/response payloads are flat little-endian structs encoded with
// the checkpoint serialization idiom (common/serialize.h ByteCursor on the
// read side): an estimate request is a model key + deadline + the batched
// query predicates, decoded straight into reusable vectors the batch API
// consumes; an estimate response is the per-query serve::Estimate rows
// (selectivity + degradation flags). Snapshot replication reuses the same
// framing: Begin (total size), Chunk (raw artifact bytes), End (whole-
// stream checksum) — the payload bytes ARE the mmap-able artifact file,
// whose own section checksums the replica re-validates before swapping it
// in (artifact/artifact.h).
#ifndef DUET_NET_WIRE_H_
#define DUET_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "query/query.h"
#include "serve/serving_engine.h"

namespace duet::net {

/// "DRpc" little-endian — distinct from the artifact ("Dart") and
/// checkpoint magics so a file handed to the wrong parser fails on the
/// first four bytes.
inline constexpr uint32_t kRpcMagic = 0x63705244;
inline constexpr uint16_t kRpcVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 40;

enum class FrameType : uint16_t {
  kEstimateRequest = 1,   ///< client -> server: batched estimate queries
  kEstimateResponse = 2,  ///< server -> client: batched Estimate rows
  kSnapshotRequest = 3,   ///< replica -> primary: ship the current artifact
  kSnapshotBegin = 4,     ///< primary -> replica: total bytes follow
  kSnapshotChunk = 5,     ///< primary -> replica: raw artifact bytes
  kSnapshotEnd = 6,       ///< primary -> replica: whole-stream checksum
  kError = 7,             ///< server -> client: request-level clean error
};

/// Decoded frame header. `count` is type-specific: queries per estimate
/// request/response, chunk index for kSnapshotChunk, else 0.
struct FrameHeader {
  uint32_t magic = 0;
  uint16_t version = 0;
  uint16_t type = 0;
  uint64_t request_id = 0;
  uint32_t payload_len = 0;
  uint32_t count = 0;
  uint64_t payload_checksum = 0;
  uint64_t header_checksum = 0;
};

/// Clean-error result of wire operations (the ArtifactStatus shape).
struct WireStatus {
  bool ok = true;
  std::string error;

  static WireStatus Ok() { return {}; }
  static WireStatus Fail(std::string message) { return {false, std::move(message)}; }
};

/// serve::Estimate degradation flags on the wire.
inline constexpr uint8_t kFlagFallback = 1;
inline constexpr uint8_t kFlagDeadlineExpired = 2;
inline constexpr uint8_t kFlagShed = 4;

/// One batched estimate request. Decode reuses the vectors' capacity, so a
/// connection that keeps one of these decodes steady-state traffic without
/// allocating.
struct EstimateRequest {
  std::string model_key;  ///< zoo key serving the frame (empty = rejected)
  uint64_t deadline_us = 0;
  std::vector<query::Query> queries;
};

/// One batched estimate response. snapshot_id is reserved (0) for now.
struct EstimateResponse {
  uint64_t snapshot_id = 0;
  std::vector<serve::Estimate> estimates;
};

/// Appends one complete frame (header + payload) to `out`.
void AppendFrame(std::string* out, FrameType type, uint64_t request_id, uint32_t count,
                 const void* payload, size_t payload_len);

/// Parses and validates exactly kFrameHeaderBytes of header: magic,
/// version, header checksum, and payload_len <= max_frame_bytes. On error
/// *out is unspecified and the connection must be dropped.
WireStatus ParseFrameHeader(const char* data, uint64_t max_frame_bytes, FrameHeader* out);

/// Verifies `header.payload_checksum` against the payload bytes.
WireStatus VerifyPayload(const FrameHeader& header, const char* payload, size_t len);

/// Estimate request/response payload codecs. Encoders append to *payload
/// (callers reuse the buffer); decoders validate every length against the
/// payload bounds and `count`, returning a clean error on any mismatch.
void EncodeEstimateRequest(const EstimateRequest& request, std::string* payload);
WireStatus DecodeEstimateRequest(const char* payload, size_t len, uint32_t count,
                                 EstimateRequest* out);
void EncodeEstimateResponse(const EstimateResponse& response, std::string* payload);
WireStatus DecodeEstimateResponse(const char* payload, size_t len, uint32_t count,
                                  EstimateResponse* out);

}  // namespace duet::net

#endif  // DUET_NET_WIRE_H_
