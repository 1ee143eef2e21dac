// Blocking DuetRpc v1 client + the replica-side snapshot installation
// helpers (docs/networking.md).
//
// RpcClient is the reference protocol implementation: one TCP connection,
// synchronous request/response, every frame validated with the same
// checksum battery the server applies. It exists for three callers — the
// loopback tests (tests/test_net.cc), the wire benchmark
// (bench/bench_net.cc) and the replication example
// (examples/net_serving.cpp) — and doubles as the replica's transport:
// FetchSnapshot pulls a primary's current artifact over the
// Begin/Chunk/End stream, and ReplicateSnapshot validates + hot-swaps it
// into a local ModelZoo, after which the replica serves BITWISE the same
// estimates as the primary (the artifact round-trip guarantee, carried
// over a socket).
//
// Failure containment on install mirrors the zoo's own rule: a torn or
// corrupted transfer is rejected before the rename, so the replica's
// registered artifact — and everything it is currently serving — is
// untouched.
#ifndef DUET_NET_CLIENT_H_
#define DUET_NET_CLIENT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "net/wire.h"

namespace duet::serve {
class ModelZoo;
}  // namespace duet::serve

namespace duet::net {

/// Blocking single-connection client. Not thread-safe; use one per thread
/// (bench_net opens one per simulated connection).
class RpcClient {
 public:
  RpcClient() = default;
  ~RpcClient();

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;
  RpcClient(RpcClient&& other) noexcept { *this = std::move(other); }
  RpcClient& operator=(RpcClient&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      other.fd_ = -1;
      next_request_id_ = other.next_request_id_;
    }
    return *this;
  }

  WireStatus Connect(const std::string& host, uint16_t port);
  void Close();
  bool connected() const { return fd_ >= 0; }

  /// Sends one batched estimate request (all queries in ONE frame — this is
  /// the wire-level batching the server feeds to the micro-batcher) and
  /// blocks for the response. `model_key` names the zoo key that serves
  /// the frame (an empty key is answered with a clean error);
  /// `deadline_us` 0 = no deadline. A server-side kError frame comes back
  /// as a clean failed status with the connection still usable.
  WireStatus EstimateBatch(const std::string& model_key,
                           const std::vector<query::Query>& queries, uint64_t deadline_us,
                           std::vector<serve::Estimate>* out);

  /// Requests the primary's current snapshot artifact and writes the
  /// received bytes to `dest_path` (truncating). The stream is accepted
  /// only if every frame checksum AND the whole-stream checksum AND the
  /// byte count all match, and the artifact header's fingerprint equals the
  /// shipped snapshot id — a torn, corrupted or mislabelled transfer fails
  /// cleanly and leaves `dest_path` unwritten. Outputs the shipped id.
  WireStatus FetchSnapshot(const std::string& dest_path, uint64_t* snapshot_id = nullptr,
                           uint64_t* total_bytes = nullptr);

  /// Test hook: writes raw bytes to the socket (corruption battery).
  WireStatus SendRaw(const void* data, size_t len);

  /// Test hook: blocks until the server closes the connection (drop
  /// detection) or data arrives (protocol violation by the test).
  bool WaitForClose();

 private:
  WireStatus WriteAll(const void* data, size_t len);
  WireStatus ReadExact(void* dst, size_t len);
  /// Reads one validated frame (header + payload).
  WireStatus ReadFrame(FrameHeader* header, std::string* payload);

  int fd_ = -1;
  uint64_t next_request_id_ = 1;
  std::string send_buf_;
  std::string payload_buf_;
};

/// Validates the artifact at `fetched_path` (full checksum load) and
/// atomically installs it: rename onto `dest_path`, then (re-)Register
/// `key` in the zoo so the NEXT acquire serves the new snapshot while
/// outstanding pins finish on the old one — the replica-side hot swap.
/// On validation failure the fetched file is deleted and the zoo is
/// untouched. `fetched_path` and `dest_path` must be on one filesystem.
WireStatus InstallSnapshot(serve::ModelZoo& zoo, const std::string& key,
                           const std::string& fetched_path, const std::string& dest_path);

/// FetchSnapshot + InstallSnapshot: pulls the primary's current artifact
/// through `client` into `dest_path` (via `dest_path`.fetch) and hot-swaps
/// zoo key `key` onto it. Any failure — transport, torn stream, artifact
/// validation — leaves the zoo serving its previous snapshot.
WireStatus ReplicateSnapshot(RpcClient& client, serve::ModelZoo& zoo, const std::string& key,
                             const std::string& dest_path);

}  // namespace duet::net

#endif  // DUET_NET_CLIENT_H_
