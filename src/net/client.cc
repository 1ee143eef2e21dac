#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "artifact/artifact.h"
#include "common/serialize.h"
#include "serve/model_zoo.h"

namespace duet::net {

namespace {

std::string ErrnoString(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

RpcClient::~RpcClient() { Close(); }

WireStatus RpcClient::Connect(const std::string& host, uint16_t port) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return WireStatus::Fail(ErrnoString("socket"));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    Close();
    return WireStatus::Fail("invalid host address: " + host);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    WireStatus st = WireStatus::Fail(ErrnoString("connect"));
    Close();
    return st;
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return WireStatus::Ok();
}

void RpcClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

WireStatus RpcClient::WriteAll(const void* data, size_t len) {
  const char* p = static_cast<const char*>(data);
  size_t off = 0;
  while (off < len) {
    const ssize_t n = ::send(fd_, p + off, len - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return WireStatus::Fail(ErrnoString("send"));
  }
  return WireStatus::Ok();
}

WireStatus RpcClient::ReadExact(void* dst, size_t len) {
  char* p = static_cast<char*>(dst);
  size_t off = 0;
  while (off < len) {
    const ssize_t n = ::recv(fd_, p + off, len - off, 0);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n == 0) return WireStatus::Fail("connection closed by server");
    if (errno == EINTR) continue;
    return WireStatus::Fail(ErrnoString("recv"));
  }
  return WireStatus::Ok();
}

WireStatus RpcClient::ReadFrame(FrameHeader* header, std::string* payload) {
  char header_bytes[kFrameHeaderBytes];
  WireStatus st = ReadExact(header_bytes, kFrameHeaderBytes);
  if (!st.ok) return st;
  // The client accepts frames up to the snapshot-stream chunk bound plus
  // slack; response frames are far smaller than this.
  st = ParseFrameHeader(header_bytes, 8u << 20, header);
  if (!st.ok) return st;
  payload->resize(header->payload_len);
  if (header->payload_len > 0) {
    st = ReadExact(payload->data(), header->payload_len);
    if (!st.ok) return st;
  }
  return VerifyPayload(*header, payload->data(), payload->size());
}

WireStatus RpcClient::EstimateBatch(const std::string& model_key,
                                    const std::vector<query::Query>& queries,
                                    uint64_t deadline_us, std::vector<serve::Estimate>* out) {
  if (fd_ < 0) return WireStatus::Fail("not connected");
  EstimateRequest request;
  request.model_key = model_key;
  request.deadline_us = deadline_us;
  request.queries = queries;

  payload_buf_.clear();
  EncodeEstimateRequest(request, &payload_buf_);
  send_buf_.clear();
  const uint64_t request_id = next_request_id_++;
  AppendFrame(&send_buf_, FrameType::kEstimateRequest, request_id,
              static_cast<uint32_t>(queries.size()), payload_buf_.data(), payload_buf_.size());
  WireStatus st = WriteAll(send_buf_.data(), send_buf_.size());
  if (!st.ok) return st;

  FrameHeader header;
  st = ReadFrame(&header, &payload_buf_);
  if (!st.ok) return st;
  if (static_cast<FrameType>(header.type) == FrameType::kError) {
    return WireStatus::Fail("server error: " +
                            std::string(payload_buf_.data(), payload_buf_.size()));
  }
  if (static_cast<FrameType>(header.type) != FrameType::kEstimateResponse) {
    return WireStatus::Fail("unexpected frame type " + std::to_string(header.type));
  }
  if (header.request_id != request_id) {
    return WireStatus::Fail("response correlation id mismatch");
  }
  EstimateResponse response;
  st = DecodeEstimateResponse(payload_buf_.data(), payload_buf_.size(), header.count, &response);
  if (!st.ok) return st;
  if (response.estimates.size() != queries.size()) {
    return WireStatus::Fail("response row count mismatch");
  }
  *out = std::move(response.estimates);
  return WireStatus::Ok();
}

WireStatus RpcClient::FetchSnapshot(const std::string& dest_path, uint64_t* snapshot_id,
                                    uint64_t* total_bytes) {
  if (fd_ < 0) return WireStatus::Fail("not connected");
  send_buf_.clear();
  const uint64_t request_id = next_request_id_++;
  AppendFrame(&send_buf_, FrameType::kSnapshotRequest, request_id, 0, nullptr, 0);
  WireStatus st = WriteAll(send_buf_.data(), send_buf_.size());
  if (!st.ok) return st;

  FrameHeader header;
  st = ReadFrame(&header, &payload_buf_);
  if (!st.ok) return st;
  if (static_cast<FrameType>(header.type) == FrameType::kError) {
    return WireStatus::Fail("server error: " +
                            std::string(payload_buf_.data(), payload_buf_.size()));
  }
  if (static_cast<FrameType>(header.type) != FrameType::kSnapshotBegin) {
    return WireStatus::Fail("expected snapshot begin, got frame type " +
                            std::to_string(header.type));
  }
  uint64_t expected_bytes = 0, shipped_id = 0;
  {
    ByteCursor cursor(payload_buf_.data(), payload_buf_.size());
    if (!cursor.ReadU64(&expected_bytes) || !cursor.ReadU64(&shipped_id)) {
      return WireStatus::Fail("malformed snapshot begin frame");
    }
  }

  std::string data;
  data.reserve(expected_bytes);
  uint32_t next_chunk = 0;
  while (true) {
    st = ReadFrame(&header, &payload_buf_);
    if (!st.ok) return st;  // a torn stream lands here (server closed)
    if (static_cast<FrameType>(header.type) == FrameType::kSnapshotChunk) {
      if (header.count != next_chunk) return WireStatus::Fail("snapshot chunk out of order");
      ++next_chunk;
      data.append(payload_buf_);
      if (data.size() > expected_bytes) return WireStatus::Fail("snapshot stream overrun");
      continue;
    }
    if (static_cast<FrameType>(header.type) == FrameType::kSnapshotEnd) break;
    return WireStatus::Fail("unexpected frame type " + std::to_string(header.type) +
                            " inside snapshot stream");
  }
  if (data.size() != expected_bytes) {
    return WireStatus::Fail("snapshot stream truncated: " + std::to_string(data.size()) +
                            " of " + std::to_string(expected_bytes) + " bytes");
  }
  uint64_t stream_checksum = 0;
  {
    ByteCursor cursor(payload_buf_.data(), payload_buf_.size());
    if (!cursor.ReadU64(&stream_checksum)) {
      return WireStatus::Fail("malformed snapshot end frame");
    }
  }
  if (Fnv1a64(data.data(), data.size()) != stream_checksum) {
    return WireStatus::Fail("snapshot stream checksum mismatch");
  }
  // The id must name the bytes it shipped with: a stream whose artifact
  // header carries a different fingerprint is mislabelled, not installable.
  artifact::ArtifactIndex index;
  const artifact::ArtifactStatus indexed = artifact::IndexArtifact(
      data.data(), data.size(), artifact::kDuetArtifactKind, /*verify_payloads=*/false, &index);
  if (!indexed.ok) {
    return WireStatus::Fail("shipped snapshot is not an artifact: " + indexed.error);
  }
  if (index.fingerprint != shipped_id) {
    return WireStatus::Fail("shipped snapshot id does not match its artifact fingerprint");
  }

  std::ofstream out(dest_path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  out.close();
  if (!out) {
    std::remove(dest_path.c_str());
    return WireStatus::Fail("failed writing snapshot to " + dest_path);
  }
  if (snapshot_id != nullptr) *snapshot_id = shipped_id;
  if (total_bytes != nullptr) *total_bytes = expected_bytes;
  return WireStatus::Ok();
}

WireStatus RpcClient::SendRaw(const void* data, size_t len) {
  if (fd_ < 0) return WireStatus::Fail("not connected");
  return WriteAll(data, len);
}

bool RpcClient::WaitForClose() {
  if (fd_ < 0) return true;
  while (true) {
    pollfd pfd{fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 5000);
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) return false;  // timeout/error: server did NOT drop us
    char buf[256];
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n == 0 || (n < 0 && errno != EINTR)) {
      Close();
      return true;
    }
    // Data before close would be a protocol surprise for the caller's
    // scenario; keep draining until EOF either way.
  }
}

WireStatus InstallSnapshot(serve::ModelZoo& zoo, const std::string& key,
                           const std::string& fetched_path, const std::string& dest_path) {
  // Full-checksum validation BEFORE the swap: a corrupt file never
  // replaces the artifact the zoo is serving from.
  artifact::ArtifactLoadOptions load_options;
  load_options.verify_checksums = true;
  std::shared_ptr<const artifact::ArtifactModel> model;
  artifact::ArtifactStatus st = artifact::LoadArtifact(fetched_path, load_options, &model);
  if (!st.ok) {
    std::remove(fetched_path.c_str());
    return WireStatus::Fail("fetched snapshot rejected: " + st.error);
  }
  model.reset();  // drop the validation mapping before renaming under it
  if (std::rename(fetched_path.c_str(), dest_path.c_str()) != 0) {
    WireStatus fail = WireStatus::Fail(ErrnoString("rename"));
    std::remove(fetched_path.c_str());
    return fail;
  }
  // Hot swap: re-registering drops the resident copy, so the next acquire
  // maps the new bytes while outstanding pins finish on the old mapping.
  zoo.Register(key, dest_path);
  return WireStatus::Ok();
}

WireStatus ReplicateSnapshot(RpcClient& client, serve::ModelZoo& zoo, const std::string& key,
                             const std::string& dest_path) {
  const std::string fetched = dest_path + ".fetch";
  WireStatus st = client.FetchSnapshot(fetched);
  if (!st.ok) {
    std::remove(fetched.c_str());
    return st;
  }
  return InstallSnapshot(zoo, key, fetched, dest_path);
}

}  // namespace duet::net
