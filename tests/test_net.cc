// Network front-end suite (`ctest -L net`): the DuetRpc v1 wire protocol,
// the epoll server, and snapshot replication (docs/networking.md).
//
// The properties pinned here:
//  * loopback wire serving is BITWISE identical to in-process
//    EstimateBatch — the socket, the frame codec and the ring buffers add
//    no numeric surface, and the async micro-batcher they feed is batch
//    invariant by the kernel contract (docs/architecture.md §2);
//  * the corruption battery: truncated, bit-flipped, oversized and
//    wrong-version frames are each cleanly rejected — the offending
//    connection is dropped, counted as a protocol error, and the server,
//    its other connections and the engine keep serving untouched;
//  * resilience semantics survive the wire: deadlines arrive flagged
//    deadline_expired, budget overflows arrive flagged shed + fallback,
//    and service recovers immediately after;
//  * replication ships the primary's current snapshot to a replica that
//    serves bitwise-equal estimates — both nodes run the same zoo engine —
//    and the shipped id is always the shipped artifact's fingerprint, even
//    under publish churn; a torn or corrupted transfer leaves the replica
//    serving its OLD snapshot (fault-injection tested).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "artifact/artifact.h"
#include "baselines/traditional/independence.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "core/duet_model.h"
#include "data/generator.h"
#include "data/table.h"
#include "gtest/gtest.h"
#include "net/client.h"
#include "net/ring_buffer.h"
#include "net/server.h"
#include "net/wire.h"
#include "query/query.h"
#include "query/workload.h"
#include "serve/fault_injector.h"
#include "serve/model_registry.h"
#include "serve/model_zoo.h"
#include "serve/serving_engine.h"
#include "serving_bed.h"

namespace duet {
namespace {

using net::FrameHeader;
using net::FrameType;
using net::NetServer;
using net::NetServerOptions;
using net::RingBuffer;
using net::RpcClient;
using net::WireStatus;
using query::Query;

/// The zoo key every served model is registered under in this suite.
constexpr const char* kKey = "census";

data::Table SmallTable() { return data::CensusLike(300, 13); }

core::DuetModelOptions SmallModelOptions(uint64_t seed) {
  core::DuetModelOptions opt;
  opt.hidden_sizes = {12, 12};
  opt.residual = true;
  opt.seed = seed;
  return opt;
}

std::vector<Query> MakeQueries(const data::Table& table, int n, uint64_t seed = 31) {
  query::WorkloadSpec spec;
  spec.seed = seed;
  query::WorkloadGenerator gen(table, spec);
  Rng rng(seed);
  std::vector<Query> queries;
  queries.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) queries.push_back(gen.GenerateQuery(rng));
  return queries;
}

std::string TempPath(const std::string& name) {
  return "/tmp/duet_net_test_" + std::to_string(::getpid()) + "_" + name + ".duet";
}

class NetTest : public ::testing::Test {
 protected:
  void SetUp() override { serve::FaultInjector::DisarmAll(); }
  void TearDown() override { serve::FaultInjector::DisarmAll(); }
};

/// Serving bed: one tiny model written as an artifact and served under
/// kKey by a zoo engine with the classical fallback attached, behind a
/// NetServer on an ephemeral loopback port.
struct ServeBed {
  explicit ServeBed(serve::ServingOptions serving = {}, NetServerOptions net = {})
      : table(SmallTable()),
        model(table, SmallModelOptions(7)),
        fallback(table),
        zoo_bed(model, serving, tensor::WeightBackend::kDenseF32, kKey),
        engine(zoo_bed.engine),
        server(engine, std::move(net)) {
    engine.AttachFallback(&fallback);
    const WireStatus st = server.Start();
    EXPECT_TRUE(st.ok) << st.error;
  }
  ~ServeBed() { server.Stop(); }

  RpcClient Connect() {
    RpcClient client;
    const WireStatus st = client.Connect("127.0.0.1", server.port());
    EXPECT_TRUE(st.ok) << st.error;
    return client;
  }

  data::Table table;
  core::DuetModel model;
  baselines::IndependenceEstimator fallback;
  testbed::ZooServeBed zoo_bed;
  serve::ServingEngine& engine;
  NetServer server;
};

// ---------------------------------------------------------------------------
// Ring buffer + frame codec unit coverage
// ---------------------------------------------------------------------------

TEST(NetRingBuffer, WrapAroundAndCopyOut) {
  RingBuffer ring;
  std::string pattern;
  for (int i = 0; i < 300; ++i) pattern.push_back(static_cast<char>(i * 7));
  // Force many wraps with interleaved append/consume.
  size_t produced = 0, consumed = 0;
  std::string drained;
  while (consumed < 10000) {
    ring.Append(pattern.data(), pattern.size());
    produced += pattern.size();
    while (ring.size() > 128) {
      char buf[97];
      const size_t n = std::min(sizeof buf, ring.size() - 128);
      ring.CopyOut(0, n, buf);
      drained.append(buf, n);
      ring.Consume(n);
      consumed += n;
    }
  }
  // Everything drained must be the repeated pattern, in order.
  for (size_t i = 0; i < drained.size(); ++i) {
    ASSERT_EQ(drained[i], pattern[i % pattern.size()]) << "at " << i;
  }
  EXPECT_EQ(produced - consumed, ring.size());
}

TEST(NetRingBuffer, SpansCoverEverything) {
  RingBuffer ring;
  ring.Append("0123456789", 10);
  ring.Consume(7);  // head advanced: next append wraps
  ring.EnsureSpace(1);
  const size_t cap = ring.capacity();
  std::string big(cap - ring.size(), 'x');
  ring.Append(big.data(), big.size());  // fills to capacity, wrapping
  net::RingSpan spans[2];
  const int n = ring.ReadSpans(spans);
  size_t total = 0;
  for (int s = 0; s < n; ++s) total += spans[s].len;
  EXPECT_EQ(total, ring.size());
  EXPECT_EQ(ring.free_space(), 0u);
  EXPECT_EQ(ring.WriteSpans(spans), 0);
}

TEST(NetWire, FrameAndPayloadRoundTrip) {
  net::EstimateRequest request;
  request.model_key = "census";
  request.deadline_us = 1234;
  const data::Table table = SmallTable();
  request.queries = MakeQueries(table, 5);

  std::string payload;
  net::EncodeEstimateRequest(request, &payload);
  std::string frame;
  net::AppendFrame(&frame, FrameType::kEstimateRequest, 42,
                   static_cast<uint32_t>(request.queries.size()), payload.data(),
                   payload.size());
  ASSERT_EQ(frame.size(), net::kFrameHeaderBytes + payload.size());

  FrameHeader header;
  WireStatus st = net::ParseFrameHeader(frame.data(), 1u << 20, &header);
  ASSERT_TRUE(st.ok) << st.error;
  EXPECT_EQ(header.request_id, 42u);
  EXPECT_EQ(header.count, request.queries.size());
  st = net::VerifyPayload(header, frame.data() + net::kFrameHeaderBytes, payload.size());
  ASSERT_TRUE(st.ok) << st.error;

  net::EstimateRequest decoded;
  st = net::DecodeEstimateRequest(frame.data() + net::kFrameHeaderBytes, payload.size(),
                                  header.count, &decoded);
  ASSERT_TRUE(st.ok) << st.error;
  EXPECT_EQ(decoded.model_key, request.model_key);
  EXPECT_EQ(decoded.deadline_us, request.deadline_us);
  ASSERT_EQ(decoded.queries.size(), request.queries.size());
  for (size_t i = 0; i < decoded.queries.size(); ++i) {
    ASSERT_EQ(decoded.queries[i].predicates.size(), request.queries[i].predicates.size());
    for (size_t p = 0; p < decoded.queries[i].predicates.size(); ++p) {
      EXPECT_EQ(decoded.queries[i].predicates[p].col, request.queries[i].predicates[p].col);
      EXPECT_EQ(decoded.queries[i].predicates[p].op, request.queries[i].predicates[p].op);
      EXPECT_EQ(decoded.queries[i].predicates[p].value, request.queries[i].predicates[p].value);
    }
  }
}

TEST(NetWire, HeaderRejectsEveryCorruption) {
  std::string frame;
  const char payload[] = "abcdef";
  net::AppendFrame(&frame, FrameType::kEstimateRequest, 1, 1, payload, sizeof payload);
  FrameHeader header;
  ASSERT_TRUE(net::ParseFrameHeader(frame.data(), 1u << 20, &header).ok);

  std::string bad = frame;          // bad magic
  bad[0] = static_cast<char>(bad[0] ^ 0x5a);
  EXPECT_FALSE(net::ParseFrameHeader(bad.data(), 1u << 20, &header).ok);

  bad = frame;                      // flipped bit deep in the header
  bad[18] = static_cast<char>(bad[18] ^ 0x01);
  EXPECT_FALSE(net::ParseFrameHeader(bad.data(), 1u << 20, &header).ok);

  // Oversized: a frame whose declared payload exceeds the cap is rejected
  // even with valid checksums.
  std::string big_payload(4096, 'x');
  bad.clear();
  net::AppendFrame(&bad, FrameType::kEstimateRequest, 1, 1, big_payload.data(),
                   big_payload.size());
  EXPECT_FALSE(net::ParseFrameHeader(bad.data(), 1024, &header).ok);

  // Payload corruption is caught by the payload checksum.
  bad = frame;
  bad[net::kFrameHeaderBytes + 2] = static_cast<char>(bad[net::kFrameHeaderBytes + 2] ^ 0x80);
  ASSERT_TRUE(net::ParseFrameHeader(bad.data(), 1u << 20, &header).ok);
  EXPECT_FALSE(
      net::VerifyPayload(header, bad.data() + net::kFrameHeaderBytes, sizeof payload).ok);
}

// ---------------------------------------------------------------------------
// Loopback serving
// ---------------------------------------------------------------------------

TEST_F(NetTest, LoopbackBitwiseEqualsInProcess) {
  ServeBed bed;
  const std::vector<Query> queries = MakeQueries(bed.table, 64);
  const std::vector<double> reference = bed.engine.EstimateBatch(kKey, queries);

  RpcClient client = bed.Connect();
  std::vector<serve::Estimate> wire;
  const WireStatus st = client.EstimateBatch(kKey, queries, 0, &wire);
  ASSERT_TRUE(st.ok) << st.error;
  ASSERT_EQ(wire.size(), reference.size());
  for (size_t i = 0; i < wire.size(); ++i) {
    EXPECT_EQ(wire[i].selectivity, reference[i]) << "query " << i;  // bitwise
    EXPECT_FALSE(wire[i].degraded()) << "query " << i;
  }

  const net::NetStats stats = bed.server.stats();
  EXPECT_EQ(stats.queries, queries.size());
  EXPECT_EQ(stats.batched_frames, 1u);  // one frame, 64 queries: wire batching
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(stats.estimate.requests, 1u);
  EXPECT_GT(stats.estimate.p50_us, 0.0);
}

TEST_F(NetTest, WireBatchingFeedsMicroBatchFusion) {
  serve::ServingOptions serving;
  serving.max_batch = 64;
  serving.max_wait_us = 5000;
  ServeBed bed(serving);
  const std::vector<Query> queries = MakeQueries(bed.table, 64);
  const std::vector<double> reference = bed.engine.EstimateBatch(kKey, queries);

  RpcClient client = bed.Connect();
  std::vector<serve::Estimate> wire;
  ASSERT_TRUE(client.EstimateBatch(kKey, queries, 0, &wire).ok);
  for (size_t i = 0; i < wire.size(); ++i) EXPECT_EQ(wire[i].selectivity, reference[i]);

  // The 64 queries of the single wire frame reached the engine as async
  // submissions and were coalesced by cross-request fusion — wire-level
  // batching composes with the micro-batcher instead of bypassing it.
  const serve::ServingStats es = bed.engine.stats();
  EXPECT_GE(es.fused_requests, 2u);
}

TEST_F(NetTest, ConcurrentClientsAllBitwiseCorrect) {
  ServeBed bed;
  const std::vector<Query> queries = MakeQueries(bed.table, 32);
  const std::vector<double> reference = bed.engine.EstimateBatch(kKey, queries);

  constexpr int kClients = 4;
  constexpr int kRounds = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      RpcClient client;
      if (!client.Connect("127.0.0.1", bed.server.port()).ok) {
        failures.fetch_add(1);
        return;
      }
      for (int r = 0; r < kRounds; ++r) {
        std::vector<serve::Estimate> wire;
        if (!client.EstimateBatch(kKey, queries, 0, &wire).ok ||
            wire.size() != reference.size()) {
          failures.fetch_add(1);
          return;
        }
        for (size_t i = 0; i < wire.size(); ++i) {
          if (wire[i].selectivity != reference[i]) {
            failures.fetch_add(1);
            return;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  const net::NetStats stats = bed.server.stats();
  EXPECT_EQ(stats.queries, static_cast<uint64_t>(kClients) * kRounds * queries.size());
  EXPECT_EQ(stats.protocol_errors, 0u);
}

// ---------------------------------------------------------------------------
// Corruption battery: every malformed frame drops ONLY its connection.
// ---------------------------------------------------------------------------

/// Builds a frame with full control over the header fields, recomputing
/// both checksums unless told to corrupt them — so each test isolates
/// exactly one validation rule.
std::string RawFrame(uint32_t magic, uint16_t version, uint16_t type, uint32_t payload_len,
                     const std::string& payload, bool valid_header_checksum = true) {
  std::string out;
  auto put = [&out](const void* p, size_t n) { out.append(static_cast<const char*>(p), n); };
  put(&magic, 4);
  put(&version, 2);
  put(&type, 2);
  const uint64_t request_id = 9;
  put(&request_id, 8);
  put(&payload_len, 4);
  const uint32_t count = 1;
  put(&count, 4);
  const uint64_t payload_checksum = Fnv1a64(payload.data(), payload.size());
  put(&payload_checksum, 8);
  uint64_t header_checksum = Fnv1a64(out.data(), net::kFrameHeaderBytes - 8);
  if (!valid_header_checksum) header_checksum ^= 0xdeadbeef;
  put(&header_checksum, 8);
  out += payload;
  return out;
}

TEST_F(NetTest, CorruptionBatteryDropsOnlyTheOffender) {
  ServeBed bed;
  const std::vector<Query> queries = MakeQueries(bed.table, 8);
  const std::vector<double> reference = bed.engine.EstimateBatch(kKey, queries);

  // A healthy long-lived connection that must survive every attack below.
  RpcClient survivor = bed.Connect();

  net::EstimateRequest request;
  request.queries = queries;
  std::string payload;
  net::EncodeEstimateRequest(request, &payload);
  const uint16_t req_type = static_cast<uint16_t>(FrameType::kEstimateRequest);

  struct Attack {
    const char* name;
    std::string bytes;
  };
  std::string flipped_payload = payload;
  flipped_payload[3] = static_cast<char>(flipped_payload[3] ^ 0x10);
  std::vector<Attack> attacks = {
      {"bad magic", RawFrame(0x41414141, net::kRpcVersion, req_type,
                             static_cast<uint32_t>(payload.size()), payload)},
      {"wrong version", RawFrame(net::kRpcMagic, 99, req_type,
                                 static_cast<uint32_t>(payload.size()), payload)},
      {"bad header checksum", RawFrame(net::kRpcMagic, net::kRpcVersion, req_type,
                                       static_cast<uint32_t>(payload.size()), payload, false)},
      {"oversized payload_len", RawFrame(net::kRpcMagic, net::kRpcVersion, req_type,
                                         64u << 20, "")},
      {"bit-flipped payload", RawFrame(net::kRpcMagic, net::kRpcVersion, req_type,
                                       static_cast<uint32_t>(payload.size()), flipped_payload)},
      {"unknown frame type", RawFrame(net::kRpcMagic, net::kRpcVersion, 200,
                                      static_cast<uint32_t>(payload.size()), payload)},
  };
  // The bit-flipped payload must keep the ORIGINAL payload checksum (the
  // flip happened "on the wire"), so rebuild that frame with the original
  // payload's checksum over the flipped bytes.
  // RawFrame computed the checksum over flipped bytes — overwrite it.
  {
    std::string& frame = attacks[4].bytes;
    const uint64_t original_checksum = Fnv1a64(payload.data(), payload.size());
    std::memcpy(frame.data() + 24, &original_checksum, 8);
    uint64_t header_checksum = Fnv1a64(frame.data(), net::kFrameHeaderBytes - 8);
    std::memcpy(frame.data() + 32, &header_checksum, 8);
  }

  uint64_t expected_errors = 0;
  for (const Attack& attack : attacks) {
    SCOPED_TRACE(attack.name);
    RpcClient attacker = bed.Connect();
    ASSERT_TRUE(attacker.SendRaw(attack.bytes.data(), attack.bytes.size()).ok);
    // The server must DROP the attacker...
    EXPECT_TRUE(attacker.WaitForClose()) << "server did not drop the connection";
    ++expected_errors;
    // ...while the survivor connection keeps serving bitwise-correct
    // estimates and the server accepts fresh clients.
    std::vector<serve::Estimate> wire;
    ASSERT_TRUE(survivor.EstimateBatch(kKey, queries, 0, &wire).ok);
    for (size_t i = 0; i < wire.size(); ++i) EXPECT_EQ(wire[i].selectivity, reference[i]);
  }

  // Truncated frame: a header promising more payload than ever arrives,
  // then EOF. Not a checksum failure — just a clean close, state intact.
  {
    std::string frame = RawFrame(net::kRpcMagic, net::kRpcVersion, req_type,
                                 static_cast<uint32_t>(payload.size()), payload);
    RpcClient attacker = bed.Connect();
    ASSERT_TRUE(attacker.SendRaw(frame.data(), frame.size() - 7).ok);
    attacker.Close();
    std::vector<serve::Estimate> wire;
    ASSERT_TRUE(survivor.EstimateBatch(kKey, queries, 0, &wire).ok);
    for (size_t i = 0; i < wire.size(); ++i) EXPECT_EQ(wire[i].selectivity, reference[i]);
  }

  const net::NetStats stats = bed.server.stats();
  EXPECT_EQ(stats.protocol_errors, expected_errors);
  EXPECT_EQ(stats.connections_dropped, expected_errors);
}

// ---------------------------------------------------------------------------
// Resilience semantics over the wire
// ---------------------------------------------------------------------------

TEST_F(NetTest, DeadlineExpiresOverTheWire) {
  serve::ServingOptions serving;
  serving.max_batch = 1024;     // never dispatch on count...
  serving.max_wait_us = 20000;  // ...and wait far longer than the deadline
  ServeBed bed(serving);
  const std::vector<Query> queries = MakeQueries(bed.table, 4);

  RpcClient client = bed.Connect();
  std::vector<serve::Estimate> wire;
  const WireStatus st = client.EstimateBatch(kKey, queries, /*deadline_us=*/1, &wire);
  ASSERT_TRUE(st.ok) << st.error;
  ASSERT_EQ(wire.size(), queries.size());
  for (const serve::Estimate& e : wire) {
    EXPECT_TRUE(e.deadline_expired);
    EXPECT_TRUE(e.fallback);
  }
}

TEST_F(NetTest, BudgetOverflowShedsWholeFrameAndRecovers) {
  NetServerOptions net_options;
  net_options.max_connection_inflight = 32;
  ServeBed bed({}, net_options);
  const std::vector<Query> queries = MakeQueries(bed.table, 64);
  const std::vector<double> reference = bed.engine.EstimateBatch(kKey, queries);

  RpcClient client = bed.Connect();
  // 64 queries > the 32-query budget: the whole frame is shed through the
  // engine's fallback path, flagged on the wire.
  std::vector<serve::Estimate> wire;
  ASSERT_TRUE(client.EstimateBatch(kKey, queries, 0, &wire).ok);
  ASSERT_EQ(wire.size(), queries.size());
  for (const serve::Estimate& e : wire) {
    EXPECT_TRUE(e.shed);
    EXPECT_TRUE(e.fallback);
  }
  EXPECT_EQ(bed.server.stats().sheds, queries.size());

  // Within budget, the same connection immediately serves normally again.
  const std::vector<Query> small(queries.begin(), queries.begin() + 16);
  ASSERT_TRUE(client.EstimateBatch(kKey, small, 0, &wire).ok);
  ASSERT_EQ(wire.size(), small.size());
  for (size_t i = 0; i < wire.size(); ++i) {
    EXPECT_FALSE(wire[i].shed);
    EXPECT_EQ(wire[i].selectivity, reference[i]);
  }
}

TEST_F(NetTest, EmptyKeyIsACleanErrorNotADrop) {
  ServeBed bed;
  const std::vector<Query> queries = MakeQueries(bed.table, 4);
  RpcClient client = bed.Connect();
  std::vector<serve::Estimate> wire;
  const WireStatus st = client.EstimateBatch("", queries, 0, &wire);
  EXPECT_FALSE(st.ok);  // clean kError response...
  ASSERT_TRUE(client.EstimateBatch(kKey, queries, 0, &wire).ok);  // ...connection intact
  EXPECT_EQ(bed.server.stats().protocol_errors, 0u);
  // An unknown key is not an error at all: the engine degrades it to the
  // fallback, flagged, exactly as in-process.
  ASSERT_TRUE(client.EstimateBatch("no-such-model", queries, 0, &wire).ok);
  for (const serve::Estimate& e : wire) EXPECT_TRUE(e.fallback);
}

// ---------------------------------------------------------------------------
// Snapshot replication
// ---------------------------------------------------------------------------

/// Primary/replica bed: a primary whose registry publishes into the zoo its
/// engine serves, a replica zoo + engine, and the artifact paths wired for
/// replication. Both nodes run the same engine over the same key.
struct ReplicationBed {
  ReplicationBed()
      : table(SmallTable()),
        queries(MakeQueries(table, 32)),
        primary(std::make_unique<core::DuetModel>(table, SmallModelOptions(11)), {}, {}, kKey),
        registry(primary.registry),
        primary_engine(primary.engine),
        primary_server(primary_engine),
        replica_path(TempPath("replica")),
        replica_engine(zoo) {
    primary_server.AttachSnapshotSource(&registry);
    const WireStatus st = primary_server.Start();
    EXPECT_TRUE(st.ok) << st.error;
  }
  ~ReplicationBed() {
    primary_server.Stop();
    ::unlink(replica_path.c_str());
    ::unlink((replica_path + ".fetch").c_str());
  }

  RpcClient Connect() {
    RpcClient client;
    const WireStatus st = client.Connect("127.0.0.1", primary_server.port());
    EXPECT_TRUE(st.ok) << st.error;
    return client;
  }

  data::Table table;
  std::vector<Query> queries;
  testbed::RegistryBed primary;
  serve::ModelRegistry& registry;
  serve::ServingEngine& primary_engine;
  NetServer primary_server;
  std::string replica_path;
  serve::ModelZoo zoo;
  serve::ServingEngine replica_engine;
};

TEST_F(NetTest, ReplicationServesBitwiseEqualEstimates) {
  ReplicationBed bed;
  RpcClient client = bed.Connect();
  const WireStatus st =
      net::ReplicateSnapshot(client, bed.zoo, kKey, bed.replica_path);
  ASSERT_TRUE(st.ok) << st.error;

  const std::vector<double> primary = bed.primary_engine.EstimateBatch(kKey, bed.queries);
  const std::vector<double> replica = bed.replica_engine.EstimateBatch(kKey, bed.queries);
  ASSERT_EQ(primary.size(), replica.size());
  for (size_t i = 0; i < primary.size(); ++i) {
    EXPECT_EQ(primary[i], replica[i]) << "query " << i;  // bitwise
  }
  const net::NetStats stats = bed.primary_server.stats();
  EXPECT_EQ(stats.snapshot_streams, 1u);
  EXPECT_GT(stats.snapshot_bytes_sent, 0u);
  EXPECT_EQ(stats.snapshot_stream_failures, 0u);
}

TEST_F(NetTest, RepublishThenReplicateTracksThePrimary) {
  ReplicationBed bed;
  RpcClient client = bed.Connect();
  ASSERT_TRUE(net::ReplicateSnapshot(client, bed.zoo, kKey, bed.replica_path).ok);
  const std::vector<double> v0 = bed.replica_engine.EstimateBatch(kKey, bed.queries);

  // Primary publishes a DIFFERENT model (fresh seed): its estimates move.
  bed.registry.Publish(std::make_unique<core::DuetModel>(bed.table, SmallModelOptions(23)));
  const std::vector<double> primary_v1 = bed.primary_engine.EstimateBatch(kKey, bed.queries);
  ASSERT_NE(primary_v1, v0);

  // Re-replicate: the replica hot-swaps onto the new snapshot.
  ASSERT_TRUE(net::ReplicateSnapshot(client, bed.zoo, kKey, bed.replica_path).ok);
  const std::vector<double> replica_v1 = bed.replica_engine.EstimateBatch(kKey, bed.queries);
  for (size_t i = 0; i < replica_v1.size(); ++i) {
    EXPECT_EQ(replica_v1[i], primary_v1[i]) << "query " << i;
  }
  EXPECT_EQ(bed.primary_server.stats().snapshot_streams, 2u);
}

TEST_F(NetTest, TornTransferLeavesReplicaOnOldSnapshot) {
  ReplicationBed bed;
  RpcClient client = bed.Connect();
  ASSERT_TRUE(net::ReplicateSnapshot(client, bed.zoo, kKey, bed.replica_path).ok);
  const std::vector<double> v0 = bed.replica_engine.EstimateBatch(kKey, bed.queries);

  bed.registry.Publish(std::make_unique<core::DuetModel>(bed.table, SmallModelOptions(23)));

  // Tear the next stream mid-transfer (skip 1: let the first chunk out,
  // then fail): the primary aborts the connection before the end frame.
  serve::FaultInjector::Arm(serve::FaultPoint::kNetSnapshotStream, 1, /*skip=*/1);
  const WireStatus torn =
      net::ReplicateSnapshot(client, bed.zoo, kKey, bed.replica_path);
  EXPECT_FALSE(torn.ok);
  EXPECT_EQ(bed.primary_server.stats().snapshot_stream_failures, 1u);

  // The replica still serves its OLD snapshot, bitwise.
  const std::vector<double> after = bed.replica_engine.EstimateBatch(kKey, bed.queries);
  EXPECT_EQ(after, v0);

  // Recovery: a fresh connection replicates the new snapshot cleanly.
  serve::FaultInjector::DisarmAll();
  RpcClient retry = bed.Connect();
  ASSERT_TRUE(net::ReplicateSnapshot(retry, bed.zoo, kKey, bed.replica_path).ok);
  const std::vector<double> replica_v1 = bed.replica_engine.EstimateBatch(kKey, bed.queries);
  const std::vector<double> primary_v1 = bed.primary_engine.EstimateBatch(kKey, bed.queries);
  EXPECT_EQ(replica_v1, primary_v1);
}

TEST_F(NetTest, CorruptedFetchIsRejectedBeforeInstall) {
  ReplicationBed bed;
  RpcClient client = bed.Connect();
  ASSERT_TRUE(net::ReplicateSnapshot(client, bed.zoo, kKey, bed.replica_path).ok);
  const std::vector<double> v0 = bed.replica_engine.EstimateBatch(kKey, bed.queries);

  // Fetch a fresh copy, then corrupt it on disk before installing — the
  // artifact's own checksums must reject it and the zoo stays untouched.
  const std::string fetched = bed.replica_path + ".fetch";
  ASSERT_TRUE(client.FetchSnapshot(fetched).ok);
  {
    std::fstream f(fetched, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(200);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(200);
    byte = static_cast<char>(byte ^ 0x40);
    f.write(&byte, 1);
  }
  const WireStatus st = net::InstallSnapshot(bed.zoo, kKey, fetched, bed.replica_path);
  EXPECT_FALSE(st.ok);
  EXPECT_EQ(bed.replica_engine.EstimateBatch(kKey, bed.queries), v0);
}

// Replication under publish churn: every stream's shipped id is the
// fingerprint in the shipped artifact's own header. The server takes the
// bytes and the id from one registry read, so a publish landing mid-request
// cannot pair one version's bytes with the next version's id.
TEST_F(NetTest, ReplicatedIdMatchesShippedArtifactUnderPublishChurn) {
  ReplicationBed bed;
  std::vector<std::unique_ptr<core::DuetModel>> versions;
  for (int i = 0; i < 12; ++i) {
    versions.push_back(
        std::make_unique<core::DuetModel>(bed.table, SmallModelOptions(100 + i)));
  }
  std::atomic<bool> publishing{true};
  std::thread publisher([&] {
    for (auto& m : versions) bed.registry.Publish(std::move(m));
    publishing.store(false);
  });

  RpcClient client = bed.Connect();
  const std::string fetched = bed.replica_path + ".churn";
  int fetches = 0;
  int failures = 0;
  while (publishing.load() || fetches < 4) {
    uint64_t id = 0;
    const WireStatus st = client.FetchSnapshot(fetched, &id);
    std::shared_ptr<const artifact::ArtifactModel> model;
    if (!st.ok || !artifact::LoadArtifact(fetched, {}, &model).ok ||
        model->fingerprint() != id) {
      ADD_FAILURE() << "fetch " << fetches << ": " << (st.ok ? "id mismatch" : st.error);
      ++failures;
      break;
    }
    ++fetches;
  }
  publisher.join();
  ::unlink(fetched.c_str());
  EXPECT_EQ(failures, 0);
  EXPECT_GE(fetches, 4);
  EXPECT_EQ(bed.primary.registry.stats().published, 13u);
}

// FetchSnapshot rejects a stream whose shipped id is not the artifact's
// fingerprint: a fake primary ships intact bytes under a wrong id, and the
// client refuses it before anything is written.
TEST_F(NetTest, FetchRejectsMislabelledSnapshotStream) {
  const data::Table table = SmallTable();
  core::DuetModel model(table, SmallModelOptions(5));
  testbed::TempDir dir("mislabelled");
  const std::string source = testbed::WriteArtifactOrFail(
      model, dir.File("source.duet"), tensor::WeightBackend::kDenseF32);
  std::string bytes;
  {
    std::ifstream in(source, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  std::shared_ptr<const artifact::ArtifactModel> loaded;
  ASSERT_TRUE(artifact::LoadArtifact(source, {}, &loaded).ok);
  const uint64_t wrong_id = loaded->fingerprint() ^ 1;

  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t len = sizeof addr;
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  std::thread fake_primary([&] {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    char request[net::kFrameHeaderBytes];
    size_t got = 0;
    while (got < sizeof request) {
      const ssize_t n = ::recv(fd, request + got, sizeof request - got, 0);
      if (n <= 0) break;
      got += static_cast<size_t>(n);
    }
    auto u64 = [](uint64_t v) { return std::string(reinterpret_cast<const char*>(&v), 8); };
    std::string out;
    const std::string begin = u64(bytes.size()) + u64(wrong_id);
    net::AppendFrame(&out, FrameType::kSnapshotBegin, 1, 0, begin.data(), begin.size());
    net::AppendFrame(&out, FrameType::kSnapshotChunk, 1, 0, bytes.data(), bytes.size());
    const std::string end = u64(Fnv1a64(bytes.data(), bytes.size()));
    net::AppendFrame(&out, FrameType::kSnapshotEnd, 1, 1, end.data(), end.size());
    size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t n = ::send(fd, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<size_t>(n);
    }
    ::close(fd);
  });

  RpcClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", ntohs(addr.sin_port)).ok);
  const std::string dest = dir.File("fetched.duet");
  const WireStatus st = client.FetchSnapshot(dest);
  fake_primary.join();
  ::close(listener);
  EXPECT_FALSE(st.ok);
  EXPECT_NE(st.error.find("fingerprint"), std::string::npos) << st.error;
  EXPECT_FALSE(std::filesystem::exists(dest)) << "a mislabelled stream was written";
}

TEST_F(NetTest, SnapshotRequestWithoutSourceIsACleanError) {
  ServeBed bed;  // no AttachSnapshotSource
  RpcClient client = bed.Connect();
  const WireStatus st = client.FetchSnapshot(TempPath("nosource"));
  EXPECT_FALSE(st.ok);
  // Connection stays usable.
  std::vector<serve::Estimate> wire;
  const std::vector<Query> queries = MakeQueries(bed.table, 4);
  EXPECT_TRUE(client.EstimateBatch(kKey, queries, 0, &wire).ok);
}

}  // namespace
}  // namespace duet
