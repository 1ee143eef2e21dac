// Concurrent serving engine: multi-threaded batch sharding, async
// micro-batching and keyed dispatch over a serve::ModelZoo.
//
// The paper's serving claim is twofold: estimation is cheap enough for
// online use (Fig. 6/7), and *updates* are cheap too — drift is handled by
// fine-tuning, not retraining (Sec. IV-A/IV-D). ServingEngine covers the
// first half; serve::ModelRegistry publishes fine-tuned models into the
// same zoo the engine reads from (docs/serving.md §4), so an update is a
// zoo re-register the engine picks up on its next dispatch.
//
//  * EstimateBatch(key, queries) shards a batch across a private worker
//    pool. Shards split on query boundaries only, and the kernel invariant
//    (per-row results are bitwise independent of batch size, see
//    docs/architecture.md) makes the sharded result bitwise equal to the
//    single-thread batch path — parallelism is free of numeric drift.
//  * Submit(key, query) -> Future enqueues one query into a micro-batching
//    scheduler: pending queries are collected until `max_batch` of them are
//    waiting or the oldest has waited `max_wait_us`, then grouped by key and
//    dispatched as one sharded batch per key.
//  * Every dispatch resolves its key once and holds the resulting ZooPin
//    for the batch's duration: in-flight batches finish on the artifact
//    they started on, new dispatches pick up the latest registered one,
//    and a re-register (a registry publish, a replica install) swaps models
//    with no quiesce and no lock on the estimate path. Each batch is served
//    end-to-end by exactly one artifact — never a mid-batch mix.
//
// Thread-safety contract: EstimateBatch and Submit may be called
// concurrently from any number of client threads. Completion is tracked per
// call, never with a global pool barrier, so concurrent callers cannot
// observe each other. Served models are immutable mapped artifacts, so no
// caller-side quiesce rule exists.
//
// Resilience (docs/resilience.md): requests carry optional deadlines, the
// async queue is optionally bounded with shed-on-full, a circuit breaker
// trips to fallback-only serving after consecutive neural failures, and an
// attached classical fallback estimator answers every degraded query with a
// bounded-error estimate flagged in the result. The engine never blocks a
// caller on overload and never lets a neural failure escape as a crash.
#ifndef DUET_SERVE_SERVING_ENGINE_H_
#define DUET_SERVE_SERVING_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/latency_histogram.h"
#include "common/thread_pool.h"
#include "query/estimator.h"
#include "query/query.h"
#include "serve/model_zoo.h"

namespace duet::serve {

/// Serving engine knobs.
struct ServingOptions {
  /// Worker threads for sharded estimation (0 = hardware concurrency).
  unsigned num_workers = 0;
  /// Sync sharding floor: a batch is split into at most
  /// ceil(batch / min_shard) shards so tiny batches are not scattered
  /// across workers where per-shard overhead would dominate.
  int64_t min_shard = 8;
  /// Micro-batching: dispatch as soon as this many queries are pending...
  int64_t max_batch = 64;
  /// ...or when the oldest pending query has waited this long.
  int64_t max_wait_us = 200;
  /// Admission control: async queries pending beyond this depth are shed —
  /// their Future completes immediately with a flagged fallback estimate,
  /// never blocking the caller. 0 = unbounded (no shedding).
  int64_t max_queue = 0;
  /// Deadline applied to Submit calls that pass none (0 = no default).
  /// Deadlines are relative to submission; the scheduler drops expired
  /// entries before dispatch and serves them from the fallback instead.
  int64_t default_deadline_us = 0;
  /// Circuit breaker: after this many consecutive failed neural dispatches
  /// the engine serves fallback-only, then probes its way back with single
  /// dispatches after breaker_cooldown_us (docs/resilience.md §3).
  int64_t breaker_threshold = 5;
  int64_t breaker_cooldown_us = 50 * 1000;
  /// Cross-request GEMV→GEMM fusion: coalesce concurrent async submissions
  /// for the same model key into ONE batched dispatch — a GEMM over the
  /// stacked feature rows — instead of N independent batch-1 GEMVs.
  /// Per-request results are
  /// bitwise identical either way (kernel batch invariance,
  /// docs/architecture.md §2); fusion buys the weight-reuse of the batched
  /// kernels, which is the dominant cost at batch 1. Off = the unfused A/B
  /// arm for benchmarks: every admitted async query dispatches alone.
  bool fuse_requests = true;
};

/// One query's answer plus how it was produced. EstimateBatchEx and
/// Future::Result() return these; the plain EstimateBatch / Future::Wait
/// surfaces keep returning bare selectivities.
struct Estimate {
  double selectivity = 0.0;
  /// Served by the attached classical fallback (or 0.0 with none attached)
  /// rather than the neural model — because the query was shed, expired, hit
  /// a neural failure, or the circuit breaker was open.
  bool fallback = false;
  /// The request missed its deadline before (async) or during (sync)
  /// estimation.
  bool deadline_expired = false;
  /// Rejected at admission: the bounded async queue was full.
  bool shed = false;

  bool degraded() const { return fallback || deadline_expired || shed; }
};

/// Cumulative counters (monotone since construction), plus point-in-time
/// gauges of the breaker and the async queue. Per-model gauges (resident
/// bytes, loads, republishes) live in ModelZoo::ModelStats.
struct ServingStats {
  uint64_t queries = 0;             ///< queries completed (sync + async)
  uint64_t sync_batches = 0;        ///< EstimateBatch client calls
  uint64_t micro_batches = 0;       ///< async scheduler dispatches
  uint64_t shards = 0;              ///< shard tasks run on the pool
  int64_t largest_micro_batch = 0;  ///< max async dispatch size observed
  /// Async queries served through a fused dispatch group (size >= 2): the
  /// scheduler coalesced them with concurrent same-key requests into one
  /// batched GEMM execution instead of independent GEMVs. 0 with
  /// ServingOptions::fuse_requests off.
  uint64_t fused_requests = 0;
  /// Median fused-group size, over groups of size >= 2 (exact histogram,
  /// not log-bucketed; 0.0 until the first fused group dispatches).
  double fusion_batch_p50 = 0.0;
  /// Queries whose deadline expired before/during estimation (each also
  /// counts in fallback_served when answered by the fallback).
  uint64_t deadline_missed = 0;
  /// Queries rejected at admission because the bounded queue was full.
  uint64_t shed = 0;
  /// Queries answered by the fallback path (shed + expired + neural
  /// failures + breaker-open dispatches).
  uint64_t fallback_served = 0;
  /// Shard tasks whose neural estimate threw (each failed shard's queries
  /// were answered by the fallback).
  uint64_t neural_failures = 0;
  /// Times the circuit breaker tripped open.
  uint64_t breaker_trips = 0;
  /// Breaker state when stats() was taken: 0 closed, 1 open, 2 half-open.
  uint64_t breaker_state = 0;
  /// Async queue depth when stats() was taken / deepest ever observed.
  int64_t queue_depth = 0;
  int64_t queue_high_water = 0;
  /// Submission-to-completion latency percentiles over admitted async
  /// queries (common/latency_histogram.h: values are bucket upper bounds,
  /// ~2x resolution; 0 until the first async query completes). The network
  /// front-end's NetStats uses the same histogram and quantile set, so
  /// in-process and wire latency are comparable.
  double latency_p50_us = 0.0;
  double latency_p99_us = 0.0;
  double latency_p999_us = 0.0;
};

/// Shards keyed batches across a private worker pool and micro-batches
/// async single-query traffic, serving every key from its pinned zoo
/// artifact. One engine owns its workers and scheduler thread; destruction
/// drains all pending async queries before joining.
class ServingEngine {
  struct Pending;  // forward: shared slot between Future and scheduler

 public:
  /// Completion handle for one submitted query. Cheap to copy; all copies
  /// refer to the same result slot. A default-constructed Future is empty
  /// (valid() == false) and must not be waited on.
  class Future {
   public:
    Future() = default;

    bool valid() const { return state_ != nullptr; }

    /// True once the result is available; never blocks.
    bool Ready() const;

    /// Blocks until the result is available and returns the selectivity
    /// (exactly what the key's artifact returns for this query, unless the
    /// result was degraded — check Result().degraded()).
    /// Safe to call from multiple threads and more than once.
    double Wait() const;

    /// Blocks like Wait() but returns the full result, including the
    /// degradation flags (fallback / deadline_expired / shed).
    Estimate Result() const;

   private:
    friend class ServingEngine;
    explicit Future(std::shared_ptr<Pending> state) : state_(std::move(state)) {}
    std::shared_ptr<Pending> state_;
  };

  /// Requests are routed by model key through `zoo`: each dispatch resolves
  /// (and pins) the key's artifact model, so a model serving an in-flight
  /// batch is never evicted under it, and a key whose artifact fails to load
  /// degrades that batch to the fallback (flagged) instead of crashing. The
  /// zoo must outlive the engine.
  explicit ServingEngine(ModelZoo& zoo, ServingOptions options = {});

  /// Drains the async queue (every issued Future still completes), then
  /// stops the scheduler and joins the workers.
  ~ServingEngine();

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// Synchronous sharded estimation on `model_key`'s artifact (resolved and
  /// pinned once per call): splits `queries` into per-worker shards on query
  /// boundaries and runs them concurrently. Returns exactly what the
  /// artifact's EstimateSelectivityBatch(queries) returns (bitwise), in
  /// order; *snapshot_id (when non-null) receives the artifact fingerprint
  /// the whole batch ran on. Safe to call concurrently with other
  /// EstimateBatch / Submit calls and with re-registers of the key.
  std::vector<double> EstimateBatch(const std::string& model_key,
                                    const std::vector<query::Query>& queries,
                                    uint64_t* snapshot_id = nullptr);

  /// EstimateBatch with per-request resilience metadata. `deadline_us` is a
  /// latency budget relative to the call (0 = none): the sync path runs on
  /// the caller's thread so the batch is always attempted, but results that
  /// arrive after the budget are flagged deadline_expired (and counted) so
  /// the caller knows the optimizer has moved on. Degraded queries (neural
  /// failure, breaker open, unloadable key) carry fallback == true.
  std::vector<Estimate> EstimateBatchEx(const std::string& model_key,
                                        const std::vector<query::Query>& queries,
                                        int64_t deadline_us = 0,
                                        uint64_t* snapshot_id = nullptr);

  /// Asynchronous single-query estimation through the micro-batching
  /// scheduler. The query joins the shared queue; at dispatch the scheduler
  /// groups pending queries BY KEY and serves each group on its own pinned
  /// artifact (one resolve per group, never a mid-group mix of models). The
  /// returned Future's value is identical to what the query would get from
  /// EstimateBatch on that artifact.
  ///
  /// `deadline_us` (relative to submission; 0 = options().default_deadline_us,
  /// and 0 again = none) bounds how long the query may wait: the scheduler
  /// drops expired entries before dispatch and answers them from the
  /// fallback, flagged deadline_expired. If the queue is bounded
  /// (options().max_queue) and full, the query is shed instead of enqueued:
  /// the Future completes immediately with a flagged fallback estimate —
  /// Submit never blocks on overload.
  Future Submit(const std::string& model_key, query::Query query, int64_t deadline_us = 0);

  /// Completion-callback variant of Submit for event-driven callers (the
  /// epoll front-end, src/net/server.h): `done` is invoked exactly once
  /// with the final Estimate — from the scheduler/worker thread when the
  /// query's micro-batch completes, or synchronously on the caller's thread
  /// when it is shed at admission. The callback must be cheap and
  /// non-blocking (it runs inside the dispatch path); it must not call back
  /// into this engine. Identical routing, deadlines, shedding, fusion and
  /// stats to Submit().
  void SubmitWithCallback(const std::string& model_key, query::Query query,
                          int64_t deadline_us, std::function<void(const Estimate&)> done);

  /// Admission hook for front-ends that maintain their own in-flight
  /// budgets (src/net/server.h): answers every query straight from the
  /// attached fallback on the caller's thread, flagged shed + fallback,
  /// and counts them like queue-overflow sheds — the docs/resilience.md §2
  /// shed path without touching the async queue. Never blocks or throws.
  std::vector<Estimate> ShedBatch(const std::vector<query::Query>& queries);

  /// Attaches (or detaches, with nullptr) the classical fallback estimator
  /// that answers degraded queries — typically one of the traditional
  /// baselines (baselines::IndependenceEstimator, baselines::SamplingEstimator):
  /// model-free, thread-safe after construction, and orders of magnitude
  /// cheaper than the neural path. It must outlive the engine or be
  /// detached first. With none attached, degraded queries return
  /// selectivity 0.0 (still flagged) rather than blocking or throwing.
  void AttachFallback(query::CardinalityEstimator* fallback);

  /// Snapshot of the cumulative counters.
  ServingStats stats() const;

  unsigned num_workers() const { return pool_.num_threads(); }
  const ServingOptions& options() const { return options_; }

 private:
  /// Pins `model_key`'s artifact model for one dispatch. A failed load
  /// yields a null pin — the dispatch then degrades to the fallback, flagged.
  ZooPin ResolveKey(const std::string& model_key) const;

  /// Shared Submit implementation (Future and callback flavours both funnel
  /// here; `done` may be empty).
  Future SubmitImpl(std::string model_key, query::Query query, int64_t deadline_us,
                    std::function<void(const Estimate&)> done);

  /// Runs `queries` sharded across the pool on `pin`'s model, writing into
  /// out[0..n). A shard whose neural estimate throws is answered by the
  /// fallback (flagged in `degraded` when non-null) — the exception never
  /// escapes. Returns the number of failed shards.
  int64_t EstimateSharded(const ZooPin& pin, const std::vector<query::Query>& queries,
                          double* out, bool* degraded);

  /// Breaker-aware batch serve: full fallback when the pin is null or the
  /// breaker is open, else EstimateSharded with the dispatch outcome fed
  /// back to the breaker. Accounts the served queries on the pin.
  void ServeBatch(const ZooPin& pin, const std::vector<query::Query>& queries,
                  double* out, bool* degraded);

  /// Answers queries[lo..lo+len) from the attached fallback estimator (0.0
  /// each with none attached / on fallback failure) and counts them served.
  void ServeFallback(const std::vector<query::Query>& queries, int64_t lo, int64_t len,
                     double* out);

  /// Breaker gate for one dispatch: true = attempt the neural path (possibly
  /// as the elected half-open probe), false = serve fallback.
  bool AllowNeural();

  /// Feeds one dispatch outcome to the breaker (trip / probe / reset).
  void RecordNeuralOutcome(bool failed);

  /// Scheduler loop: collects pending queries into micro-batches.
  void SchedulerLoop();

  /// Dispatches up to max_batch pending entries (caller holds no locks).
  void DispatchMicroBatch(std::vector<std::shared_ptr<Pending>> batch);

  ModelZoo& zoo_;
  std::atomic<query::CardinalityEstimator*> fallback_{nullptr};
  ServingOptions options_;
  ThreadPool pool_;  // private: a shared/global pool would let concurrent
                     // callers observe each other through pool-wide Wait()

  // Circuit breaker (docs/resilience.md §3): lock-free state machine fed by
  // dispatch outcomes. 0 = closed, 1 = open, 2 = half-open (one elected
  // probe dispatch in flight).
  std::atomic<int> breaker_state_{0};
  std::atomic<int64_t> consecutive_failures_{0};
  std::atomic<int64_t> breaker_open_until_us_{0};

  // Async scheduler state. queue_mu_ is mutable so stats() can read the
  // queue-depth gauge.
  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<std::shared_ptr<Pending>> pending_;
  bool stop_ = false;
  std::thread scheduler_;

  mutable std::mutex stats_mu_;
  ServingStats stats_;
  /// Submission-to-completion latency of admitted async queries.
  LatencyHistogram latency_;
  /// Exact histogram of fused dispatch-group sizes (size -> group count;
  /// sizes >= 2 only — bounded by max_batch, so the map stays tiny).
  /// Guarded by stats_mu_; stats() derives fusion_batch_p50 from it.
  std::map<int64_t, uint64_t> fusion_size_counts_;
  uint64_t fusion_group_count_ = 0;
};

}  // namespace duet::serve

#endif  // DUET_SERVE_SERVING_ENGINE_H_
