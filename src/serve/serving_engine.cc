#include "serve/serving_engine.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/logging.h"
#include "serve/fault_injector.h"

namespace duet::serve {

using Clock = std::chrono::steady_clock;

namespace {

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

/// One submitted query plus its result slot. The mutex/cv pair is per-query
/// so a Future wait never contends with unrelated traffic.
struct ServingEngine::Pending {
  query::Query query;
  /// Which model serves this query; the scheduler groups a micro-batch by
  /// key at dispatch.
  std::string model_key;
  Clock::time_point enqueued;
  /// Absolute expiry; time_point::max() = no deadline. The scheduler drops
  /// expired entries before dispatch.
  Clock::time_point deadline = Clock::time_point::max();

  std::mutex mu;
  std::condition_variable cv;
  bool ready = false;
  Estimate result;
  /// SubmitWithCallback completion hook; empty for Future-style submits.
  /// Invoked exactly once, after the result is published (a Future waiter
  /// racing the callback observes a ready result either way).
  std::function<void(const Estimate&)> on_complete;

  void Fulfill(const Estimate& value) {
    {
      std::lock_guard<std::mutex> lock(mu);
      result = value;
      ready = true;
    }
    cv.notify_all();
    if (on_complete) on_complete(value);
  }
};

bool ServingEngine::Future::Ready() const {
  DUET_CHECK(state_ != nullptr) << "Ready() on an empty Future";
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->ready;
}

double ServingEngine::Future::Wait() const { return Result().selectivity; }

Estimate ServingEngine::Future::Result() const {
  DUET_CHECK(state_ != nullptr) << "Wait() on an empty Future";
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [this] { return state_->ready; });
  return state_->result;
}

ServingEngine::ServingEngine(ModelZoo& zoo, ServingOptions options)
    : zoo_(zoo), options_(options), pool_(options.num_workers) {
  DUET_CHECK_GE(options_.min_shard, 1);
  DUET_CHECK_GE(options_.max_batch, 1);
  DUET_CHECK_GE(options_.max_wait_us, 0);
  DUET_CHECK_GE(options_.max_queue, 0);
  DUET_CHECK_GE(options_.default_deadline_us, 0);
  DUET_CHECK_GE(options_.breaker_threshold, 1);
  DUET_CHECK_GE(options_.breaker_cooldown_us, 0);
  scheduler_ = std::thread([this] { SchedulerLoop(); });
}

ServingEngine::~ServingEngine() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  scheduler_.join();  // drains every pending query before returning
}

ZooPin ServingEngine::ResolveKey(const std::string& model_key) const {
  ZooPin pin;
  zoo_.TryAcquire(model_key, &pin);  // on failure `pin` stays null
  return pin;
}

int64_t ServingEngine::EstimateSharded(const ZooPin& pin,
                                       const std::vector<query::Query>& queries,
                                       double* out, bool* degraded) {
  const int64_t n = static_cast<int64_t>(queries.size());
  if (n == 0) return 0;
  query::CardinalityEstimator& estimator = pin->estimator();
  // Shards split on query boundaries; per-row results are batch-size
  // invariant (kernel invariant), so any split yields bitwise the
  // single-thread batch result. All shards run on the one model `pin`
  // holds — a mid-batch re-register cannot split a batch across models.
  const int64_t by_floor = std::max<int64_t>(1, n / options_.min_shard);
  const int64_t num_shards =
      std::min<int64_t>(static_cast<int64_t>(pool_.num_threads()), by_floor);
  // A shard whose neural estimate threw is answered by the fallback after
  // the batch drains. The exception itself is intentionally not preserved:
  // a degraded answer, not an error, is the contract (docs/resilience.md §2).
  if (num_shards <= 1) {
    bool failed = false;
    try {
      FaultInjector::MaybeThrow(FaultPoint::kNeuralForward,
                                "injected neural forward failure");
      const std::vector<double> sels = estimator.EstimateSelectivityBatch(queries);
      std::copy(sels.begin(), sels.end(), out);
    } catch (...) {
      failed = true;
    }
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.shards;
      stats_.neural_failures += failed ? 1 : 0;
    }
    if (failed) {
      ServeFallback(queries, 0, n, out);
      if (degraded != nullptr) std::fill(degraded, degraded + n, true);
    }
    return failed ? 1 : 0;
  }

  // Per-call completion latch (NOT pool_.Wait(): that is a pool-wide
  // barrier, and concurrent client calls must not observe each other).
  // Each shard writes its own failure flag before it counts down, so the
  // flags are read only after Wait() has synchronized with every shard.
  CompletionLatch latch(num_shards);
  std::vector<char> shard_failed(static_cast<size_t>(num_shards), 0);
  const int64_t base = n / num_shards;
  const int64_t extra = n % num_shards;  // first `extra` shards get +1
  auto shard_begin = [base, extra](int64_t s) { return s * base + std::min(s, extra); };
  for (int64_t s = 0; s < num_shards; ++s) {
    const int64_t lo = shard_begin(s);
    const int64_t hi = shard_begin(s + 1);
    char* failed_flag = &shard_failed[static_cast<size_t>(s)];
    pool_.Submit([&estimator, &queries, &latch, failed_flag, out, lo, hi] {
      // The catch is the resilience layer's load-bearing wall: a neural
      // failure (injected or real) must never unwind a pool worker or skip
      // the count-down below — it becomes a fallback-served range.
      try {
        FaultInjector::MaybeThrow(FaultPoint::kNeuralForward,
                                  "injected neural forward failure");
        const std::vector<query::Query> shard(queries.begin() + lo, queries.begin() + hi);
        const std::vector<double> sels = estimator.EstimateSelectivityBatch(shard);
        std::copy(sels.begin(), sels.end(), out + lo);
      } catch (...) {
        *failed_flag = 1;
      }
      latch.CountDown();
    });
  }
  DUET_CHECK_EQ(shard_begin(num_shards), n);
  latch.Wait();
  int64_t failures = 0;
  for (int64_t s = 0; s < num_shards; ++s) failures += shard_failed[static_cast<size_t>(s)];
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.shards += static_cast<uint64_t>(num_shards);
    stats_.neural_failures += static_cast<uint64_t>(failures);
  }
  // Fallback fills run on the dispatching thread, after every shard has
  // counted down.
  for (int64_t s = 0; s < num_shards; ++s) {
    if (shard_failed[static_cast<size_t>(s)] == 0) continue;
    const int64_t lo = shard_begin(s);
    const int64_t len = shard_begin(s + 1) - lo;
    ServeFallback(queries, lo, len, out);
    if (degraded != nullptr) std::fill(degraded + lo, degraded + lo + len, true);
  }
  return failures;
}

void ServingEngine::ServeFallback(const std::vector<query::Query>& queries, int64_t lo,
                                  int64_t len, double* out) {
  query::CardinalityEstimator* fb = fallback_.load(std::memory_order_acquire);
  bool answered = false;
  if (fb != nullptr) {
    try {
      const std::vector<query::Query> range(queries.begin() + lo,
                                            queries.begin() + lo + len);
      const std::vector<double> sels = fb->EstimateSelectivityBatch(range);
      std::copy(sels.begin(), sels.end(), out + lo);
      answered = true;
    } catch (...) {
      // Even the fallback failed: fall through to the constant answer.
    }
  }
  if (!answered) std::fill(out + lo, out + lo + len, 0.0);
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.fallback_served += static_cast<uint64_t>(len);
}

bool ServingEngine::AllowNeural() {
  int state = breaker_state_.load(std::memory_order_acquire);
  if (state == 0) return true;
  if (state == 1) {
    if (NowMicros() >= breaker_open_until_us_.load(std::memory_order_relaxed)) {
      // Cooldown elapsed: CAS elects exactly one dispatch as the half-open
      // probe; everyone else keeps serving fallback until it reports back.
      int expected = 1;
      if (breaker_state_.compare_exchange_strong(expected, 2,
                                                 std::memory_order_acq_rel)) {
        return true;
      }
    }
    return false;
  }
  return false;  // half-open: another dispatch is probing
}

void ServingEngine::RecordNeuralOutcome(bool failed) {
  if (!failed) {
    consecutive_failures_.store(0, std::memory_order_relaxed);
    // A successful probe closes the breaker; a plain success under closed
    // state is a no-op CAS.
    int expected = 2;
    breaker_state_.compare_exchange_strong(expected, 0, std::memory_order_acq_rel);
    return;
  }
  const int64_t fails = consecutive_failures_.fetch_add(1, std::memory_order_relaxed) + 1;
  const int state = breaker_state_.load(std::memory_order_acquire);
  const bool probe_failed = state == 2;
  const bool threshold_hit = state == 0 && fails >= options_.breaker_threshold;
  if (probe_failed || threshold_hit) {
    breaker_open_until_us_.store(NowMicros() + options_.breaker_cooldown_us,
                                 std::memory_order_relaxed);
    breaker_state_.store(1, std::memory_order_release);
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.breaker_trips;
  }
}

void ServingEngine::ServeBatch(const ZooPin& pin, const std::vector<query::Query>& queries,
                               double* out, bool* degraded) {
  const int64_t n = static_cast<int64_t>(queries.size());
  if (n == 0) return;
  if (pin == nullptr) {
    // A key whose artifact failed to load (or was never registered): the
    // whole dispatch degrades to the fallback, flagged. Not a neural
    // failure — the breaker only judges the neural path.
    ServeFallback(queries, 0, n, out);
    if (degraded != nullptr) std::fill(degraded, degraded + n, true);
    return;
  }
  pin->NoteServed(static_cast<uint64_t>(n));
  if (!AllowNeural()) {
    // Breaker open: the whole dispatch degrades to the fallback without
    // touching the neural path.
    ServeFallback(queries, 0, n, out);
    if (degraded != nullptr) std::fill(degraded, degraded + n, true);
    return;
  }
  const int64_t failed_shards = EstimateSharded(pin, queries, out, degraded);
  RecordNeuralOutcome(failed_shards > 0);
}

std::vector<double> ServingEngine::EstimateBatch(const std::string& model_key,
                                                 const std::vector<query::Query>& queries,
                                                 uint64_t* snapshot_id) {
  const std::vector<Estimate> results = EstimateBatchEx(model_key, queries, 0, snapshot_id);
  std::vector<double> sels(results.size());
  for (size_t i = 0; i < results.size(); ++i) sels[i] = results[i].selectivity;
  return sels;
}

std::vector<Estimate> ServingEngine::EstimateBatchEx(
    const std::string& model_key, const std::vector<query::Query>& queries,
    int64_t deadline_us, uint64_t* snapshot_id) {
  const Clock::time_point start = Clock::now();
  // Resolved once per client call: the pin holds the key's model until
  // this batch returns, however many re-registers or evictions happen
  // meanwhile.
  const ZooPin pin = ResolveKey(model_key);
  if (snapshot_id != nullptr) *snapshot_id = pin != nullptr ? pin->fingerprint() : 0;
  std::vector<double> sels(queries.size());
  std::vector<uint8_t> degraded(queries.size(), 0);
  // bool* view over the flag bytes: std::vector<bool> has no data().
  static_assert(sizeof(bool) == 1, "degraded flags alias uint8_t storage");
  ServeBatch(pin, queries, sels.data(), reinterpret_cast<bool*>(degraded.data()));
  // The sync path runs on the caller's thread, so the batch was attempted
  // regardless of the budget; what a deadline buys here is *late-result
  // detection* — answers that arrived after the caller's budget are flagged
  // (the async path, which has a queue to drop from, sheds pre-dispatch).
  const bool late =
      deadline_us > 0 &&
      Clock::now() - start > std::chrono::microseconds(deadline_us);
  std::vector<Estimate> results(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    results[i].selectivity = sels[i];
    results[i].fallback = degraded[i] != 0;
    results[i].deadline_expired = late;
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.sync_batches;
  stats_.queries += static_cast<uint64_t>(queries.size());
  if (late) stats_.deadline_missed += static_cast<uint64_t>(queries.size());
  return results;
}

ServingEngine::Future ServingEngine::Submit(const std::string& model_key, query::Query query,
                                            int64_t deadline_us) {
  return SubmitImpl(model_key, std::move(query), deadline_us, nullptr);
}

void ServingEngine::SubmitWithCallback(const std::string& model_key, query::Query query,
                                       int64_t deadline_us,
                                       std::function<void(const Estimate&)> done) {
  SubmitImpl(model_key, std::move(query), deadline_us, std::move(done));
}

std::vector<Estimate> ServingEngine::ShedBatch(const std::vector<query::Query>& queries) {
  const int64_t n = static_cast<int64_t>(queries.size());
  std::vector<Estimate> results(queries.size());
  if (n == 0) return results;
  std::vector<double> sels(queries.size(), 0.0);
  ServeFallback(queries, 0, n, sels.data());
  for (size_t i = 0; i < queries.size(); ++i) {
    results[i].selectivity = sels[i];
    results[i].fallback = true;
    results[i].shed = true;
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.shed += static_cast<uint64_t>(n);
  stats_.queries += static_cast<uint64_t>(n);
  return results;
}

ServingEngine::Future ServingEngine::SubmitImpl(std::string model_key, query::Query query,
                                                int64_t deadline_us,
                                                std::function<void(const Estimate&)> done) {
  auto state = std::make_shared<Pending>();
  state->query = std::move(query);
  state->model_key = std::move(model_key);
  state->on_complete = std::move(done);
  state->enqueued = Clock::now();
  if (deadline_us <= 0) deadline_us = options_.default_deadline_us;
  if (deadline_us > 0) {
    state->deadline = state->enqueued + std::chrono::microseconds(deadline_us);
  }
  bool admitted = true;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    DUET_CHECK(!stop_) << "Submit() after engine shutdown";
    if (options_.max_queue > 0 &&
        static_cast<int64_t>(pending_.size()) >= options_.max_queue) {
      // Admission control: reject fast rather than queue beyond the bound
      // (an unbounded queue under overload grows latency without limit and
      // the caller would have timed out anyway — docs/resilience.md §2).
      admitted = false;
    } else {
      pending_.push_back(state);
      // Lock order queue_mu_ -> stats_mu_ (stats() and the dispatch path
      // never nest them the other way around).
      std::lock_guard<std::mutex> slock(stats_mu_);
      stats_.queue_high_water =
          std::max(stats_.queue_high_water, static_cast<int64_t>(pending_.size()));
    }
  }
  if (!admitted) {
    // Shed: answer immediately from the fallback on the caller's thread.
    // Cheap by construction (the fallback is a classical estimator), and
    // the Future is ready before Submit returns — never a blocked caller.
    double sel = 0.0;
    ServeFallback({state->query}, 0, 1, &sel);
    Estimate e;
    e.selectivity = sel;
    e.fallback = true;
    e.shed = true;
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.shed;
      ++stats_.queries;
    }
    state->Fulfill(e);
    return Future(state);
  }
  queue_cv_.notify_one();
  return Future(state);
}

void ServingEngine::AttachFallback(query::CardinalityEstimator* fallback) {
  fallback_.store(fallback, std::memory_order_release);
}

void ServingEngine::SchedulerLoop() {
  const auto max_wait = std::chrono::microseconds(options_.max_wait_us);
  std::unique_lock<std::mutex> lock(queue_mu_);
  for (;;) {
    queue_cv_.wait(lock, [this] { return stop_ || !pending_.empty(); });
    if (pending_.empty()) {
      if (stop_) return;
      continue;
    }
    // Collect: dispatch when max_batch queries are pending, the oldest has
    // aged out, or the engine is shutting down (drain everything then).
    const auto deadline = pending_.front()->enqueued + max_wait;
    while (!stop_ && static_cast<int64_t>(pending_.size()) < options_.max_batch) {
      if (queue_cv_.wait_until(lock, deadline) == std::cv_status::timeout) break;
    }
    std::vector<std::shared_ptr<Pending>> batch;
    const size_t take =
        std::min(pending_.size(), static_cast<size_t>(options_.max_batch));
    batch.assign(pending_.begin(), pending_.begin() + static_cast<int64_t>(take));
    pending_.erase(pending_.begin(), pending_.begin() + static_cast<int64_t>(take));
    lock.unlock();
    DispatchMicroBatch(std::move(batch));
    lock.lock();
  }
}

void ServingEngine::DispatchMicroBatch(std::vector<std::shared_ptr<Pending>> batch) {
  // Drop expired work before dispatch: a query past its deadline gets a
  // flagged fallback answer instead of a slot in the neural batch (the
  // caller has moved on; burning model time on it only delays the rest).
  const Clock::time_point now = Clock::now();
  std::vector<std::shared_ptr<Pending>> admitted;
  std::vector<std::shared_ptr<Pending>> expired;
  admitted.reserve(batch.size());
  for (auto& p : batch) {
    (p->deadline < now ? expired : admitted).push_back(std::move(p));
  }

  std::vector<double> expired_sels(expired.size(), 0.0);
  if (!expired.empty()) {
    std::vector<query::Query> expired_queries;
    expired_queries.reserve(expired.size());
    for (const auto& p : expired) expired_queries.push_back(p->query);
    ServeFallback(expired_queries, 0, static_cast<int64_t>(expired.size()),
                  expired_sels.data());
  }

  std::vector<double> sels(admitted.size());
  std::vector<uint8_t> degraded(admitted.size(), 0);
  // Fused dispatch-group sizes (>= 2) formed below; folded into the stats
  // under stats_mu_ after the batch completes.
  std::vector<int64_t> fused_sizes;
  if (!admitted.empty()) {
    // Cross-request fusion: group by model key and serve each group as ONE
    // batched estimate — a GEMM over the stacked feature rows instead of N
    // independent batch-1 GEMVs. Each group is served end-to-end by one
    // pinned zoo model, never a mid-group mix. Grouping preserves
    // submission order within each group,
    // and kernel batch invariance makes every per-query result bitwise what
    // a batch-1 dispatch would produce — so fusion (and the unfused A/B arm
    // below) changes throughput, never answers.
    std::vector<size_t> order(admitted.size());
    for (size_t i = 0; i < admitted.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return admitted[a]->model_key < admitted[b]->model_key;
    });
    size_t g = 0;
    while (g < order.size()) {
      size_t end = g + 1;
      // fuse_requests off: the unfused arm — every query dispatches alone
      // (its own resolve + batch-1 estimate), for fusion A/B benchmarks.
      while (options_.fuse_requests && end < order.size() &&
             admitted[order[end]]->model_key == admitted[order[g]]->model_key) {
        ++end;
      }
      if (end - g >= 2) fused_sizes.push_back(static_cast<int64_t>(end - g));
      std::vector<query::Query> queries;
      queries.reserve(end - g);
      for (size_t i = g; i < end; ++i) queries.push_back(admitted[order[i]]->query);
      const ZooPin pin = ResolveKey(admitted[order[g]]->model_key);
      std::vector<double> group_sels(queries.size());
      std::vector<uint8_t> group_degraded(queries.size(), 0);
      ServeBatch(pin, queries, group_sels.data(),
                 reinterpret_cast<bool*>(group_degraded.data()));
      for (size_t i = g; i < end; ++i) {
        sels[order[i]] = group_sels[i - g];
        degraded[order[i]] = group_degraded[i - g];
      }
      g = end;
    }
  }

  // Count before fulfilling: a client that has observed every Future ready
  // must also observe the counters covering those queries.
  {
    const Clock::time_point done = Clock::now();
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.micro_batches;
    stats_.queries += static_cast<uint64_t>(batch.size());
    stats_.deadline_missed += static_cast<uint64_t>(expired.size());
    stats_.largest_micro_batch =
        std::max(stats_.largest_micro_batch, static_cast<int64_t>(admitted.size()));
    for (const int64_t sz : fused_sizes) {
      stats_.fused_requests += static_cast<uint64_t>(sz);
      ++fusion_size_counts_[sz];
      ++fusion_group_count_;
    }
    for (const auto& p : admitted) {
      latency_.Record(
          std::chrono::duration_cast<std::chrono::microseconds>(done - p->enqueued).count());
    }
  }
  for (size_t i = 0; i < expired.size(); ++i) {
    Estimate e;
    e.selectivity = expired_sels[i];
    e.fallback = true;
    e.deadline_expired = true;
    expired[i]->Fulfill(e);
  }
  for (size_t i = 0; i < admitted.size(); ++i) {
    Estimate e;
    e.selectivity = sels[i];
    e.fallback = degraded[i] != 0;
    admitted[i]->Fulfill(e);
  }
}

ServingStats ServingEngine::stats() const {
  int64_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    depth = static_cast<int64_t>(pending_.size());
  }
  ServingStats snapshot;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    snapshot = stats_;
    snapshot.latency_p50_us = latency_.Quantile(0.50);
    snapshot.latency_p99_us = latency_.Quantile(0.99);
    snapshot.latency_p999_us = latency_.Quantile(0.999);
    if (fusion_group_count_ > 0) {
      // Exact median over fused-group sizes (the histogram is keyed by
      // size, so a linear walk is a handful of entries at most).
      const uint64_t target = (fusion_group_count_ + 1) / 2;
      uint64_t seen = 0;
      for (const auto& [size, count] : fusion_size_counts_) {
        seen += count;
        if (seen >= target) {
          snapshot.fusion_batch_p50 = static_cast<double>(size);
          break;
        }
      }
    }
  }
  snapshot.queue_depth = depth;
  snapshot.breaker_state =
      static_cast<uint64_t>(breaker_state_.load(std::memory_order_acquire));
  return snapshot;
}

}  // namespace duet::serve
