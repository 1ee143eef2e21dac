#include "serve/update_worker.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iterator>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/timer.h"

namespace duet::serve {

UpdateWorker::UpdateWorker(ModelRegistry& registry, UpdateWorkerOptions options)
    : registry_(registry), options_(options) {
  DUET_CHECK_GE(options_.min_feedback, 2);
  DUET_CHECK_GE(options_.max_buffer, options_.min_feedback);
  DUET_CHECK_GE(options_.holdout_every, 2);
  // A round drains >= min_feedback pairs; requiring at least one full
  // holdout stride guarantees the validation slice is never empty (an empty
  // holdout would fail the gate and silently reject every round).
  DUET_CHECK_GE(options_.min_feedback, options_.holdout_every);
  DUET_CHECK_GE(options_.publish_retries, 0);
  DUET_CHECK_GE(options_.backoff_initial_us, 0);
  DUET_CHECK_GE(options_.backoff_max_us, options_.backoff_initial_us);
  DUET_CHECK_GE(options_.max_quarantine, 0);
}

UpdateWorker::~UpdateWorker() { Stop(); }

void UpdateWorker::AddFeedback(query::Query query, double true_cardinality) {
  if (!(true_cardinality > 0.0)) true_cardinality = 0.0;  // NaN/negative -> 0
  // Saturate +inf / out-of-range counts: casting a double >= 2^64 to
  // uint64_t is undefined behavior. 2^63 is exactly representable.
  constexpr double kMaxCardinality = 9223372036854775808.0;
  if (true_cardinality >= kMaxCardinality) true_cardinality = kMaxCardinality;
  query::LabeledQuery pair;
  pair.query = std::move(query);
  pair.cardinality = static_cast<uint64_t>(true_cardinality);
  bool dropped = false;
  {
    std::lock_guard<std::mutex> lock(buffer_mu_);
    buffer_.push_back(std::move(pair));
    if (static_cast<int64_t>(buffer_.size()) > options_.max_buffer) {
      buffer_.pop_front();
      dropped = true;
    }
  }
  buffer_cv_.notify_one();
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.feedback_received;
  if (dropped) ++stats_.feedback_dropped;
}

bool UpdateWorker::RunOnce() { return RunRound(); }

bool UpdateWorker::RunRound() {
  // One round at a time: RunOnce callers and the background loop share the
  // clone-and-tune pipeline (and the trainer is not reentrant).
  std::lock_guard<std::mutex> round_lock(round_mu_);

  std::vector<query::LabeledQuery> drained;
  {
    std::lock_guard<std::mutex> lock(buffer_mu_);
    if (static_cast<int64_t>(buffer_.size()) < options_.min_feedback) return false;
    drained.assign(buffer_.begin(), buffer_.end());
    buffer_.clear();
  }

  // Deterministic split: every holdout_every-th pair validates, the rest
  // tune. The holdout is data the tuning never saw, which is what lets the
  // gate catch a poisoned or unrepresentative feedback batch.
  query::Workload train, holdout;
  for (size_t i = 0; i < drained.size(); ++i) {
    if (i % static_cast<size_t>(options_.holdout_every) ==
        static_cast<size_t>(options_.holdout_every) - 1) {
      holdout.push_back(std::move(drained[i]));
    } else {
      train.push_back(std::move(drained[i]));
    }
  }

  Timer round_timer;
  const std::shared_ptr<const ModelSnapshot> base = registry_.Current();
  // Transient clone accounting (stats().clone_peak_bytes): the round owns
  // the fine-tune candidate for its whole duration, plus one more clone per
  // publish attempt while that Publish is in flight.
  const uint64_t model_bytes =
      static_cast<uint64_t>(base->model().NumParams()) * sizeof(float);
  uint64_t round_clone_peak = model_bytes;  // the candidate
  core::OnlineUpdateResult result =
      core::CloneAndFineTune(base->model(), train, holdout, options_.update);

  // Publish with bounded exponential backoff + jitter: Publish can throw
  // (packing, plan compilation, a torn artifact write), and a throw
  // consumes the model it was handed, so each attempt gets its own clone of
  // the candidate. After the retry budget the candidate is abandoned — the
  // zoo keeps serving the previous artifact and the next round starts
  // fresh.
  bool published = false;
  uint64_t attempt_failures = 0;
  if (result.accepted) {
    int64_t backoff_us = options_.backoff_initial_us;
    for (int64_t attempt = 0; attempt <= options_.publish_retries; ++attempt) {
      try {
        round_clone_peak = std::max(round_clone_peak, 2 * model_bytes);
        registry_.Publish(core::CloneModel(*result.model));
        published = true;
        break;
      } catch (const std::exception&) {
        ++attempt_failures;
        if (attempt == options_.publish_retries) break;
        const double jitter = 0.5 + backoff_rng_.UniformDouble();  // [0.5, 1.5)
        std::this_thread::sleep_for(std::chrono::microseconds(
            static_cast<int64_t>(static_cast<double>(backoff_us) * jitter)));
        backoff_us = std::min(backoff_us * 2, options_.backoff_max_us);
      }
    }
  }

  // A gate-rejected round with a non-empty collection means the feedback
  // batch itself is suspect (poisoned labels, unrepresentative skew).
  // Quarantine its pairs instead of retrying or silently dropping them.
  const bool poisoned = !result.accepted && !result.report.collected.empty();
  uint64_t quarantined_pairs = 0;
  if (poisoned) {
    std::lock_guard<std::mutex> qlock(quarantine_mu_);
    for (query::Workload* part : {&train, &holdout}) {
      for (query::LabeledQuery& lq : *part) {
        quarantine_.push_back(std::move(lq));
        ++quarantined_pairs;
      }
    }
    while (static_cast<int64_t>(quarantine_.size()) > options_.max_quarantine) {
      quarantine_.pop_front();
    }
  }

  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.rounds;
  stats_.publish_failures += attempt_failures;
  if (published) {
    ++stats_.published;
  } else if (result.accepted) {
    ++stats_.publish_abandoned;
  } else if (result.report.collected.empty()) {
    ++stats_.skipped;  // nothing exceeded the threshold: candidate == base
  } else {
    ++stats_.rolled_back;
  }
  if (poisoned) {
    ++stats_.quarantined_rounds;
    stats_.feedback_quarantined += quarantined_pairs;
  }
  stats_.last_holdout_before = result.holdout_before;
  stats_.last_holdout_after = result.holdout_after;
  stats_.last_round_seconds = round_timer.Seconds();
  stats_.clone_peak_bytes = std::max(stats_.clone_peak_bytes, round_clone_peak);
  return true;
}

int64_t UpdateWorker::quarantined_feedback() const {
  std::lock_guard<std::mutex> lock(quarantine_mu_);
  return static_cast<int64_t>(quarantine_.size());
}

query::Workload UpdateWorker::DrainQuarantine() {
  std::lock_guard<std::mutex> lock(quarantine_mu_);
  query::Workload out(std::make_move_iterator(quarantine_.begin()),
                      std::make_move_iterator(quarantine_.end()));
  quarantine_.clear();
  return out;
}

void UpdateWorker::Start() {
  std::lock_guard<std::mutex> lock(buffer_mu_);
  if (thread_.joinable()) return;
  stop_ = false;
  thread_ = std::thread([this] { Loop(); });
}

void UpdateWorker::Stop() {
  std::thread stopped;
  {
    // Claim the thread under the lock so a concurrent Stop (e.g. explicit
    // Stop racing the destructor) cannot join it twice.
    std::lock_guard<std::mutex> lock(buffer_mu_);
    if (!thread_.joinable()) return;
    stop_ = true;
    stopped = std::move(thread_);
  }
  buffer_cv_.notify_all();
  stopped.join();
  std::lock_guard<std::mutex> lock(buffer_mu_);
  stop_ = false;
}

void UpdateWorker::Loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(buffer_mu_);
      buffer_cv_.wait(lock, [this] {
        return stop_ || static_cast<int64_t>(buffer_.size()) >= options_.min_feedback;
      });
      if (stop_) return;
    }
    RunRound();
  }
}

int64_t UpdateWorker::pending_feedback() const {
  std::lock_guard<std::mutex> lock(buffer_mu_);
  return static_cast<int64_t>(buffer_.size());
}

UpdateWorkerStats UpdateWorker::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

}  // namespace duet::serve
