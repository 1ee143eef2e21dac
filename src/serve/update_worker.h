// Background fine-tune worker: turns served-traffic feedback into
// published model snapshots.
//
// This is the paper's deployment loop (Sec. IV-A: collect badly-estimated
// queries during actual use, fine-tune on them) run *online*: a feedback
// buffer accumulates (query, observed true cardinality) pairs reported by
// the execution engine after it runs served queries; once enough pairs are
// pending, the worker clones the current snapshot, fine-tunes the clone on
// the feedback (core::CloneAndFineTune), validates the candidate's median
// Q-error on a holdout slice of pairs the tuning never saw, and either
// publishes the candidate through the ModelRegistry (a new artifact the
// zoo hot-swaps in — the serving path never pauses) or rolls it back. Serving and adaptation thus
// run on decoupled model instances that synchronize only at snapshot
// publication.
//
// Threading: AddFeedback is called on the serving path (cheap: one mutex'd
// deque push). The round itself — clone, train, validate — runs either on
// the caller's thread (RunOnce, used by tests and deterministic examples)
// or on the worker's own background thread (Start/Stop). Rounds are
// serialized; the registry handles publish-side synchronization.
#ifndef DUET_SERVE_UPDATE_WORKER_H_
#define DUET_SERVE_UPDATE_WORKER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>

#include "common/rng.h"
#include "core/finetune.h"
#include "query/query.h"
#include "serve/model_registry.h"

namespace duet::serve {

/// Update-worker knobs.
struct UpdateWorkerOptions {
  /// A round starts once this many feedback pairs are pending. Must be
  /// >= holdout_every so every round's validation holdout is non-empty.
  int64_t min_feedback = 64;
  /// Feedback buffer cap: beyond it the oldest pairs are dropped (counted
  /// in stats().feedback_dropped) so a stalled worker cannot grow memory
  /// without bound.
  int64_t max_buffer = 8192;
  /// Every `holdout_every`-th drained pair goes to the validation holdout
  /// instead of the tuning set (deterministic split, so tests can reason
  /// about which pairs train and which validate). Must be >= 2.
  int64_t holdout_every = 4;
  /// A failed Publish (it can throw: packing, plan compilation, a torn
  /// artifact write caught by validation) is retried up to this many times
  /// with bounded exponential backoff and jitter before the round's
  /// candidate is abandoned (resilience.md §5).
  int64_t publish_retries = 3;
  /// First retry delay; doubles per retry up to backoff_max_us. Jittered by
  /// a deterministic [0.5, 1.5) factor so synchronized workers desynchronize.
  int64_t backoff_initial_us = 1000;
  int64_t backoff_max_us = 100 * 1000;
  /// Cap on the quarantine buffer holding pairs from gate-rejected rounds
  /// (oldest dropped beyond it).
  int64_t max_quarantine = 4096;
  /// Clone-and-tune knobs, including the validation gate
  /// (core::OnlineUpdateOptions::max_regression).
  core::OnlineUpdateOptions update;
};

/// Cumulative worker counters (monotone since construction).
struct UpdateWorkerStats {
  uint64_t feedback_received = 0;
  uint64_t feedback_dropped = 0;  ///< overflowed pairs (oldest-first)
  uint64_t rounds = 0;            ///< clone-and-tune rounds run
  uint64_t published = 0;         ///< rounds whose candidate passed the gate
  uint64_t rolled_back = 0;       ///< rounds whose candidate failed the gate
  uint64_t skipped = 0;           ///< rounds where nothing exceeded the
                                  ///< collection threshold (candidate == base)
  uint64_t publish_failures = 0;  ///< individual Publish attempts that threw
  uint64_t publish_abandoned = 0; ///< accepted candidates dropped after every
                                  ///< retry failed
  uint64_t quarantined_rounds = 0;    ///< gate-rejected rounds quarantined
  uint64_t feedback_quarantined = 0;  ///< pairs moved into quarantine
  /// Holdout median Q-error of the last round's candidate before/after
  /// tuning (the gate's inputs).
  double last_holdout_before = 0.0;
  double last_holdout_after = 0.0;
  double last_round_seconds = 0.0;
  /// Peak transient clone memory any single round has held: parameter bytes
  /// of round-owned model copies alive at once (the fine-tune candidate,
  /// plus one per-attempt publish clone while a Publish is in flight). With
  /// the direct-copy core::CloneModel this is 2x the model's parameter
  /// bytes at publish and 1x otherwise; the old serialize/deserialize clone
  /// path added another full serialized image on top of each copy.
  uint64_t clone_peak_bytes = 0;
};

/// Owns the feedback buffer and the background round loop. Destruction
/// stops the background thread (if started) after its current round.
class UpdateWorker {
 public:
  explicit UpdateWorker(ModelRegistry& registry, UpdateWorkerOptions options = {});
  ~UpdateWorker();

  UpdateWorker(const UpdateWorker&) = delete;
  UpdateWorker& operator=(const UpdateWorker&) = delete;

  /// Reports one observed (query, true cardinality) pair from served
  /// traffic — the execution engine calls this after running a query the
  /// registry's key served. Thread-safe and cheap; negative/NaN
  /// cardinalities are clamped to 0.
  void AddFeedback(query::Query query, double true_cardinality);

  /// Runs one round on the caller's thread if at least min_feedback pairs
  /// are pending (returns false otherwise — nothing drained). Also callable
  /// with the background thread running; rounds are serialized.
  bool RunOnce();

  /// Starts / stops the background thread that runs rounds whenever enough
  /// feedback is pending. Idempotent.
  void Start();
  void Stop();

  int64_t pending_feedback() const;
  UpdateWorkerStats stats() const;
  const UpdateWorkerOptions& options() const { return options_; }

  /// Pairs currently held in the poisoned-round quarantine.
  int64_t quarantined_feedback() const;

  /// Removes and returns the quarantined pairs (offline inspection /
  /// debugging of what poisoned a round). Oldest first.
  query::Workload DrainQuarantine();

 private:
  void Loop();
  /// Drains the buffer (if >= min_feedback) into train/holdout and runs one
  /// clone-and-tune round. Serialized by round_mu_.
  bool RunRound();

  ModelRegistry& registry_;
  UpdateWorkerOptions options_;

  mutable std::mutex buffer_mu_;
  std::condition_variable buffer_cv_;
  std::deque<query::LabeledQuery> buffer_;
  bool stop_ = false;

  std::mutex round_mu_;  ///< serializes RunOnce vs the background loop

  /// Pairs from gate-rejected (poisoned) rounds: kept out of the live
  /// buffer so the same batch cannot poison the next round, but retained —
  /// bounded — for offline inspection.
  mutable std::mutex quarantine_mu_;
  std::deque<query::LabeledQuery> quarantine_;

  /// Jitter source for publish backoff; guarded by round_mu_ (only round
  /// code touches it). Fixed seed: deterministic tests, and desynchronizing
  /// *distinct* workers is handled by each worker's own sequence.
  Rng backoff_rng_{0xd0e7};

  mutable std::mutex stats_mu_;
  UpdateWorkerStats stats_;

  std::thread thread_;  ///< joinable iff the background loop is running
};

}  // namespace duet::serve

#endif  // DUET_SERVE_UPDATE_WORKER_H_
