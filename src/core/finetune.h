// Long-tail fine-tuning (paper Sec. IV-A): "for queries with large
// estimation errors during actual use, we can collect them and perform
// targeted fine-tuning of the model to improve the long-tail distribution
// problem."
//
// The flow mirrors a deployed estimator: a served workload is scored, the
// worst-estimated queries are collected, and the model is fine-tuned with
// the hybrid loss on exactly those queries — with the collected workload
// also guiding the virtual-table importance sampler so the unsupervised
// term concentrates on the same region. Because Duet's estimator is fully
// differentiable, this needs no sampling machinery (unlike Naru/UAE).
#ifndef DUET_CORE_FINETUNE_H_
#define DUET_CORE_FINETUNE_H_

#include <cstdint>
#include <vector>

#include "core/duet_model.h"
#include "core/trainer.h"
#include "query/query.h"

namespace duet::core {

/// Fine-tuning knobs.
struct FineTuneOptions {
  /// Queries whose Q-error exceeds this are collected.
  double qerror_threshold = 5.0;
  /// At most this many worst queries are kept (worst-first).
  int max_queries = 256;
  /// Fine-tuning epochs over the collected set.
  int epochs = 3;
  int64_t batch_size = 256;
  /// Lower than training LR: targeted correction, not re-training.
  float learning_rate = 5e-4f;
  /// Query-loss weight; higher than the training default because the
  /// collected set is exactly the region the model must fix.
  float lambda = 0.5f;
  /// Virtual-table sampling knobs for the replayed unsupervised term (kept
  /// on so the model does not forget the data distribution).
  int expand = 4;
  double wildcard_prob = 0.3;
  /// Caps the anchor tuples each fine-tune epoch visits (0 = whole table;
  /// see TrainOptions::max_rows_per_epoch). Online update rounds set this
  /// so a background fine-tune's cost does not scale with the table.
  int64_t max_anchor_rows = 0;
  /// Guide the sampler with the collected queries' operator / value
  /// distributions (Sec. IV-C locality refinement).
  bool use_importance_sampling = true;
  uint64_t seed = 99;
};

/// Outcome of one fine-tuning round.
struct FineTuneReport {
  /// The collected high-error queries (with their true cardinalities).
  query::Workload collected;
  /// Mean / max Q-error on the collected set before and after tuning.
  double before_mean = 0.0;
  double before_max = 0.0;
  double after_mean = 0.0;
  double after_max = 0.0;
  /// Telemetry of the fine-tuning epochs.
  std::vector<EpochStats> epochs;
};

/// Scores `served` with the model and returns the worst-estimated queries
/// (Q-error > threshold, worst-first, capped at max_queries).
query::Workload CollectHighErrorQueries(const DuetModel& model, const query::Workload& served,
                                        const FineTuneOptions& options);

/// One collect + fine-tune round. If no query exceeds the threshold the
/// model is untouched and the report's `collected` is empty.
FineTuneReport FineTune(DuetModel& model, const query::Workload& served,
                        const FineTuneOptions& options = {});

/// Deep copy for online updates: a fresh DuetModel over the same table with
/// the same architecture options and bitwise-identical parameters (direct
/// tensor-to-tensor copy via Module::CopyParametersFrom — no serialized
/// image is materialized, so the round's transient peak is one extra model,
/// not two) but cold inference caches. Safe to call concurrently with
/// estimation on `model` (it only reads the parameter values); the clone is
/// mutable and trainable even when `model` is a registry's current version.
std::unique_ptr<DuetModel> CloneModel(const DuetModel& model);

/// Median Q-error of `model` over a labeled workload (one batched forward);
/// 0 for an empty workload. The robust validation metric the online-update
/// gate compares.
double MedianQError(const DuetModel& model, const query::Workload& workload);

/// Knobs for one clone-and-tune online update round.
struct OnlineUpdateOptions {
  /// Inner fine-tuning round (collection threshold, epochs, LR, lambda...).
  FineTuneOptions finetune;
  /// Validation gate: the candidate is accepted iff its holdout median
  /// Q-error is finite and <= before * max_regression. 1.0 demands
  /// no regression at all; a small slack (e.g. 1.05) tolerates noise on
  /// tiny holdouts.
  double max_regression = 1.05;
};

/// Outcome of CloneAndFineTune. `model` always carries the tuned candidate
/// (even when rejected, for inspection); `accepted` is the publish/rollback
/// verdict of the validation gate.
struct OnlineUpdateResult {
  std::unique_ptr<DuetModel> model;
  bool accepted = false;
  /// Candidate's holdout median Q-error before / after tuning.
  double holdout_before = 0.0;
  double holdout_after = 0.0;
  /// Inner fine-tune telemetry (`collected` empty = nothing exceeded the
  /// threshold; the candidate is then identical to the base and rejected).
  FineTuneReport report;
};

/// The online-update entry point (serve::UpdateWorker's core): clones
/// `base`, fine-tunes the clone on `feedback` (observed (query, true
/// cardinality) pairs from served traffic), and validates on `holdout` —
/// pairs NOT trained on, so a poisoned or unrepresentative feedback batch
/// that degrades the model fails the gate and is rolled back instead of
/// published. `base` is never mutated and may be a frozen serving snapshot;
/// the returned candidate is mutable and unfrozen (the publisher freezes
/// it).
OnlineUpdateResult CloneAndFineTune(const DuetModel& base, const query::Workload& feedback,
                                    const query::Workload& holdout,
                                    const OnlineUpdateOptions& options = {});

}  // namespace duet::core

#endif  // DUET_CORE_FINETUNE_H_
