// The Duet model: a predicate-conditioned autoregressive network
// (paper Sec. IV) plus the sampling-free estimator (Algorithm 3).
//
// The MADE network consumes one predicate block per column
// ([value_enc | op one-hot], all zeros for wildcards) and emits one logit
// block per column over that column's distinct values. Selectivity of a
// query is the product over columns of the predicate-mask-weighted softmax
// mass of each block — a single forward pass, no sampling, deterministic,
// and differentiable end to end (which is what enables hybrid training).
//
// This class covers the paper's main configuration: at most one predicate
// per column ("direct mode"). Multi-predicate support via MPSN lives in
// core/mpsn_model.h.
#ifndef DUET_CORE_DUET_MODEL_H_
#define DUET_CORE_DUET_MODEL_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/encoding.h"
#include "core/sampler.h"
#include "nn/inference_plan.h"
#include "nn/made.h"
#include "nn/module.h"
#include "query/estimator.h"
#include "query/query.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace duet::core {

/// Architecture knobs (defaults follow the paper's Sec. V-A4 choices).
struct DuetModelOptions {
  /// MADE hidden sizes; the paper uses {512,256,512,128,1024} for DMV and
  /// 2x128 ResMADE for Kddcup98/Census.
  std::vector<int64_t> hidden_sizes = {256, 256};
  /// Use ResMADE residual blocks instead of a plain masked MLP.
  bool residual = false;
  EncodingOptions encoding;
  uint64_t seed = 1;
};

/// Per-phase estimation cost accumulators (Fig. 6 / Fig. 7 breakdowns).
struct PhaseTimes {
  double encode_ms = 0.0;
  double forward_ms = 0.0;
  double post_ms = 0.0;  // softmax + zero-out mask + product
  double total_ms() const { return encode_ms + forward_ms + post_ms; }
  void Clear() { encode_ms = forward_ms = post_ms = 0.0; }
};

/// Algorithm 3 tail for one dense logits row: per constrained block, the
/// masked softmax mass of that query's code range, accumulated as a
/// log-space product over the columns in ascending order. This is the
/// dense reference form of EstimateSelectivities' post phase, which runs the
/// same per-block arithmetic over a compact logits row.
/// Returns false for a contradictory query (some range empty).
bool MaskedLogSelectivity(const float* logits_row, const std::vector<tensor::BlockSpec>& blocks,
                          const std::vector<query::CodeRange>& ranges, int num_columns,
                          double* log_sel_out);

/// The Duet estimate loop (Algorithm 3), the one both DuetModel and
/// artifact::ArtifactModel run, so a loaded artifact answers bit for bit
/// like the model it was written from. Its cost scales with each query's
/// predicated columns, not with the table's width:
///  * encode: each query becomes a compact row (DuetInputEncoder::
///    EncodeQueryCompact) in per-thread scratch. A contradictory query is
///    0 and a query whose every range is its column's whole domain is 1,
///    both without a forward;
///  * forward: the other rows run nn::InferencePlan::ExecuteSparse, which
///    reads only their nonzero inputs and computes only the logit blocks of
///    their constrained columns;
///  * post: per constrained column, ascending, the masked softmax mass of
///    its range, summed in log space — MaskedLogSelectivity's arithmetic.
/// Every answer is bitwise MaskedLogSelectivity over the dense forward of
/// EncodeQueryRow's row (tests/test_plan.cc pins this per backend).
/// `blocks` are the plan's output blocks, one per table column. Writes
/// sels[0, count). Steady-state calls allocate nothing per query. When
/// `phases` is not null, adds the encode, forward and post times to it.
void EstimateSelectivities(const data::Table& table, const DuetInputEncoder& encoder,
                           const std::vector<tensor::BlockSpec>& blocks,
                           const nn::InferencePlan& plan, const query::Query* queries,
                           int64_t count, double* sels, PhaseTimes* phases);

/// Duet model (direct mode).
class DuetModel : public nn::Module {
 public:
  DuetModel(const data::Table& table, DuetModelOptions options);

  // ----- training-side API (differentiable) -----

  /// Encodes a sampled virtual batch into the network input (constants).
  tensor::Tensor EncodeVirtualBatch(const VirtualBatch& batch) const;

  /// Raw logits for an encoded input.
  tensor::Tensor ForwardLogits(const tensor::Tensor& x) const;

  /// Cross-entropy L_data for a virtual batch (mean over rows of the summed
  /// per-column NLL of the anchor labels).
  tensor::Tensor DataLoss(const VirtualBatch& batch) const;

  /// Differentiable selectivity for a batch of queries: one forward pass,
  /// then per-column masked sums and a log-space product (Algorithm 3 with
  /// gradients). Queries must have at most one predicate per column.
  tensor::Tensor SelectivityBatch(const std::vector<query::Query>& queries) const;

  // ----- inference-side API (no autograd) -----
  //
  // Thread-safety: both estimation entry points below are safe to call
  // concurrently from multiple threads while THIS instance's parameters are
  // unchanging (the encoder is stateless, activations live in per-thread
  // inference arenas, and the compiled plan publishes under its own lock).
  // The PhaseTimes accumulators are guarded by an internal mutex.
  // Training-side methods and optimizer steps must NOT run concurrently
  // with estimation *on the same instance* — online updates instead train
  // a clone (core::CloneModel) and publish it as a new zoo artifact while
  // the served artifact keeps estimating (serve/model_registry.h).

  /// Algorithm 3 for a single query; deterministic. Returns selectivity in
  /// [0, 1]; queries with an empty predicate range return exactly 0.
  double EstimateSelectivity(const query::Query& query) const;

  /// Batched inference (the GPU-batching stand-in used by throughput
  /// benches): one predicate-sparse forward for all queries
  /// (EstimateSelectivities).
  std::vector<double> EstimateSelectivityBatch(const std::vector<query::Query>& queries) const;

  // ----- inference configuration -----

  /// Selects the packed-weight backend the MADE's compiled plan uses on the
  /// no-grad estimation paths (tensor/packed_weights.h): kDenseF32 keeps
  /// today's bitwise-exact behavior, kCsrF32 streams only nonzero masked
  /// weights (also bitwise-exact), kInt8 quarters weight traffic at bounded
  /// accuracy cost, kF16 halves it at a much tighter bound. The plan
  /// recompiles lazily on the next forward. Const because only the plan
  /// cache is reconfigured — but configure before sharing the model with
  /// serving threads: a switch racing in-flight estimates is memory-safe
  /// yet a racing forward may serve either backend.
  void SetInferenceBackend(tensor::WeightBackend backend) const override {
    made_->SetInferenceBackend(backend);
  }

  /// Compiled-plan observability, forwarded to the MADE.
  uint64_t PlanBytes() const override { return made_->PlanBytes(); }
  nn::PlanTelemetry PlanInfo() const override { return made_->PlanInfo(); }

  // ----- introspection -----

  const data::Table& table() const { return table_; }
  /// Architecture the model was built with (what core::CloneModel replays).
  const DuetModelOptions& options() const { return options_; }
  const DuetInputEncoder& encoder() const { return encoder_; }
  /// The autoregressive network.
  const nn::Made& made() const { return *made_; }
  /// Profiling accumulators. Read/Clear only while no estimation is in
  /// flight; accumulation itself is internally locked so concurrent sharded
  /// estimation stays race-free.
  PhaseTimes& phase_times() const { return phase_times_; }

 private:
  /// Builds the zero-out mask row (out_dim floats) from per-column ranges.
  void FillMaskRow(const std::vector<query::CodeRange>& ranges, float* dst) const;

  /// Runs EstimateSelectivities over this model's plan and adds its phase
  /// times to phase_times_ under the lock.
  void Estimate(const query::Query* queries, int64_t count, double* sels) const;

  const data::Table& table_;
  DuetModelOptions options_;
  DuetInputEncoder encoder_;
  std::unique_ptr<nn::Made> made_;
  // Profiling accumulators; guarded so concurrent sharded estimation (the
  // serving engine) does not race on them. The mutex is heap-held so the
  // model stays movable (tests return models by value).
  mutable std::unique_ptr<std::mutex> phase_mu_ = std::make_unique<std::mutex>();
  mutable PhaseTimes phase_times_;
};

/// CardinalityEstimator adapter over a trained DuetModel.
class DuetEstimator : public query::CardinalityEstimator {
 public:
  DuetEstimator(const DuetModel& model, std::string name = "Duet")
      : model_(model), name_(std::move(name)) {}

  double EstimateSelectivity(const query::Query& query) override {
    return model_.EstimateSelectivity(query);
  }
  std::vector<double> EstimateSelectivityBatch(
      const std::vector<query::Query>& queries) override {
    return model_.EstimateSelectivityBatch(queries);
  }
  void SetInferenceBackend(tensor::WeightBackend backend) override {
    model_.SetInferenceBackend(backend);
  }
  uint64_t PlanBytes() const override { return model_.PlanBytes(); }
  uint64_t PlanCompileMicros() const override { return model_.PlanInfo().compile_micros; }
  uint64_t PlanCacheHits() const override { return model_.PlanInfo().cache_hits; }
  std::string name() const override { return name_; }
  double SizeMB() const override { return model_.SizeMB(); }

 private:
  const DuetModel& model_;
  std::string name_;
};

}  // namespace duet::core

#endif  // DUET_CORE_DUET_MODEL_H_
