// Model-level snapshot artifacts: write a frozen DuetModel as one
// mmap-able file; load it back as an ArtifactModel that serves
// bitwise-identical estimates with zero parse/repack cost.
//
// The container framing (header, section table, checksums) lives in
// artifact/format.h. This layer defines what the sections hold for a
// direct-mode Duet model ("duet-direct"):
//
//   kMeta  table schema (column names + dictionaries), source row count,
//          encoding options — everything needed to rebuild the input
//          encoder and predicate-translation tables without the data rows
//   kPlan  the compiled InferencePlan program: backend, dims, slab layout,
//          and the op list (each linear op references its pack section by
//          index and inlines its bias — biases are tiny and the gathering
//          epilogue reads them in original column order)
//   kPack  one PackedWeights blob per linear op: a raw, 64-aligned array
//          layout the loader points PackedArray views at directly
//
// Zero-repack contract: LoadArtifact never calls PackWeights and never
// copies a weight array — every pack field is a view into the mapping
// (tensor::PackWeightsCalls() stays flat across loads; the zoo bench
// asserts it). Bitwise contract: the loaded plan re-executes the exact
// program the writer compiled (same ops, same slab layout, same kernel
// bytes), and both estimate paths run core::EstimateSelectivities, the
// estimate loop DuetModel runs — so a loaded artifact's estimates equal the
// in-memory snapshot's bit for bit.
#ifndef DUET_ARTIFACT_ARTIFACT_H_
#define DUET_ARTIFACT_ARTIFACT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "artifact/format.h"
#include "core/duet_model.h"
#include "core/encoding.h"
#include "data/table.h"
#include "nn/inference_plan.h"
#include "query/estimator.h"
#include "query/query.h"
#include "tensor/packed_weights.h"

namespace duet::artifact {

class ArtifactModel;

/// Loader knobs.
struct ArtifactLoadOptions {
  /// Verify every pack section's FNV-1a payload checksum at load (one
  /// streaming pass over the mapped bytes). Off skips only the pack
  /// payloads — header, table, meta and plan are always verified.
  bool verify_checksums = true;
};

/// Serializes `model` (its MADE's compiled plan under `backend`, plus
/// schema and encoding metadata) to `path`. Any I/O failure is a clean
/// error; the kCheckpointWrite fault point injects torn writes.
ArtifactStatus WriteArtifact(const std::string& path, const core::DuetModel& model,
                             tensor::WeightBackend backend);

/// Re-serializes an already-loaded artifact. Byte-for-byte identical to the
/// file `model` was loaded from (the writer's layout is deterministic and
/// every stored field round-trips losslessly) — the golden-file
/// format-stability tests pin this.
ArtifactStatus ResaveArtifact(const std::string& path, const ArtifactModel& model);

/// Maps and validates the artifact at `path`. On success *out owns the
/// mapping; on any failure *out is untouched (the zoo's registry state
/// never observes a half-loaded model).
ArtifactStatus LoadArtifact(const std::string& path, const ArtifactLoadOptions& options,
                            std::shared_ptr<const ArtifactModel>* out);

/// A model snapshot served directly from a mapped artifact file: schema-only
/// table (dictionaries, no rows), rebuilt input encoder, and the compiled
/// plan pointing into the mapping. Immutable and const-thread-safe like a
/// frozen DuetModel; shared as shared_ptr<const ArtifactModel> (the
/// refcount keeps the mapping alive for in-flight batches, exactly the
/// ModelSnapshot liveness rule).
class ArtifactModel {
 public:
  /// Algorithm 3 for one query; bitwise-equal to the source model's
  /// DuetModel::EstimateSelectivity under its published plan.
  double EstimateSelectivity(const query::Query& query) const;

  /// Batched estimation: core::EstimateSelectivities, as in
  /// DuetModel::EstimateSelectivityBatch.
  std::vector<double> EstimateSelectivityBatch(const std::vector<query::Query>& queries) const;

  /// The estimator adapter serving dispatches run on (const-thread-safe;
  /// non-const return mirrors the CardinalityEstimator interface).
  query::CardinalityEstimator& estimator() const { return *estimator_; }

  const data::Table& table() const { return table_; }
  /// Rows in the source table the model was trained on (the schema-only
  /// table() reports 0 rows; cardinality math needs this one).
  uint64_t source_rows() const { return source_rows_; }
  const core::EncodingOptions& encoding() const { return encoding_; }
  uint64_t fingerprint() const { return fingerprint_; }
  tensor::WeightBackend backend() const { return backend_; }
  const nn::InferencePlan& plan() const { return *plan_; }
  /// Bytes of the underlying file mapping (the zoo's eviction cost).
  uint64_t mapped_bytes() const { return map_.size(); }
  /// The mapped file itself, byte for byte (snapshot replication streams it).
  const char* mapped_data() const { return map_.data(); }

 private:
  friend ArtifactStatus LoadArtifact(const std::string&, const ArtifactLoadOptions&,
                                     std::shared_ptr<const ArtifactModel>*);

  ArtifactModel(MappedArtifact map, data::Table table, core::EncodingOptions encoding);

  MappedArtifact map_;
  data::Table table_;
  core::EncodingOptions encoding_;
  core::DuetInputEncoder encoder_;
  std::vector<tensor::BlockSpec> out_blocks_;
  std::shared_ptr<const nn::InferencePlan> plan_;
  uint64_t source_rows_ = 0;
  uint64_t fingerprint_ = 0;
  tensor::WeightBackend backend_ = tensor::WeightBackend::kDenseF32;
  std::unique_ptr<query::CardinalityEstimator> estimator_;
};

/// CardinalityEstimator adapter over a loaded artifact (the DuetEstimator
/// shape; backend/plan reconfiguration is a no-op — artifacts are frozen
/// at write time).
class ArtifactEstimator : public query::CardinalityEstimator {
 public:
  explicit ArtifactEstimator(const ArtifactModel& model) : model_(model) {}

  double EstimateSelectivity(const query::Query& query) override {
    return model_.EstimateSelectivity(query);
  }
  std::vector<double> EstimateSelectivityBatch(
      const std::vector<query::Query>& queries) override {
    return model_.EstimateSelectivityBatch(queries);
  }
  uint64_t PlanBytes() const override { return model_.plan().bytes(); }
  std::string name() const override { return "DuetArtifact"; }
  double SizeMB() const override {
    return static_cast<double>(model_.mapped_bytes()) / (1024.0 * 1024.0);
  }

 private:
  const ArtifactModel& model_;
};

}  // namespace duet::artifact

#endif  // DUET_ARTIFACT_ARTIFACT_H_
