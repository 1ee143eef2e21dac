// Versioned model publication into the serving zoo.
//
// The paper's headline update claim (Sec. IV-A/IV-D: drift is handled by
// cheap fine-tuning, not retraining) only pays off if an update can reach
// production without taking the estimator offline. The registry is the
// publish half of that story: it owns the trainable source of the current
// model version and turns each accepted fine-tune into a new artifact that
// one serve::ModelZoo key serves. Serving never runs an in-memory model —
// the ServingEngine reads every key through the zoo — so a publish is the
// same hot swap a replica install performs (net/client.h):
//
//   write vN+1 -> validate (full-checksum load) -> Register(key, vN+1)
//     -> warm acquire -> unlink vN
//
// Every step that can fail (packing, plan compilation, the file write,
// validation) runs before Register, so a throw leaves the zoo serving the
// previous artifact and the registry unchanged; the update worker's
// retry/backoff (serve/update_worker.h) then retries the whole publish.
// In-flight batches keep their ZooPins — and with them the mapping of the
// unlinked file — until they drain. See docs/serving.md §4.
#ifndef DUET_SERVE_MODEL_REGISTRY_H_
#define DUET_SERVE_MODEL_REGISTRY_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "artifact/artifact.h"
#include "core/duet_model.h"
#include "serve/model_zoo.h"
#include "tensor/packed_weights.h"

namespace duet::serve {

/// One published model version: the trainable source model (the clone base
/// of the next update round) and the validated artifact written from it.
/// Immutable; shared as shared_ptr<const ModelSnapshot>.
class ModelSnapshot {
 public:
  ModelSnapshot(std::unique_ptr<core::DuetModel> model, std::string path,
                std::shared_ptr<const artifact::ArtifactModel> artifact);

  /// The artifact fingerprint: the id the zoo reports for every dispatch
  /// served on this version (ServingEngine::EstimateBatch's snapshot_id).
  uint64_t id() const { return artifact_->fingerprint(); }
  const core::DuetModel& model() const { return *model_; }
  /// The file the zoo key points at while this version is current. It is
  /// unlinked once superseded; artifact() keeps its mapping readable.
  const std::string& path() const { return path_; }
  /// The validated mapping of path(): bitwise what the zoo serves, and the
  /// bytes snapshot replication ships (net/server.h).
  const artifact::ArtifactModel& artifact() const { return *artifact_; }

 private:
  std::unique_ptr<core::DuetModel> model_;
  std::string path_;
  std::shared_ptr<const artifact::ArtifactModel> artifact_;
};

/// Registry knobs: the packed-weight backend every published artifact is
/// compiled under, so all versions of one key serve one configuration.
struct RegistryOptions {
  tensor::WeightBackend backend = tensor::WeightBackend::kDenseF32;
};

/// Cumulative registry counters plus point-in-time gauges.
struct RegistryStats {
  uint64_t published = 0;   ///< versions published (incl. the initial one)
  uint64_t current_id = 0;  ///< fingerprint of the current version
  /// Wall time of the last Publish: total (write + validate + register +
  /// warm acquire + unlink) and the zoo re-register alone — the only part
  /// concurrent dispatches can even observe.
  double last_publish_micros = 0.0;
  double last_swap_micros = 0.0;
};

/// Publishes model versions under one zoo key. Publish/CloneCurrent may be
/// called from any thread (publishers are serialized internally); Current()
/// is one atomic shared_ptr acquire-load.
class ModelRegistry {
 public:
  /// Publishes `initial` as the first version of `key` in `zoo`, writing
  /// artifacts named `<key>.v<N>.duet` under `artifact_dir` (which must
  /// exist). `zoo` must outlive the registry. The current artifact stays on
  /// disk after the registry is destroyed: the zoo key still points at it.
  ModelRegistry(std::unique_ptr<core::DuetModel> initial, ModelZoo& zoo, std::string key,
                std::string artifact_dir, RegistryOptions options = {});

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// The current version. Holding the returned pointer keeps its model and
  /// artifact mapping alive across later publishes.
  std::shared_ptr<const ModelSnapshot> Current() const;

  /// Writes `model` as a new artifact, validates it, re-registers the key
  /// onto it, acquires it once (so the first dispatch pays no cold load)
  /// and unlinks the superseded file. Throws on any failure before the
  /// re-register, leaving the zoo serving the previous artifact.
  std::shared_ptr<const ModelSnapshot> Publish(std::unique_ptr<core::DuetModel> model);

  /// Mutable deep copy of the current version's model — the first step of
  /// every update round (see core::CloneModel).
  std::unique_ptr<core::DuetModel> CloneCurrent() const;

  RegistryStats stats() const;
  const RegistryOptions& options() const { return options_; }

 private:
  ModelZoo& zoo_;
  const std::string key_;
  const std::string artifact_dir_;
  RegistryOptions options_;
  /// Swapped with std::atomic_exchange_explicit / read with
  /// std::atomic_load_explicit (the C++17 shared_ptr atomic access
  /// functions).
  std::shared_ptr<const ModelSnapshot> current_;
  std::mutex publish_mu_;      ///< serializes publishers, not readers
  uint64_t next_version_ = 1;  ///< guarded by publish_mu_
  mutable std::mutex stats_mu_;
  RegistryStats stats_;
};

}  // namespace duet::serve

#endif  // DUET_SERVE_MODEL_REGISTRY_H_
