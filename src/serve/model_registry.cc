#include "serve/model_registry.h"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "common/logging.h"
#include "common/timer.h"
#include "core/finetune.h"
#include "serve/fault_injector.h"

namespace duet::serve {

ModelSnapshot::ModelSnapshot(std::unique_ptr<core::DuetModel> model, std::string path,
                             std::shared_ptr<const artifact::ArtifactModel> artifact)
    : model_(std::move(model)), path_(std::move(path)), artifact_(std::move(artifact)) {
  DUET_CHECK(model_ != nullptr);
  DUET_CHECK(artifact_ != nullptr);
}

ModelRegistry::ModelRegistry(std::unique_ptr<core::DuetModel> initial, ModelZoo& zoo,
                             std::string key, std::string artifact_dir,
                             RegistryOptions options)
    : zoo_(zoo), key_(std::move(key)), artifact_dir_(std::move(artifact_dir)),
      options_(options) {
  DUET_CHECK(!key_.empty()) << "registry keys must be non-empty";
  Publish(std::move(initial));
}

std::shared_ptr<const ModelSnapshot> ModelRegistry::Current() const {
  return std::atomic_load_explicit(&current_, std::memory_order_acquire);
}

std::shared_ptr<const ModelSnapshot> ModelRegistry::Publish(
    std::unique_ptr<core::DuetModel> model) {
  DUET_CHECK(model != nullptr);
  std::lock_guard<std::mutex> publish_lock(publish_mu_);
  Timer publish_timer;

  // Fault point: publication can fail for real (packing or plan
  // compilation throws, the disk fills). Everything that can throw runs
  // before the key is re-registered, so a failed Publish leaves the zoo
  // serving the previous artifact — callers (the update worker) retry with
  // backoff.
  FaultInjector::MaybeThrow(FaultPoint::kPublish, "injected publish failure");

  // A fresh versioned name: the file the zoo serves is never overwritten.
  const std::string path =
      artifact_dir_ + "/" + key_ + ".v" + std::to_string(next_version_++) + ".duet";
  std::shared_ptr<const artifact::ArtifactModel> validated;
  try {
    // Packs and compiles under the registry backend (kPackWeights and
    // kPlanCompile fire here), then writes (kCheckpointWrite tears it).
    artifact::ArtifactStatus st = artifact::WriteArtifact(path, *model, options_.backend);
    // Full-checksum load before the key may point at the file: a torn or
    // corrupt write fails here, never on a serving dispatch.
    if (st.ok) st = artifact::LoadArtifact(path, artifact::ArtifactLoadOptions{}, &validated);
    if (!st.ok) throw std::runtime_error("publishing '" + key_ + "' failed: " + st.error);
  } catch (...) {
    std::remove(path.c_str());
    throw;
  }
  auto snapshot =
      std::make_shared<const ModelSnapshot>(std::move(model), path, std::move(validated));

  Timer swap_timer;
  zoo_.Register(key_, path);
  const std::shared_ptr<const ModelSnapshot> previous =
      std::atomic_exchange_explicit(&current_, snapshot, std::memory_order_acq_rel);
  const double swap_micros = swap_timer.Micros();

  // Warm acquire on the publisher's thread, so the first dispatch after the
  // swap is a resident hit. Best effort: a load failure here degrades
  // dispatches to the fallback like any unloadable key.
  {
    ZooPin warm;
    zoo_.TryAcquire(key_, &warm);
  }
  // Outstanding pins (and `previous`) keep their mappings; only the name
  // goes away.
  if (previous != nullptr) std::remove(previous->path().c_str());

  std::lock_guard<std::mutex> stats_lock(stats_mu_);
  ++stats_.published;
  stats_.current_id = snapshot->id();
  stats_.last_publish_micros = publish_timer.Micros();
  stats_.last_swap_micros = swap_micros;
  return snapshot;
}

std::unique_ptr<core::DuetModel> ModelRegistry::CloneCurrent() const {
  const std::shared_ptr<const ModelSnapshot> snapshot = Current();
  return core::CloneModel(snapshot->model());
}

RegistryStats ModelRegistry::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

}  // namespace duet::serve
