// Shared test bed for the one serving path: model -> artifact -> zoo ->
// engine. Every suite that serves estimates goes through these helpers, so
// what the tests pin is exactly what a deployment serves.
#ifndef DUET_TESTS_SERVING_BED_H_
#define DUET_TESTS_SERVING_BED_H_

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>

#include "artifact/artifact.h"
#include "core/duet_model.h"
#include "gtest/gtest.h"
#include "serve/model_registry.h"
#include "serve/model_zoo.h"
#include "serve/serving_engine.h"
#include "tensor/packed_weights.h"

namespace duet::testbed {

/// A fresh scratch directory, removed with everything in it on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    static std::atomic<int> counter{0};
    path_ = (std::filesystem::temp_directory_path() /
             ("duet_" + tag + "_" + std::to_string(::getpid()) + "_" +
              std::to_string(counter.fetch_add(1))))
                .string();
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }
  std::string File(const std::string& name) const { return path_ + "/" + name; }

  /// Regular files currently in the directory.
  size_t CountFiles() const {
    size_t n = 0;
    for (const auto& entry : std::filesystem::directory_iterator(path_)) {
      n += entry.is_regular_file() ? 1 : 0;
    }
    return n;
  }

 private:
  std::string path_;
};

/// Writes `model` as an artifact compiled under `backend`; fails the test on
/// error. Returns `path` for chaining.
inline std::string WriteArtifactOrFail(const core::DuetModel& model, const std::string& path,
                                       tensor::WeightBackend backend) {
  const artifact::ArtifactStatus st = artifact::WriteArtifact(path, model, backend);
  EXPECT_TRUE(st.ok) << st.error;
  return path;
}

/// One model served the production way: written as an artifact under
/// `backend`, registered in a zoo under `key`, served by a zoo engine.
struct ZooServeBed {
  explicit ZooServeBed(const core::DuetModel& model, serve::ServingOptions options = {},
                       tensor::WeightBackend backend = tensor::WeightBackend::kDenseF32,
                       std::string model_key = "m")
      : dir("bed"),
        key(std::move(model_key)),
        path(WriteArtifactOrFail(model, dir.File(key + ".duet"), backend)),
        engine(zoo, options) {
    zoo.Register(key, path);
  }

  TempDir dir;
  std::string key;
  std::string path;
  serve::ModelZoo zoo;
  serve::ServingEngine engine;
};

/// The deployment loop in one object: a registry publishing versions of
/// `initial` into a zoo key that an engine serves.
struct RegistryBed {
  explicit RegistryBed(std::unique_ptr<core::DuetModel> initial,
                       serve::ServingOptions options = {},
                       serve::RegistryOptions registry_options = {},
                       std::string model_key = "m")
      : dir("registry"),
        key(std::move(model_key)),
        registry(std::move(initial), zoo, key, dir.path(), registry_options),
        engine(zoo, options) {}

  TempDir dir;
  std::string key;
  serve::ModelZoo zoo;
  serve::ModelRegistry registry;
  serve::ServingEngine engine;
};

}  // namespace duet::testbed

#endif  // DUET_TESTS_SERVING_BED_H_
