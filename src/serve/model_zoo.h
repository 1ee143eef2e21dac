// Multi-model zoo: string-keyed registry of snapshot artifacts with lazy
// first-touch loading and cost-aware LRU eviction under a global memory
// budget.
//
// The zoo is the one place served models live: the ServingEngine resolves
// every dispatch through it, and serve::ModelRegistry publishes fine-tuned
// versions into it by writing a new artifact and re-registering the key.
// Registration is metadata-only (key -> artifact path) — nothing
// is mapped until the first acquire touches the key, and the artifact
// format makes that touch cheap: one mmap + pointer fixup, no parse, no
// repack (artifact/artifact.h). Under a memory budget the zoo evicts the
// least-recently-used unpinned model (ties broken toward the larger
// mapping — reclaim the most bytes for the same recency) until resident
// bytes fit again.
//
// Pinning: every acquire returns a ZooPin that pins the model for the
// pin's lifetime. Pinned models are NEVER evicted — an in-flight batch
// always finishes on the mapping it resolved — so the budget is a hard
// bound on *evictable* state: resident bytes exceed it only if the pinned
// working set alone exceeds it (then nothing can be evicted and the zoo
// waits for pins to drop). Eviction drops the zoo's strong reference;
// because unpinned means no outstanding handles, the mapping unmaps
// immediately, and a later acquire transparently reloads from the artifact
// path with bitwise-identical estimates (the artifact is the model).
//
// Re-registering a live key is a publish: the path is swapped, the key's
// `republishes` counter moves, and the resident copy is dropped from the
// zoo (existing pins keep the superseded mapping alive until they drain);
// the next acquire loads the new artifact.
//
// Thread-safety: all members are safe to call concurrently. One mutex
// guards the registry state; per-entry load mutexes serialize duplicate
// first-touch loads of the same key without blocking loads of other keys;
// estimation through a held pin takes no zoo locks at all.
#ifndef DUET_SERVE_MODEL_ZOO_H_
#define DUET_SERVE_MODEL_ZOO_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "artifact/artifact.h"
#include "query/estimator.h"

namespace duet::serve {

class ModelZoo;
struct ZooEntry;

/// Zoo knobs.
struct ZooOptions {
  /// Global budget over resident artifact mappings; 0 = unbounded (nothing
  /// is ever evicted for space).
  uint64_t memory_budget_bytes = 0;
  /// Verify pack-section checksums on every load (artifact ArtifactLoadOptions;
  /// header/table/meta/plan checksums are always verified).
  bool verify_checksums = true;
};

/// Per-model gauges and counters (ZooStats aggregates across models).
struct ZooModelStats {
  bool resident = false;
  uint64_t bytes = 0;       ///< mapped bytes when resident, else 0
  uint64_t pins = 0;        ///< outstanding ZooPins
  uint64_t loads = 0;       ///< times this key was (re)loaded
  uint64_t evictions = 0;   ///< times this key was evicted / superseded
  uint64_t serves = 0;      ///< queries served through this key's pins
  /// Register calls that replaced this key's existing registration — the
  /// hot swaps traffic on this key has been offered.
  uint64_t republishes = 0;
  double last_load_micros = 0.0;  ///< wall time of the most recent load
};

/// Zoo-wide counters plus point-in-time gauges.
struct ZooStats {
  uint64_t registered = 0;
  uint64_t resident = 0;
  uint64_t resident_bytes = 0;
  uint64_t pinned = 0;  ///< models with at least one outstanding pin
  uint64_t loads = 0;
  uint64_t evictions = 0;
  uint64_t serves = 0;
  double last_load_micros = 0.0;
  double total_load_micros = 0.0;
};

/// A pinned acquisition of one model: keeps the mapped artifact alive and
/// the model unevictable until the last ZooPin copy is released. Cheap to
/// copy (shared_ptr semantics via ZooPin); estimation through it is
/// lock-free with respect to the zoo.
class ZooHandle {
 public:
  ~ZooHandle();
  ZooHandle(const ZooHandle&) = delete;
  ZooHandle& operator=(const ZooHandle&) = delete;

  const artifact::ArtifactModel& model() const { return *model_; }
  query::CardinalityEstimator& estimator() const { return model_->estimator(); }
  const std::string& key() const;
  /// Artifact fingerprint — the zoo's analogue of a snapshot id.
  uint64_t fingerprint() const { return model_->fingerprint(); }

  /// Accounts `queries` served through this pin (per-model ServingStats).
  void NoteServed(uint64_t queries) const;

 private:
  friend class ModelZoo;
  ZooHandle(ModelZoo* zoo, std::shared_ptr<ZooEntry> entry,
            std::shared_ptr<const artifact::ArtifactModel> model);

  ModelZoo* zoo_;
  std::shared_ptr<ZooEntry> entry_;
  std::shared_ptr<const artifact::ArtifactModel> model_;
};

/// Shared pin handle: all copies refer to one pinned acquisition; the pin
/// drops when the last copy dies.
using ZooPin = std::shared_ptr<const ZooHandle>;

/// The zoo itself. See the file comment for the full contract.
class ModelZoo {
 public:
  explicit ModelZoo(ZooOptions options = {});
  ~ModelZoo() = default;
  ModelZoo(const ModelZoo&) = delete;
  ModelZoo& operator=(const ModelZoo&) = delete;

  /// Registers (or re-publishes) `key` -> artifact at `path`. Metadata only:
  /// no file access until the first acquire. Re-registering a key counts a
  /// republish and drops its resident copy (outstanding pins keep serving
  /// the superseded mapping).
  void Register(const std::string& key, std::string path);

  bool Contains(const std::string& key) const;
  size_t NumRegistered() const;

  /// Acquires a pinned handle for `key`, loading (mmap + validate) on first
  /// touch. On any failure — unknown key, missing/corrupt artifact — returns
  /// the clean error and leaves the zoo untouched: nothing resident, no
  /// counters moved, *out unmodified.
  artifact::ArtifactStatus TryAcquire(const std::string& key, ZooPin* out);

  /// TryAcquire that CHECK-fails on error (for callers that registered the
  /// artifact themselves and treat failure as a bug).
  ZooPin Acquire(const std::string& key);

  /// Evicts `key` if resident and unpinned. Returns false (and does
  /// nothing) when the key is unknown, not resident, or pinned.
  bool Evict(const std::string& key);

  /// Evicts every resident unpinned model.
  void EvictAll();

  uint64_t ResidentBytes() const;
  uint64_t ResidentModels() const;

  /// Loaded artifact models still alive anywhere (resident in the zoo or
  /// held by outstanding/superseded pins) — the leak detector the teardown
  /// and publish-churn tests assert on.
  uint64_t AliveSnapshots() const;

  ZooStats stats() const;
  /// Per-model stats; false if `key` is unknown.
  bool ModelStats(const std::string& key, ZooModelStats* out) const;

  const ZooOptions& options() const { return options_; }

 private:
  friend class ZooHandle;

  /// Pins `entry` (must be resident; caller holds mu_) and wraps a handle.
  ZooPin MakePinLocked(const std::shared_ptr<ZooEntry>& entry);
  /// Drops one pin (ZooHandle destruction) and re-enforces the budget.
  void Release(const std::shared_ptr<ZooEntry>& entry);
  /// Drops `entry`'s resident model; caller holds mu_.
  void EvictLocked(ZooEntry& entry);
  /// Evicts LRU unpinned models until resident bytes fit the budget (or
  /// only pinned models remain); caller holds mu_.
  void EnforceBudgetLocked();

  ZooOptions options_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<ZooEntry>> entries_;
  uint64_t tick_ = 0;  ///< LRU clock: bumped on every acquire
  uint64_t resident_bytes_ = 0;
  ZooStats counters_;  ///< loads/evictions/serves + load timings (under mu_)
  /// Weak view of every model ever loaded, for AliveSnapshots().
  mutable std::vector<std::weak_ptr<const artifact::ArtifactModel>> history_;
};

}  // namespace duet::serve

#endif  // DUET_SERVE_MODEL_ZOO_H_
