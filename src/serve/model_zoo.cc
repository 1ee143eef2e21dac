#include "serve/model_zoo.h"

#include <atomic>
#include <utility>

#include "common/logging.h"
#include "common/timer.h"

namespace duet::serve {

/// One registered key. `model`, `bytes`, `last_used`, `pins`, `loads`,
/// `evictions`, `republishes`, `last_load_micros` are guarded by the zoo's
/// mu_; `load_mu`
/// serializes first-touch loads of this key only; `serves` is a relaxed
/// atomic so NoteServed stays off every lock.
struct ZooEntry {
  std::string key;
  std::string path;
  std::shared_ptr<const artifact::ArtifactModel> model;
  uint64_t bytes = 0;
  uint64_t last_used = 0;
  uint64_t pins = 0;
  uint64_t loads = 0;
  uint64_t evictions = 0;
  uint64_t republishes = 0;
  double last_load_micros = 0.0;
  std::atomic<uint64_t> serves{0};
  std::mutex load_mu;
};

ZooHandle::ZooHandle(ModelZoo* zoo, std::shared_ptr<ZooEntry> entry,
                     std::shared_ptr<const artifact::ArtifactModel> model)
    : zoo_(zoo), entry_(std::move(entry)), model_(std::move(model)) {}

ZooHandle::~ZooHandle() { zoo_->Release(entry_); }

const std::string& ZooHandle::key() const { return entry_->key; }

void ZooHandle::NoteServed(uint64_t queries) const {
  entry_->serves.fetch_add(queries, std::memory_order_relaxed);
}

ModelZoo::ModelZoo(ZooOptions options) : options_(options) {}

void ModelZoo::Register(const std::string& key, std::string path) {
  DUET_CHECK(!key.empty()) << "zoo keys must be non-empty";
  std::lock_guard<std::mutex> lock(mu_);
  std::shared_ptr<ZooEntry>& slot = entries_[key];
  if (slot == nullptr) {
    slot = std::make_shared<ZooEntry>();
    slot->key = key;
  } else {
    slot->republishes += 1;
    // Re-publish: drop the zoo's resident copy so the next acquire loads
    // the new artifact. Outstanding pins hold their own shared_ptr to the
    // superseded model, so in-flight batches finish on the mapping they
    // resolved.
    if (slot->model != nullptr) EvictLocked(*slot);
  }
  slot->path = std::move(path);
}

bool ModelZoo::Contains(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.count(key) != 0;
}

size_t ModelZoo::NumRegistered() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

artifact::ArtifactStatus ModelZoo::TryAcquire(const std::string& key, ZooPin* out) {
  if (out == nullptr) return artifact::ArtifactStatus::Fail("null pin passed to TryAcquire");
  std::shared_ptr<ZooEntry> entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      return artifact::ArtifactStatus::Fail("model key not registered: " + key);
    }
    entry = it->second;
    if (entry->model != nullptr) {
      *out = MakePinLocked(entry);
      return artifact::ArtifactStatus::Ok();
    }
  }

  // First touch (or post-eviction touch): load outside the zoo lock so
  // loads of different keys overlap; the per-entry mutex collapses
  // duplicate loads of the same key to one.
  std::lock_guard<std::mutex> load_lock(entry->load_mu);
  for (;;) {
    std::string path;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (entry->model != nullptr) {  // a racing acquire beat us to it
        *out = MakePinLocked(entry);
        return artifact::ArtifactStatus::Ok();
      }
      path = entry->path;
    }

    Timer timer;
    std::shared_ptr<const artifact::ArtifactModel> model;
    artifact::ArtifactLoadOptions load_options;
    load_options.verify_checksums = options_.verify_checksums;
    const artifact::ArtifactStatus st = artifact::LoadArtifact(path, load_options, &model);
    if (!st.ok) return st;  // zoo untouched: nothing resident, no counters moved
    const double load_micros = timer.Micros();

    std::lock_guard<std::mutex> lock(mu_);
    if (entry->path != path) continue;  // re-registered mid-load: redo with the new path
    entry->model = std::move(model);
    entry->bytes = entry->model->mapped_bytes();
    entry->loads += 1;
    entry->last_load_micros = load_micros;
    resident_bytes_ += entry->bytes;
    counters_.loads += 1;
    counters_.last_load_micros = load_micros;
    counters_.total_load_micros += load_micros;
    history_.push_back(entry->model);
    *out = MakePinLocked(entry);
    // The new resident may push the zoo over budget; evict colder models
    // (never this one — it is pinned) before anyone can observe the excess.
    EnforceBudgetLocked();
    return artifact::ArtifactStatus::Ok();
  }
}

ZooPin ModelZoo::Acquire(const std::string& key) {
  ZooPin pin;
  const artifact::ArtifactStatus st = TryAcquire(key, &pin);
  DUET_CHECK(st.ok) << "zoo acquire failed: " << st.error;
  return pin;
}

bool ModelZoo::Evict(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  ZooEntry& entry = *it->second;
  if (entry.model == nullptr || entry.pins > 0) return false;
  EvictLocked(entry);
  return true;
}

void ModelZoo::EvictAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, entry] : entries_) {
    if (entry->model != nullptr && entry->pins == 0) EvictLocked(*entry);
  }
}

uint64_t ModelZoo::ResidentBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resident_bytes_;
}

uint64_t ModelZoo::ResidentModels() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const auto& [key, entry] : entries_) n += entry->model != nullptr ? 1 : 0;
  return n;
}

uint64_t ModelZoo::AliveSnapshots() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t alive = 0;
  // Prune expired entries while counting. Skip the self-assignment when
  // nothing has been pruned yet: moving a weak_ptr onto itself empties it.
  auto keep = history_.begin();
  for (auto it = history_.begin(); it != history_.end(); ++it) {
    if (it->expired()) continue;
    ++alive;
    if (keep != it) *keep = std::move(*it);
    ++keep;
  }
  history_.erase(keep, history_.end());
  return alive;
}

ZooStats ModelZoo::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ZooStats s = counters_;
  s.registered = entries_.size();
  s.resident_bytes = resident_bytes_;
  s.resident = 0;
  s.pinned = 0;
  s.serves = 0;
  for (const auto& [key, entry] : entries_) {
    if (entry->model != nullptr) ++s.resident;
    if (entry->pins > 0) ++s.pinned;
    s.serves += entry->serves.load(std::memory_order_relaxed);
  }
  return s;
}

bool ModelZoo::ModelStats(const std::string& key, ZooModelStats* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end() || out == nullptr) return false;
  const ZooEntry& entry = *it->second;
  out->resident = entry.model != nullptr;
  out->bytes = entry.bytes;
  out->pins = entry.pins;
  out->loads = entry.loads;
  out->evictions = entry.evictions;
  out->serves = entry.serves.load(std::memory_order_relaxed);
  out->republishes = entry.republishes;
  out->last_load_micros = entry.last_load_micros;
  return true;
}

ZooPin ModelZoo::MakePinLocked(const std::shared_ptr<ZooEntry>& entry) {
  entry->pins += 1;
  entry->last_used = ++tick_;
  return ZooPin(new ZooHandle(this, entry, entry->model));
}

void ModelZoo::Release(const std::shared_ptr<ZooEntry>& entry) {
  std::lock_guard<std::mutex> lock(mu_);
  DUET_CHECK_GT(entry->pins, 0u);
  entry->pins -= 1;
  // A dropped pin may unblock eviction the budget has been waiting for.
  if (entry->pins == 0) EnforceBudgetLocked();
}

void ModelZoo::EvictLocked(ZooEntry& entry) {
  resident_bytes_ -= entry.bytes;
  entry.model.reset();  // unpinned => this was the last strong ref: unmaps now
  entry.bytes = 0;
  entry.evictions += 1;
  counters_.evictions += 1;
}

void ModelZoo::EnforceBudgetLocked() {
  if (options_.memory_budget_bytes == 0) return;
  while (resident_bytes_ > options_.memory_budget_bytes) {
    ZooEntry* victim = nullptr;
    for (auto& [key, entry] : entries_) {
      if (entry->model == nullptr || entry->pins > 0) continue;
      const bool colder =
          victim == nullptr || entry->last_used < victim->last_used ||
          (entry->last_used == victim->last_used && entry->bytes > victim->bytes);
      if (colder) victim = entry.get();
    }
    if (victim == nullptr) return;  // only pinned models left: wait for pins
    EvictLocked(*victim);
  }
}

}  // namespace duet::serve
