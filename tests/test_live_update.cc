// Online-update subsystem: a registry publish writes a new versioned
// artifact, validates it and re-registers the zoo key, and every dispatched
// batch stays bitwise isolated on one version under concurrent publish
// churn (no quiesce anywhere); a superseded file is unlinked while pins on
// it keep serving; a poisoned fine-tune batch must fail the validation gate
// and roll back; and publish churn must not leak — after traffic drains the
// zoo holds only the current model and the directory only its file. Runs
// under ASan in CI like the rest of the suite.
#include <atomic>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "core/duet_model.h"
#include "core/finetune.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "gtest/gtest.h"
#include "query/workload.h"
#include "serve/model_registry.h"
#include "serve/serving_engine.h"
#include "serve/update_worker.h"
#include "serving_bed.h"
#include "tensor/tensor.h"

namespace duet {
namespace {

using query::Query;
using testbed::RegistryBed;

data::Table SmallTable() { return data::CensusLike(600, 11); }

core::DuetModelOptions SmallModelOptions() {
  core::DuetModelOptions opt;
  opt.hidden_sizes = {24, 24};
  opt.residual = true;
  return opt;
}

std::vector<Query> MakeQueries(const data::Table& table, int n, uint64_t seed = 31) {
  query::WorkloadSpec spec;
  spec.seed = seed;
  query::WorkloadGenerator gen(table, spec);
  Rng rng(seed);
  std::vector<Query> queries;
  queries.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) queries.push_back(gen.GenerateQuery(rng));
  return queries;
}

/// Deterministically nudges every parameter so two perturbed clones (and
/// their estimates) differ; holds the mutation guard the contract demands.
void PerturbParameters(core::DuetModel& model, int salt) {
  tensor::ParameterMutationGuard mutation;
  for (const tensor::Tensor& p : model.parameters()) {
    tensor::Tensor t = p;  // shared handle
    float* d = t.data();
    for (int64_t i = 0; i < t.numel(); ++i) {
      d[i] += 0.01f * static_cast<float>(salt) *
              std::sin(static_cast<float>(i % 17) + static_cast<float>(salt));
    }
  }
}

TEST(ModelRegistryTest, PublishWritesVersionedArtifactAndReregistersKey) {
  const data::Table t = SmallTable();
  RegistryBed bed(std::make_unique<core::DuetModel>(t, SmallModelOptions()));
  serve::ModelRegistry& registry = bed.registry;
  const auto first = registry.Current();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->path(), bed.dir.File("m.v1.duet"));
  EXPECT_EQ(registry.stats().published, 1u);
  EXPECT_EQ(registry.stats().current_id, first->id());
  // The snapshot id is the fingerprint of the artifact the zoo serves.
  EXPECT_EQ(bed.zoo.Acquire(bed.key)->fingerprint(), first->id());

  auto clone = registry.CloneCurrent();
  PerturbParameters(*clone, 3);
  const auto second = registry.Publish(std::move(clone));
  EXPECT_EQ(second->path(), bed.dir.File("m.v2.duet"));
  EXPECT_NE(second->id(), first->id());
  EXPECT_EQ(registry.Current().get(), second.get());
  EXPECT_EQ(registry.stats().published, 2u);
  EXPECT_EQ(bed.zoo.Acquire(bed.key)->fingerprint(), second->id());
  // The superseded file is gone; only the served version stays on disk.
  EXPECT_FALSE(std::filesystem::exists(first->path()));
  EXPECT_TRUE(std::filesystem::exists(second->path()));
  EXPECT_EQ(bed.dir.CountFiles(), 1u);
  serve::ZooModelStats ms;
  ASSERT_TRUE(bed.zoo.ModelStats(bed.key, &ms));
  EXPECT_EQ(ms.republishes, 1u);
  EXPECT_TRUE(ms.resident) << "publish warms the new artifact before returning";
}

// Unlinking the superseded file must not disturb a batch still pinned on
// it: the pin keeps its mapping and serves the old version bitwise, while
// new dispatches already serve the new one.
TEST(ModelRegistryTest, SupersededFileUnlinkedWhileOldPinServesBitwise) {
  const data::Table t = SmallTable();
  RegistryBed bed(std::make_unique<core::DuetModel>(t, SmallModelOptions()));
  const std::vector<Query> queries = MakeQueries(t, 24);
  const auto v1 = bed.registry.Current();
  const std::vector<double> v1_answers = v1->artifact().EstimateSelectivityBatch(queries);

  const serve::ZooPin old_pin = bed.zoo.Acquire(bed.key);
  auto clone = bed.registry.CloneCurrent();
  PerturbParameters(*clone, 4);
  const auto v2 = bed.registry.Publish(std::move(clone));
  ASSERT_FALSE(std::filesystem::exists(v1->path()));

  EXPECT_EQ(old_pin->fingerprint(), v1->id());
  EXPECT_EQ(old_pin->estimator().EstimateSelectivityBatch(queries), v1_answers);
  uint64_t id = 0;
  const std::vector<double> served = bed.engine.EstimateBatch(bed.key, queries, &id);
  EXPECT_EQ(id, v2->id());
  EXPECT_EQ(served, v2->artifact().EstimateSelectivityBatch(queries));
  EXPECT_NE(served, v1_answers);
}

TEST(ModelRegistryTest, CloneIsBitwiseIdenticalButIndependent) {
  const data::Table t = SmallTable();
  core::DuetModel model(t, SmallModelOptions());
  const std::vector<Query> queries = MakeQueries(t, 24);
  const std::vector<double> original = model.EstimateSelectivityBatch(queries);

  auto clone = core::CloneModel(model);
  EXPECT_EQ(clone->EstimateSelectivityBatch(queries), original);

  // Training the clone must not disturb the original's estimates.
  PerturbParameters(*clone, 7);
  EXPECT_NE(clone->EstimateSelectivityBatch(queries), original);
  EXPECT_EQ(model.EstimateSelectivityBatch(queries), original);
}

TEST(LiveUpdateTest, HotSwapServesNewSnapshotWithoutQuiesce) {
  const data::Table t = SmallTable();
  serve::ServingOptions sopt;
  sopt.num_workers = 2;
  sopt.min_shard = 4;
  RegistryBed bed(std::make_unique<core::DuetModel>(t, SmallModelOptions()), sopt);
  serve::ModelRegistry& registry = bed.registry;
  const std::vector<Query> queries = MakeQueries(t, 30);

  uint64_t id_before = 0;
  const std::vector<double> before = bed.engine.EstimateBatch(bed.key, queries, &id_before);
  EXPECT_EQ(id_before, registry.Current()->id());
  // Sharded serving equals the single-thread path over the same artifact.
  EXPECT_EQ(before, registry.Current()->artifact().EstimateSelectivityBatch(queries));

  auto clone = registry.CloneCurrent();
  PerturbParameters(*clone, 5);
  registry.Publish(std::move(clone));

  uint64_t id_after = 0;
  const std::vector<double> after = bed.engine.EstimateBatch(bed.key, queries, &id_after);
  EXPECT_NE(id_after, id_before);
  EXPECT_EQ(id_after, registry.Current()->id());
  EXPECT_NE(after, before) << "dispatch after publish still served the old snapshot";
  EXPECT_EQ(after, registry.Current()->artifact().EstimateSelectivityBatch(queries));
  serve::ZooModelStats ms;
  ASSERT_TRUE(bed.zoo.ModelStats(bed.key, &ms));
  EXPECT_EQ(ms.republishes, 1u);
}

// The tentpole invariant: under repeated concurrent publishes, every batch
// a client dispatches is bitwise equal to what the snapshot it started on
// would produce single-threaded — no torn batches, no mixing, no locks.
TEST(LiveUpdateTest, SnapshotIsolationUnderConcurrentPublishChurn) {
  const data::Table t = SmallTable();
  const std::vector<Query> queries = MakeQueries(t, 48);
  constexpr int kPublishes = 6;

  serve::ServingOptions sopt;
  sopt.num_workers = 2;
  sopt.min_shard = 8;
  RegistryBed bed(std::make_unique<core::DuetModel>(t, SmallModelOptions()), sopt);
  serve::ModelRegistry& registry = bed.registry;

  // Pre-build every future snapshot's model and its single-thread reference
  // so serving threads can verify against ground truth computed outside the
  // race.
  std::vector<std::unique_ptr<core::DuetModel>> models;
  std::vector<std::vector<double>> refs;  // refs[i] for models[i]
  for (int i = 0; i < kPublishes; ++i) {
    auto m = registry.CloneCurrent();
    PerturbParameters(*m, i + 1);
    refs.push_back(m->EstimateSelectivityBatch(queries));
    models.push_back(std::move(m));
  }

  // id -> reference index; the initial snapshot gets its own reference.
  std::mutex map_mu;
  std::map<uint64_t, int> id_to_ref;
  const int kInitialRef = kPublishes;
  refs.push_back(registry.Current()->artifact().EstimateSelectivityBatch(queries));
  id_to_ref[registry.Current()->id()] = kInitialRef;

  std::atomic<bool> failed{false};
  auto serve_loop = [&] {
    for (int iter = 0; iter < 40 && !failed.load(); ++iter) {
      uint64_t id = 0;
      const std::vector<double> got = bed.engine.EstimateBatch(bed.key, queries, &id);
      int ref_index = -1;
      // The publisher records the id right after Publish returns; a reader
      // can observe the snapshot a moment earlier, so wait for the entry.
      for (int spin = 0; spin < 10000 && ref_index < 0; ++spin) {
        {
          std::lock_guard<std::mutex> lock(map_mu);
          auto it = id_to_ref.find(id);
          if (it != id_to_ref.end()) ref_index = it->second;
        }
        if (ref_index < 0) std::this_thread::yield();
      }
      ASSERT_GE(ref_index, 0) << "snapshot id " << id << " never registered";
      const std::vector<double>& expected = refs[static_cast<size_t>(ref_index)];
      ASSERT_EQ(got.size(), expected.size());
      for (size_t i = 0; i < got.size(); ++i) {
        if (got[i] != expected[i]) {
          failed.store(true);
          FAIL() << "batch started on snapshot " << id << " diverged at query " << i
                 << ": got " << got[i] << " want " << expected[i];
        }
      }
    }
  };

  std::thread client_a(serve_loop);
  std::thread client_b(serve_loop);
  for (int i = 0; i < kPublishes; ++i) {
    const auto snap = registry.Publish(std::move(models[static_cast<size_t>(i)]));
    {
      std::lock_guard<std::mutex> lock(map_mu);
      id_to_ref[snap->id()] = i;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  client_a.join();
  client_b.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(registry.stats().published, static_cast<uint64_t>(kPublishes) + 1);
}

// Async micro-batched traffic during churn: every Future's value must match
// one published snapshot's reference for that query (one snapshot per
// micro-batch; no torn values).
TEST(LiveUpdateTest, AsyncSubmitDuringChurnMatchesSomeSnapshot) {
  const data::Table t = SmallTable();
  const std::vector<Query> queries = MakeQueries(t, 32);
  constexpr int kPublishes = 4;

  serve::ServingOptions sopt;
  sopt.num_workers = 2;
  sopt.max_batch = 8;
  sopt.max_wait_us = 100;
  RegistryBed bed(std::make_unique<core::DuetModel>(t, SmallModelOptions()), sopt);
  serve::ModelRegistry& registry = bed.registry;
  std::vector<std::unique_ptr<core::DuetModel>> models;
  std::vector<std::vector<double>> refs;
  refs.push_back(registry.Current()->artifact().EstimateSelectivityBatch(queries));
  for (int i = 0; i < kPublishes; ++i) {
    auto m = registry.CloneCurrent();
    PerturbParameters(*m, 11 + i);
    refs.push_back(m->EstimateSelectivityBatch(queries));
    models.push_back(std::move(m));
  }

  std::vector<serve::ServingEngine::Future> futures;
  std::thread publisher([&] {
    for (auto& m : models) {
      registry.Publish(std::move(m));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (int round = 0; round < 6; ++round) {
    for (const Query& q : queries) futures.push_back(bed.engine.Submit(bed.key, q));
  }
  publisher.join();
  for (size_t f = 0; f < futures.size(); ++f) {
    const double got = futures[f].Wait();
    const size_t qi = f % queries.size();
    bool matches_some_snapshot = false;
    for (const auto& ref : refs) {
      if (got == ref[qi]) {
        matches_some_snapshot = true;
        break;
      }
    }
    EXPECT_TRUE(matches_some_snapshot)
        << "future " << f << " returned " << got
        << ", which no published snapshot would produce for query " << qi;
  }
}

// Gate test: feedback whose tuning slice is poisoned (labels claim every
// query matches the whole table) but whose holdout slice is honest must be
// rolled back — the candidate regresses on data it never trained on — and
// serving must keep the old snapshot, bitwise.
TEST(LiveUpdateTest, RollbackOnPoisonedFineTuneBatch) {
  const data::Table t = SmallTable();
  auto model = std::make_unique<core::DuetModel>(t, SmallModelOptions());
  {  // A briefly trained model so the baseline holdout error is sane.
    core::TrainOptions topt;
    topt.epochs = 2;
    topt.batch_size = 128;
    core::DuetTrainer(*model, topt).Train();
  }
  RegistryBed bed(std::move(model));
  serve::ModelRegistry& registry = bed.registry;
  const uint64_t id_before = registry.Current()->id();
  const std::vector<Query> probe = MakeQueries(t, 20);
  const std::vector<double> before = bed.engine.EstimateBatch(bed.key, probe);

  query::WorkloadSpec spec;
  spec.num_queries = 64;
  spec.seed = 77;
  const query::Workload wl = query::WorkloadGenerator(t, spec).Generate();

  serve::UpdateWorkerOptions wopt;
  wopt.min_feedback = 32;
  wopt.holdout_every = 4;
  wopt.update.max_regression = 1.05;
  wopt.update.finetune.qerror_threshold = 1.01;  // collect every poisoned pair
  wopt.update.finetune.epochs = 4;
  wopt.update.finetune.learning_rate = 1e-2f;  // hard poison push
  wopt.update.finetune.lambda = 4.0f;
  serve::UpdateWorker worker(registry, wopt);

  // Every 4th pair (the holdout split) keeps its true label; the tuning
  // pairs lie: "this query matched every row".
  for (size_t i = 0; i < wl.size(); ++i) {
    const bool is_holdout = i % 4 == 3;
    worker.AddFeedback(wl[i].query,
                       is_holdout ? static_cast<double>(wl[i].cardinality)
                                  : static_cast<double>(t.num_rows()));
  }
  ASSERT_TRUE(worker.RunOnce());

  const serve::UpdateWorkerStats stats = worker.stats();
  EXPECT_EQ(stats.rounds, 1u);
  EXPECT_EQ(stats.published, 0u);
  EXPECT_EQ(stats.rolled_back, 1u)
      << "holdout before=" << stats.last_holdout_before
      << " after=" << stats.last_holdout_after;
  EXPECT_GT(stats.last_holdout_after,
            stats.last_holdout_before * wopt.update.max_regression);
  // The poisoned candidate never reached serving.
  EXPECT_EQ(registry.Current()->id(), id_before);
  uint64_t served_id = 0;
  EXPECT_EQ(bed.engine.EstimateBatch(bed.key, probe, &served_id), before);
  EXPECT_EQ(served_id, id_before);
}

// Honest feedback on an untrained model must clear the gate and hot-swap a
// better snapshot in.
TEST(LiveUpdateTest, WorkerPublishesWhenFeedbackImproves) {
  const data::Table t = SmallTable();
  RegistryBed bed(std::make_unique<core::DuetModel>(t, SmallModelOptions()));
  serve::ModelRegistry& registry = bed.registry;
  const uint64_t id_before = registry.Current()->id();

  query::WorkloadSpec spec;
  spec.num_queries = 64;
  spec.seed = 78;
  const query::Workload wl = query::WorkloadGenerator(t, spec).Generate();

  serve::UpdateWorkerOptions wopt;
  wopt.min_feedback = 32;
  wopt.update.finetune.qerror_threshold = 1.5;
  wopt.update.finetune.epochs = 2;
  serve::UpdateWorker worker(registry, wopt);
  for (const auto& lq : wl) {
    worker.AddFeedback(lq.query, static_cast<double>(lq.cardinality));
  }
  ASSERT_TRUE(worker.RunOnce());

  const serve::UpdateWorkerStats stats = worker.stats();
  EXPECT_EQ(stats.published, 1u) << "holdout before=" << stats.last_holdout_before
                                 << " after=" << stats.last_holdout_after;
  EXPECT_LE(stats.last_holdout_after,
            stats.last_holdout_before * wopt.update.max_regression);
  EXPECT_NE(registry.Current()->id(), id_before);
  uint64_t served_id = 0;
  bed.engine.EstimateBatch(bed.key, MakeQueries(t, 4), &served_id);
  EXPECT_EQ(served_id, registry.Current()->id()) << "the zoo key serves the published version";
  // Clone accounting: a publishing round peaks at candidate + publish clone
  // — exactly 2x the model's parameter bytes with the direct-copy
  // CloneModel (the old serialize/deserialize path added a transient
  // serialized image on top).
  const uint64_t model_bytes =
      static_cast<uint64_t>(registry.Current()->model().NumParams()) * sizeof(float);
  EXPECT_EQ(stats.clone_peak_bytes, 2 * model_bytes);
}

TEST(LiveUpdateTest, OverflowedFeedbackIsDroppedOldestFirstAndCounted) {
  const data::Table t = SmallTable();
  RegistryBed bed(std::make_unique<core::DuetModel>(t, SmallModelOptions()));
  serve::ModelRegistry& registry = bed.registry;

  serve::UpdateWorkerOptions wopt;
  wopt.min_feedback = 8;
  wopt.max_buffer = 8;  // tiny cap: everything past 8 evicts the oldest
  serve::UpdateWorker worker(registry, wopt);

  query::WorkloadSpec spec;
  spec.num_queries = 12;
  spec.seed = 91;
  const query::Workload wl = query::WorkloadGenerator(t, spec).Generate();
  for (const auto& lq : wl) {
    worker.AddFeedback(lq.query, static_cast<double>(lq.cardinality));
  }

  const serve::UpdateWorkerStats stats = worker.stats();
  EXPECT_EQ(stats.feedback_received, 12u);
  EXPECT_EQ(stats.feedback_dropped, 4u);  // 12 submitted into an 8-slot buffer
  EXPECT_EQ(worker.pending_feedback(), 8);
}

// Churn must not leak: once traffic drains, the zoo holds only the current
// model (superseded mappings die with their last pin) and the artifact
// directory only the current file (superseded files are unlinked).
TEST(LiveUpdateTest, NoLeakedSnapshotsAfterChurn) {
  const data::Table t = SmallTable();
  serve::ServingOptions sopt;
  sopt.num_workers = 2;
  sopt.min_shard = 8;
  RegistryBed bed(std::make_unique<core::DuetModel>(t, SmallModelOptions()), sopt);
  serve::ModelRegistry& registry = bed.registry;
  const std::vector<Query> queries = MakeQueries(t, 24);
  constexpr int kPublishes = 8;

  std::thread client([&] {
    for (int i = 0; i < 60; ++i) bed.engine.EstimateBatch(bed.key, queries);
  });
  for (int i = 0; i < kPublishes; ++i) {
    auto clone = registry.CloneCurrent();
    PerturbParameters(*clone, 20 + i);
    registry.Publish(std::move(clone));  // returned handle dropped at once
  }
  client.join();

  EXPECT_EQ(bed.zoo.AliveSnapshots(), 1u)
      << "superseded models still mapped after traffic drained";
  EXPECT_EQ(bed.dir.CountFiles(), 1u) << "superseded artifact files left on disk";
  EXPECT_EQ(registry.stats().published, static_cast<uint64_t>(kPublishes) + 1);
  EXPECT_EQ(registry.stats().current_id, registry.Current()->id());
}

// Background-thread mode: the worker adapts from streamed feedback while
// the engine keeps serving; at least one snapshot must be published and the
// engine must observe the swap.
TEST(LiveUpdateTest, BackgroundWorkerAdaptsUnderLiveTraffic) {
  const data::Table t = SmallTable();
  serve::ServingOptions sopt;
  sopt.num_workers = 2;
  RegistryBed bed(std::make_unique<core::DuetModel>(t, SmallModelOptions()), sopt);
  serve::ModelRegistry& registry = bed.registry;
  serve::UpdateWorkerOptions wopt;
  wopt.min_feedback = 48;
  wopt.update.finetune.qerror_threshold = 1.5;
  wopt.update.finetune.epochs = 1;
  wopt.update.max_regression = 10.0;  // adaptation liveness, not quality,
                                      // is under test here
  serve::UpdateWorker worker(registry, wopt);
  worker.Start();

  query::WorkloadSpec spec;
  spec.num_queries = 48;
  spec.seed = 79;
  const query::Workload wl = query::WorkloadGenerator(t, spec).Generate();
  std::vector<Query> queries;
  for (const auto& lq : wl) queries.push_back(lq.query);

  // Serve + report until the background worker publishes (bounded wait).
  bool published = false;
  for (int round = 0; round < 200 && !published; ++round) {
    bed.engine.EstimateBatch(bed.key, queries);
    for (const auto& lq : wl) {
      worker.AddFeedback(lq.query, static_cast<double>(lq.cardinality));
    }
    published = worker.stats().published + worker.stats().rolled_back +
                    worker.stats().skipped >
                0;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  worker.Stop();
  const serve::UpdateWorkerStats stats = worker.stats();
  EXPECT_GE(stats.rounds, 1u) << "background worker never ran a round";
  // Serving stayed live throughout; if a publish happened, new dispatches
  // see the new snapshot.
  if (stats.published > 0) {
    uint64_t id = 0;
    bed.engine.EstimateBatch(bed.key, queries, &id);
    EXPECT_EQ(id, registry.Current()->id());
  }
}

}  // namespace
}  // namespace duet
