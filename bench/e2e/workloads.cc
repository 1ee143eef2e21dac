// The four workloads (bench/e2e/README.md has why each exists).
//
// Only --seed varies between runs, and it drives only the generated inputs:
// query pools, Zipf key draws, arrival times and star filters. Tables,
// training workloads and model initialisation use the constants below, so
// two commits train the same models and differ only in how they serve.
#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "artifact/artifact.h"
#include "bench/e2e/e2e.h"
#include "common/rng.h"
#include "core/duet_model.h"
#include "core/finetune.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "net/client.h"
#include "net/server.h"
#include "optimizer/card_provider.h"
#include "optimizer/planner.h"
#include "query/estimator.h"
#include "query/evaluator.h"
#include "query/workload.h"
#include "serve/model_zoo.h"
#include "serve/serving_engine.h"

namespace duet::e2e {
namespace {

constexpr uint64_t kDataSeed = 42;
constexpr uint64_t kModelSeed = 1;
constexpr int kTrainQueries = 512;
constexpr int kPoolQueries = 4096;
/// Seed of the fixed evaluation sets that score quality (qerror_*,
/// perror_mean). Quality is a property of the models, which never vary, so
/// it is scored on inputs that never vary either: a seeded pool's p99
/// Q-error alone moves about 15% from seed to seed.
constexpr uint64_t kEvalSeed = 7;
/// Dense fp32 is the serving default; a change to the default is measured.
constexpr tensor::WeightBackend kBackend = tensor::WeightBackend::kDenseF32;
/// Requests each workload keeps from a window for the layer replay.
constexpr size_t kRecorded = 1000;

// Fleet: offered loads are absolute and fixed, never calibrated per run, so
// the parent and the change see the same load. They span about 20-100% of
// the 3-connection closed-loop capacity measured when the benchmark was
// defined (README.md, "fleet rates").
constexpr int kFleetKeys = 64;
constexpr int kFleetModels = 8;
constexpr int kFleetConnections = 3;
constexpr int kFleetSteps = 5;
constexpr double kFleetRatesQps[kFleetSteps] = {660, 990, 1480, 2210, 3300};
constexpr int kFleetGatedRate = 2;  ///< index of the rate the gated phase runs
constexpr double kFleetLatencyLimitUs = 2000.0;
constexpr double kFleetMinAchieved = 0.98;
constexpr double kFleetZipfS = 1.1;
constexpr double kFleetBudgetShare = 0.25;
constexpr double kPublishIntervalS = 1.0;

// Plan: four star tables (the bench_optimizer_plancost.cc generator).
constexpr int kStarTables = 4;
constexpr int kStarQueries = 256;
constexpr int64_t kStarRows = 6000;
constexpr double kStarCorrelation[kStarTables] = {0.95, 0.6, 0.3, 0.0};

[[noreturn]] void Die(const std::string& what) { throw std::runtime_error(what); }

/// Seed salts keep the workloads' random streams apart for one --seed.
uint64_t InputSeed(uint64_t seed, uint64_t salt) {
  return seed * 0x9e3779b97f4a7c15ULL + salt;
}

/// Hybrid-training workload (paper Sec. V-A2 shape): gamma-skewed predicate
/// counts, 1% bounded column. Constant seed: training inputs never vary.
query::Workload TrainingWorkload(const data::Table& table) {
  query::WorkloadSpec spec;
  spec.num_queries = kTrainQueries;
  spec.seed = 42;
  spec.gamma_num_predicates = true;
  spec.bounded_column = table.LargestNdvColumn();
  return query::WorkloadGenerator(table, spec).Generate();
}

/// Labeled pool, Rand-Q-style (uniform predicate count, no bounded column)
/// or, with `gamma`, with the training workload's gamma-skewed counts.
query::Workload QueryPool(const data::Table& table, uint64_t seed, bool gamma) {
  query::WorkloadSpec spec;
  spec.num_queries = kPoolQueries;
  spec.seed = seed;
  spec.gamma_num_predicates = gamma;
  return query::WorkloadGenerator(table, spec).Generate();
}

std::vector<query::Query> QueriesOf(const query::Workload& workload) {
  std::vector<query::Query> out;
  out.reserve(workload.size());
  for (const query::LabeledQuery& lq : workload) out.push_back(lq.query);
  return out;
}

double QErrorOf(double selectivity, double rows, double truth) {
  return query::QError(query::CardinalityEstimator::ClampSelectivity(selectivity) * rows, truth);
}

/// Q-errors of `estimator` over a labeled workload on `table`.
std::vector<double> QErrors(query::CardinalityEstimator& estimator, const query::Workload& labeled,
                            const data::Table& table) {
  const std::vector<double> sels = estimator.EstimateSelectivityBatch(QueriesOf(labeled));
  std::vector<double> qerrors;
  for (size_t i = 0; i < labeled.size(); ++i) {
    qerrors.push_back(QErrorOf(sels[i], static_cast<double>(table.num_rows()),
                               static_cast<double>(labeled[i].cardinality)));
  }
  return qerrors;
}

void SetQErrors(const std::vector<double>& qerrors, std::map<std::string, double>* quality) {
  (*quality)["qerror_p50"] = Quantile(qerrors, 0.50);
  (*quality)["qerror_p99"] = Quantile(qerrors, 0.99);
}

std::unique_ptr<core::DuetModel> TrainModel(const data::Table& table,
                                            const query::Workload& train, int epochs,
                                            int64_t max_rows, uint64_t model_seed,
                                            SetupTimes* times) {
  core::DuetModelOptions mopt;
  mopt.hidden_sizes = {64, 64};
  mopt.residual = true;
  mopt.seed = model_seed;
  auto model = std::make_unique<core::DuetModel>(table, mopt);
  core::TrainOptions topt;
  topt.epochs = epochs;
  topt.train_workload = &train;
  topt.max_rows_per_epoch = max_rows;
  core::DuetTrainer trainer(*model, topt);
  const double rows = static_cast<double>(
      max_rows > 0 ? std::min(max_rows, table.num_rows()) : table.num_rows());
  for (int e = 0; e < epochs; ++e) {
    const Clock::time_point t0 = Clock::now();
    trainer.TrainEpoch(e);
    const double s = SecondsSince(t0);
    times->epoch_s.push_back(s);
    times->tuples_per_s.push_back(rows / s);
  }
  return model;
}

/// Bounded fine-tune round for publishes and the core.finetune_ms replay:
/// one epoch over at most 256 anchors and the 32 worst queries, so a
/// publish takes tens of milliseconds of its 1 s period.
core::FineTuneOptions PublishFineTuneOptions() {
  core::FineTuneOptions opt;
  opt.epochs = 1;
  opt.max_anchor_rows = 256;
  opt.max_queries = 32;
  return opt;
}

/// Everything one set-up builds. Members are destroyed in reverse order:
/// the server before the engine it submits to, the engine before the zoo.
class StackBase : public Workload {
 public:
  StackBase(uint64_t seed, std::string dir) : seed_(seed), dir_(std::move(dir)) {}

  StackView View() const override {
    StackView v;
    v.zoo = zoo_.get();
    v.engine = engine_.get();
    v.port = server_->port();
    for (size_t k = 0; k < keys_.size(); ++k) v.key_paths[keys_[k]] = key_paths_[k];
    return v;
  }
  const core::DuetModel& AnyModel() const override { return *models_.front(); }

 protected:
  std::string WriteModel(const core::DuetModel& model, const std::string& name,
                         SetupTimes* times) {
    const std::string path = dir_ + "/" + name + ".duet";
    const Clock::time_point t0 = Clock::now();
    const artifact::ArtifactStatus st = artifact::WriteArtifact(path, model, kBackend);
    times->write_ms.push_back(SecondsSince(t0) * 1e3);
    if (!st.ok) Die("WriteArtifact " + path + ": " + st.error);
    return path;
  }

  serve::ZooPin PinKey(const std::string& key) {
    serve::ZooPin pin;
    const artifact::ArtifactStatus st = zoo_->TryAcquire(key, &pin);
    if (!st.ok) Die("TryAcquire " + key + ": " + st.error);
    return pin;
  }

  /// Registers every key, then starts the engine and the loopback server
  /// with default options (only the zoo budget is set, for fleet).
  void StartServing(uint64_t zoo_budget_bytes) {
    serve::ZooOptions zopt;
    zopt.memory_budget_bytes = zoo_budget_bytes;
    zoo_ = std::make_unique<serve::ModelZoo>(zopt);
    for (size_t k = 0; k < keys_.size(); ++k) zoo_->Register(keys_[k], key_paths_[k]);
    engine_ = std::make_unique<serve::ServingEngine>(*zoo_);
    server_ = std::make_unique<net::NetServer>(*engine_);
    const net::WireStatus st = server_->Start();
    if (!st.ok) Die("NetServer::Start: " + st.error);
  }

  uint64_t seed_;
  std::string dir_;
  std::vector<std::unique_ptr<data::Table>> tables_;
  std::vector<std::unique_ptr<core::DuetModel>> models_;
  std::vector<std::string> keys_;
  std::vector<std::string> key_paths_;
  std::unique_ptr<serve::ModelZoo> zoo_;
  std::unique_ptr<serve::ServingEngine> engine_;
  std::unique_ptr<net::NetServer> server_;
};

// ---------------------------------------------------------------------------
// point / wide: closed-loop DuetRpc clients over one model key.
// ---------------------------------------------------------------------------

struct ClosedLoopSpec {
  const char* key;
  data::Table (*make_table)();
  int epochs;
  int frame;        ///< queries per wire frame
  int connections;  ///< client threads, one RpcClient each
  /// Gamma-skewed predicate counts: a uniform count over 100 columns makes
  /// nearly every query select one row, which pins the median Q-error at 1.
  bool gamma_pool;
};

data::Table CensusTable() { return data::CensusLike(6000, kDataSeed); }
data::Table KddTable() { return data::KddLike(4000, 100, kDataSeed); }

class ClosedLoopWorkload : public StackBase {
 public:
  ClosedLoopWorkload(ClosedLoopSpec spec, uint64_t seed, std::string dir)
      : StackBase(seed, std::move(dir)), spec_(spec) {}

  void Setup(SetupTimes* times) override {
    Clock::time_point t0 = Clock::now();
    tables_.push_back(std::make_unique<data::Table>(spec_.make_table()));
    const data::Table& table = *tables_[0];
    times->generate_s = SecondsSince(t0);

    t0 = Clock::now();
    const query::Workload train = TrainingWorkload(table);
    pool_ = QueryPool(table, InputSeed(seed_, 1), spec_.gamma_pool);
    times->label_s = SecondsSince(t0);

    models_.push_back(TrainModel(table, train, spec_.epochs, 0, kModelSeed, times));
    keys_ = {spec_.key};
    key_paths_ = {WriteModel(*models_[0], spec_.key, times)};
    StartServing(0);
  }

  void Prepare() override {
    const std::vector<query::Query> queries = QueriesOf(pool_);
    for (size_t first = 0; first + spec_.frame <= queries.size(); first += spec_.frame) {
      frames_.emplace_back(queries.begin() + static_cast<std::ptrdiff_t>(first),
                           queries.begin() + static_cast<std::ptrdiff_t>(first + spec_.frame));
    }
    const serve::ZooPin pin = PinKey(keys_[0]);
    expected_ = pin->estimator().EstimateSelectivityBatch(queries);
    const query::Workload eval = QueryPool(*tables_[0], kEvalSeed, spec_.gamma_pool);
    SetQErrors(QErrors(pin->estimator(), eval, *tables_[0]), &quality_);
    finetune_set_.assign(pool_.begin(), pool_.begin() + 512);
  }

  WindowResult Drive(double seconds, bool /*timed*/, Tracer* tracer) override {
    const Clock::time_point start = Clock::now();
    const Clock::time_point end = start + std::chrono::duration_cast<Clock::duration>(
                                              std::chrono::duration<double>(seconds));
    std::vector<WindowResult> parts(static_cast<size_t>(spec_.connections));
    recorded_.clear();
    std::vector<std::thread> threads;
    for (int c = 0; c < spec_.connections; ++c) {
      threads.emplace_back([this, c, start, end, tracer, &parts] {
        ClientLoop(c, start, end, tracer != nullptr ? tracer->log(c) : nullptr,
                   &parts[static_cast<size_t>(c)]);
      });
    }
    for (std::thread& t : threads) t.join();
    WindowResult out;
    out.seconds = SecondsSince(start);
    for (const WindowResult& p : parts) out.Append(p, 0.0);
    return out;
  }

  std::vector<ReplayItem> ReplayItems(size_t n) const override {
    std::vector<ReplayItem> items;
    for (size_t i = 0; i < std::min(n, recorded_.size()); ++i) {
      const size_t f = recorded_[i];
      items.push_back({keys_[0], &frames_[f], &expected_[f * static_cast<size_t>(spec_.frame)]});
    }
    return items;
  }

  const query::Workload& FineTuneSet() const override { return finetune_set_; }
  int client_threads() const override { return spec_.connections; }

 private:
  void ClientLoop(int c, Clock::time_point start, Clock::time_point end, SpanLog* log,
                  WindowResult* out) {
    net::RpcClient client;
    net::WireStatus st = client.Connect("127.0.0.1", server_->port());
    if (!st.ok) {
      ++out->attempted;
      ++out->failed;
      out->Fail("connect: " + st.error);
      return;
    }
    const size_t nframes = frames_.size();
    const size_t frame = static_cast<size_t>(spec_.frame);
    size_t f = static_cast<size_t>(c) * nframes / static_cast<size_t>(spec_.connections);
    out->latency_us.reserve(400000 / frame);
    out->latency_at_s.reserve(400000 / frame);
    out->gen_lag_us.reserve(400000 / frame);
    std::vector<serve::Estimate> answers;
    uint64_t req = static_cast<uint64_t>(c) << 40;
    Clock::time_point due = Clock::now();  // closed loop: due when the last answer arrived
    for (Clock::time_point sent = Clock::now(); sent < end; sent = Clock::now()) {
      {
        ScopedSpan span(log, "rpc", ++req);
        st = client.EstimateBatch(spec_.key, frames_[f], 0, &answers);
      }
      const Clock::time_point done = Clock::now();
      out->attempted += frame;
      if (!st.ok || answers.size() != frame) {
        out->failed += frame;
        out->Fail("EstimateBatch: " + (st.ok ? std::string("wrong answer count") : st.error));
        return;
      }
      for (size_t j = 0; j < frame; ++j) {
        if (answers[j].degraded()) {
          ++out->failed;
          continue;
        }
        ++out->checked;
        ++out->answers;
        if (!SameBits(answers[j].selectivity, expected_[f * frame + j])) {
          out->Fail("wire answer differs from the pinned artifact estimator (frame " +
                    std::to_string(f) + ", query " + std::to_string(j) + ")");
        }
      }
      out->latency_us.push_back(MicrosBetween(sent, done));
      out->latency_at_s.push_back(MicrosBetween(start, sent) / 1e6);
      out->gen_lag_us.push_back(MicrosBetween(due, sent));
      if (c == 0 && recorded_.size() < kRecorded) recorded_.push_back(f);
      due = done;
      f = (f + 1) % nframes;
    }
  }

  ClosedLoopSpec spec_;
  query::Workload pool_;
  query::Workload finetune_set_;
  std::vector<std::vector<query::Query>> frames_;
  std::vector<double> expected_;
  std::vector<size_t> recorded_;  ///< frames connection 0 sent, in order
};

// ---------------------------------------------------------------------------
// fleet: open-loop Zipf traffic over 64 keys under a 25% zoo budget, with a
// writer republishing one of 8 keys.
// ---------------------------------------------------------------------------

class FleetWorkload : public StackBase {
 public:
  using StackBase::StackBase;

  void Setup(SetupTimes* times) override {
    Clock::time_point t0 = Clock::now();
    tables_.push_back(std::make_unique<data::Table>(CensusTable()));
    const data::Table& table = *tables_[0];
    times->generate_s = SecondsSince(t0);

    t0 = Clock::now();
    const query::Workload train = TrainingWorkload(table);
    pool_ = QueryPool(table, InputSeed(seed_, 2), false);
    times->label_s = SecondsSince(t0);

    // Eight distinct models (init seeds 1..8), each one short epoch: the
    // fleet measures residency and churn, not model quality. Keys 0..7 are
    // the writable ones; models_[w] stays the latest model of key w.
    std::vector<std::string> base_paths;
    for (int m = 0; m < kFleetModels; ++m) {
      models_.push_back(TrainModel(table, train, 1, 1000, kModelSeed + m, times));
      base_paths.push_back(WriteModel(*models_.back(), "fleet-base-" + std::to_string(m), times));
    }
    uint64_t fleet_bytes = 0;
    for (int k = 0; k < kFleetKeys; ++k) {
      keys_.push_back("fleet-" + std::to_string(k));
      key_paths_.push_back(base_paths[static_cast<size_t>(k % kFleetModels)]);
      fleet_bytes += std::filesystem::file_size(key_paths_.back());
    }
    StartServing(static_cast<uint64_t>(kFleetBudgetShare * static_cast<double>(fleet_bytes)));
  }

  void Prepare() override {
    pool_queries_ = QueriesOf(pool_);
    for (const query::Query& q : pool_queries_) singles_.push_back({q});
    const query::Workload eval = QueryPool(*tables_[0], kEvalSeed, false);
    std::vector<double> qerrors;
    for (int m = 0; m < kFleetModels; ++m) {
      const std::vector<double> q = QErrors(PinKey(keys_[m])->estimator(), eval, *tables_[0]);
      qerrors.insert(qerrors.end(), q.begin(), q.end());
    }
    SetQErrors(qerrors, &quality_);
    for (const std::string& path : key_paths_) version_paths_.push_back({path});
    for (size_t first = 0; first + 512 <= pool_.size(); first += 512) {
      finetune_sets_.emplace_back(pool_.begin() + static_cast<std::ptrdiff_t>(first),
                                  pool_.begin() + static_cast<std::ptrdiff_t>(first + 512));
    }
  }

  WindowResult Drive(double seconds, bool timed, Tracer* tracer) override {
    const std::vector<Step> steps = Schedule(seconds, timed);
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
    std::vector<std::vector<Sent>> sent(kFleetConnections);
    std::vector<std::vector<uint64_t>> unsent(kFleetConnections,
                                              std::vector<uint64_t>(steps.size(), 0));
    WindowResult out;
    std::vector<double> publish_ms;

    std::mutex stop_mu;
    std::condition_variable stop_cv;
    bool stop = false;
    // The writer publishes at the start of every writer step and then every
    // kPublishIntervalS within it, so steps of equal length see equal writes.
    std::vector<double> publish_at_us;
    for (const Step& st : steps) {
      for (double at = st.begin_us; st.writer && at < st.end_us; at += kPublishIntervalS * 1e6) {
        publish_at_us.push_back(at);
      }
    }
    std::thread publisher([&] {
      SpanLog* log = tracer != nullptr ? tracer->log(kFleetConnections) : nullptr;
      for (double at_us : publish_at_us) {
        std::unique_lock<std::mutex> lock(stop_mu);
        const Clock::time_point at =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::micro>(at_us));
        if (stop_cv.wait_until(lock, at, [&] { return stop; })) return;
        lock.unlock();
        Publish(log, &out, &publish_ms);
      }
    });
    std::vector<std::thread> clients;
    for (int c = 0; c < kFleetConnections; ++c) {
      clients.emplace_back([&, c] {
        Generator(c, start, steps, tracer != nullptr ? tracer->log(c) : nullptr,
                  &sent[static_cast<size_t>(c)], &unsent[static_cast<size_t>(c)]);
      });
    }
    for (std::thread& t : clients) t.join();
    {
      std::lock_guard<std::mutex> lock(stop_mu);
      stop = true;
    }
    stop_cv.notify_all();
    publisher.join();
    out.seconds = SecondsSince(start);

    // Versions published in this window get their expected answers now,
    // from their immutable artifacts, so the check adds no load mid-window.
    for (const auto& paths : version_paths_) {
      for (const std::string& path : paths) AnswersOf(path);
    }
    Score(steps, sent, unsent, &out);
    out.extra["publish_p50_ms"] = Quantile(publish_ms, 0.5);
    out.extra["publishes"] = static_cast<double>(publish_ms.size());
    recorded_.assign(sent[0].begin(),
                     sent[0].begin() + static_cast<std::ptrdiff_t>(
                                           std::min(kRecorded, sent[0].size())));
    return out;
  }

  std::vector<ReplayItem> ReplayItems(size_t n) const override {
    std::vector<ReplayItem> items;
    for (size_t i = 0; i < std::min(n, recorded_.size()); ++i) {
      const Sent& s = recorded_[i];
      const std::vector<double>& latest =
          answers_.at(version_paths_[static_cast<size_t>(s.key)].back());
      items.push_back({keys_[static_cast<size_t>(s.key)], &singles_[static_cast<size_t>(s.query)],
                       &latest[static_cast<size_t>(s.query)]});
    }
    return items;
  }

  const query::Workload& FineTuneSet() const override { return finetune_sets_.front(); }
  int client_threads() const override { return kFleetConnections + 1; }

 private:
  struct Sent {
    int step = 0;
    int key = 0;
    int query = 0;
    double due_us = 0.0;  ///< scheduled send, since the window start
    double sent_us = 0.0;
    double done_us = 0.0;
    bool ok = false;
    serve::Estimate answer;
  };

  struct Step {
    double rate_qps = 0.0;
    double begin_us = 0.0;  ///< since the window start
    double end_us = 0.0;
    bool writer = false;    ///< the writer republishes during this step
    int rate_index = -1;    ///< sweep step: index into kFleetRatesQps
  };

  /// The timed window: first the gated phase, 60% of the window at the third
  /// rate with the writer idle, then the sweep, the five rates in order,
  /// each opened by a publish. The gated phase leaves the writer out because
  /// a fine-tune saturating all four cores stalls reads for milliseconds, and
  /// a p99 taken beside it moved about 50% between runs; the sweep reports
  /// that contended tail, ungated. The warm-up runs the third rate with the
  /// writer on. Step 0 is the gated step.
  static std::vector<Step> Schedule(double seconds, bool timed) {
    const double rate = kFleetRatesQps[kFleetGatedRate];
    if (!timed) return {{rate, 0.0, seconds * 1e6, true, -1}};
    std::vector<Step> steps = {{rate, 0.0, 0.6 * seconds * 1e6, false, -1}};
    const double len_us = 0.4 * seconds * 1e6 / kFleetSteps;
    for (int s = 0; s < kFleetSteps; ++s) {
      const double begin = steps.back().end_us;
      steps.push_back({kFleetRatesQps[s], begin, begin + len_us, true, s});
    }
    return steps;
  }

  /// One connection's Poisson arrivals at rate/3 per step. Requests are
  /// timed from their scheduled send, so a late answer also charges the
  /// requests queued behind it (no coordinated omission). Requests still
  /// unsent when the window closes are counted as missed, not sent.
  void Generator(int c, Clock::time_point start, const std::vector<Step>& steps, SpanLog* log,
                 std::vector<Sent>* sent, std::vector<uint64_t>* unsent) {
    // 1 us timer slack: the default 50 us would make the generator itself late.
    prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
    Rng rng(InputSeed(seed_, 100 + static_cast<uint64_t>(c) + 10 * steps.size()));
    const ZipfDistribution zipf(kFleetKeys, kFleetZipfS);
    double expected = 0.0;
    for (const Step& st : steps) expected += st.rate_qps * (st.end_us - st.begin_us) / 1e6;
    sent->reserve(static_cast<size_t>(expected * 1.2 / kFleetConnections) + 64);
    net::RpcClient client;
    const net::WireStatus connected = client.Connect("127.0.0.1", server_->port());
    const double window_us = steps.back().end_us;
    std::vector<serve::Estimate> answers;
    double due_us = 0.0;
    for (size_t s = 0; s < steps.size(); ++s) {
      const double step_end_us = steps[s].end_us;
      const double mean_gap_us = 1e6 * kFleetConnections / steps[s].rate_qps;
      due_us = std::max(due_us, steps[s].begin_us);
      for (;;) {
        due_us += -std::log(1.0 - rng.UniformDouble()) * mean_gap_us;
        if (due_us >= step_end_us) break;
        Sent r;
        r.step = static_cast<int>(s);
        r.key = static_cast<int>(zipf.Sample(rng));
        r.query = static_cast<int>(rng.UniformInt(singles_.size()));
        r.due_us = due_us;
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::micro>(due_us));
        if (Clock::now() < due) std::this_thread::sleep_until(due);
        r.sent_us = MicrosBetween(start, Clock::now());
        if (r.sent_us >= window_us) {
          ++(*unsent)[s];
          continue;
        }
        net::WireStatus st = connected;
        if (st.ok) {
          ScopedSpan span(log, "rpc", (static_cast<uint64_t>(c) << 40) | sent->size());
          st = client.EstimateBatch(keys_[static_cast<size_t>(r.key)],
                                    singles_[static_cast<size_t>(r.query)], 0, &answers);
        }
        r.done_us = MicrosBetween(start, Clock::now());
        r.ok = st.ok && answers.size() == 1;
        if (r.ok) r.answer = answers[0];
        sent->push_back(r);
      }
    }
  }

  /// Checks every answer against the versions published under its key and
  /// turns the per-step samples into the fleet metrics.
  void Score(const std::vector<Step>& steps, const std::vector<std::vector<Sent>>& sent,
             const std::vector<std::vector<uint64_t>>& unsent, WindowResult* out) const {
    std::vector<std::vector<double>> step_latency(steps.size());
    std::vector<uint64_t> step_due(steps.size(), 0), step_answered(steps.size(), 0);
    for (size_t c = 0; c < sent.size(); ++c) {
      for (size_t s = 0; s < steps.size(); ++s) step_due[s] += unsent[c][s];
      for (const Sent& r : sent[c]) {
        const size_t s = static_cast<size_t>(r.step);
        ++step_due[s];
        ++out->attempted;
        if (!r.ok || r.answer.degraded()) {
          ++out->failed;
          if (!r.ok) out->Fail("EstimateBatch failed on key " + keys_[static_cast<size_t>(r.key)]);
          step_latency[s].push_back(INFINITY);  // a failure misses any limit
          continue;
        }
        ++out->checked;
        ++out->answers;
        bool known = false;
        for (const std::string& path : version_paths_[static_cast<size_t>(r.key)]) {
          known = known ||
                  SameBits(r.answer.selectivity, answers_.at(path)[static_cast<size_t>(r.query)]);
        }
        if (!known) {
          out->Fail("answer on " + keys_[static_cast<size_t>(r.key)] +
                    " matches no version published under that key");
        }
        ++step_answered[s];
        step_latency[s].push_back(r.done_us - r.due_us);
        if (s == 0) {
          out->latency_us.push_back(r.done_us - r.due_us);
          out->latency_at_s.push_back((r.due_us - steps[s].begin_us) / 1e6);
          out->gen_lag_us.push_back(r.sent_us - r.due_us);
        }
      }
    }
    double max_rate = 0.0;
    for (size_t s = 0; s < steps.size(); ++s) {
      if (steps[s].rate_index < 0) continue;
      // Unsent requests never answered: they too miss the limit.
      step_latency[s].resize(step_due[s], INFINITY);
      const double p99 = Quantile(step_latency[s], 0.99);
      const double achieved =
          step_due[s] == 0 ? 0.0 : static_cast<double>(step_answered[s]) / step_due[s];
      const std::string tag = "rate" + std::to_string(steps[s].rate_index) + "_";
      out->extra[tag + "offered_qps"] = steps[s].rate_qps;
      out->extra[tag + "achieved_qps"] =
          static_cast<double>(step_answered[s]) / ((steps[s].end_us - steps[s].begin_us) / 1e6);
      out->extra[tag + "p99_us"] = std::isfinite(p99) ? p99 : -1.0;
      if (p99 <= kFleetLatencyLimitUs && achieved >= kFleetMinAchieved) {
        max_rate = std::max(max_rate, steps[s].rate_qps);
      }
    }
    out->extra["max_rate_qps"] = max_rate;
  }

  /// Expected answers over the pool of the artifact at `path`, from a
  /// private load (cached per path; artifacts are never rewritten).
  const std::vector<double>& AnswersOf(const std::string& path) {
    auto it = answers_.find(path);
    if (it != answers_.end()) return it->second;
    std::shared_ptr<const artifact::ArtifactModel> model;
    const artifact::ArtifactStatus st =
        artifact::LoadArtifact(path, artifact::ArtifactLoadOptions{}, &model);
    if (!st.ok) Die("LoadArtifact " + path + ": " + st.error);
    return answers_.emplace(path, model->EstimateSelectivityBatch(pool_queries_)).first->second;
  }

  /// One republish of writable key n % 8: clone, fine-tune, write, register.
  void Publish(SpanLog* log, WindowResult* out, std::vector<double>* publish_ms) {
    const int n = publishes_++;
    const size_t w = static_cast<size_t>(n % kFleetModels);
    ++out->attempted;
    ScopedSpan publish(log, "publish", static_cast<uint64_t>(n));
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<core::DuetModel> clone;
    {
      ScopedSpan span(log, "clone", static_cast<uint64_t>(n));
      clone = core::CloneModel(*models_[w]);
    }
    {
      ScopedSpan span(log, "finetune", static_cast<uint64_t>(n));
      core::FineTune(*clone, finetune_sets_[static_cast<size_t>(n) % finetune_sets_.size()],
                     PublishFineTuneOptions());
    }
    const std::string path =
        dir_ + "/fleet-" + std::to_string(w) + "-v" + std::to_string(n) + ".duet";
    artifact::ArtifactStatus st;
    {
      ScopedSpan span(log, "write", static_cast<uint64_t>(n));
      st = artifact::WriteArtifact(path, *clone, kBackend);
    }
    if (!st.ok) {
      ++out->failed;
      out->Fail("publish WriteArtifact: " + st.error);
      return;
    }
    version_paths_[w].push_back(path);
    {
      ScopedSpan span(log, "register", static_cast<uint64_t>(n));
      zoo_->Register(keys_[w], path);
    }
    publish_ms->push_back(SecondsSince(t0) * 1e3);
    key_paths_[w] = path;
    models_[w] = std::move(clone);
  }

  query::Workload pool_;
  std::vector<query::Query> pool_queries_;
  std::vector<std::vector<query::Query>> singles_;  ///< one frame per pool query
  std::vector<query::Workload> finetune_sets_;
  /// Artifact of every version ever registered under each key, and the
  /// expected answers per artifact.
  std::vector<std::vector<std::string>> version_paths_;
  std::map<std::string, std::vector<double>> answers_;
  int publishes_ = 0;
  std::vector<Sent> recorded_;  ///< connection 0's requests, in order
};

// ---------------------------------------------------------------------------
// plan: in-process join-order searches through the serving stack.
// ---------------------------------------------------------------------------

/// Equal-sized tables whose filters decide the join order (the generator of
/// bench_optimizer_plancost.cc): the key column is rebuilt onto a shared
/// 0..39 domain so star joins match by value.
data::Table MakeStarTable(const std::string& name, int64_t rows, uint64_t seed,
                          double correlation) {
  data::SyntheticSpec spec;
  spec.name = name;
  spec.rows = rows;
  spec.seed = seed;
  spec.num_latent = 1;
  spec.latent_cardinality = 40;
  spec.columns = {{40, 0.4, 0.3, 0}, {12, 0.6, correlation, 0}, {12, 0.6, correlation, 0}};
  const data::Table generated = data::GenerateSynthetic(spec);

  std::vector<double> shared_domain(40);
  for (int32_t v = 0; v < 40; ++v) shared_domain[static_cast<size_t>(v)] = v;
  std::vector<data::Column> columns;
  for (int c = 0; c < generated.num_columns(); ++c) {
    const data::Column& src = generated.column(c);
    std::vector<int32_t> codes(static_cast<size_t>(generated.num_rows()));
    for (int64_t r = 0; r < generated.num_rows(); ++r) {
      codes[static_cast<size_t>(r)] = src.code(r);
    }
    columns.push_back(data::Column::FromCodes(src.name(), std::move(codes),
                                              c == 0 ? shared_domain : src.distinct()));
  }
  return data::Table(name, std::move(columns));
}

/// Decorator that times the planner's provider calls from the outside.
class TimedProvider : public optimizer::CardinalityProvider {
 public:
  TimedProvider(optimizer::CardinalityProvider& inner, SpanLog* log)
      : inner_(inner), log_(log) {}

  std::unique_ptr<Session> StartPlan(const optimizer::StarJoinQuery& star) override {
    return std::make_unique<TimedSession>(inner_.StartPlan(star), this);
  }
  std::string name() const override { return inner_.name(); }

  /// Reset by PlanWorkload::Drive before each search.
  double search_us = 0.0;
  uint64_t search_subsets = 0;
  uint64_t req = 0;

 private:
  class TimedSession : public Session {
   public:
    TimedSession(std::unique_ptr<Session> inner, TimedProvider* owner)
        : inner_(std::move(inner)), owner_(owner) {}
    std::vector<optimizer::SubsetEstimate> EstimateSubsets(
        const std::vector<uint32_t>& subsets) override {
      const Clock::time_point t0 = Clock::now();
      std::vector<optimizer::SubsetEstimate> out;
      {
        ScopedSpan span(owner_->log_, "estimate_subsets", owner_->req);
        out = inner_->EstimateSubsets(subsets);
      }
      owner_->search_us += MicrosBetween(t0, Clock::now());
      owner_->search_subsets += subsets.size();
      return out;
    }

   private:
    std::unique_ptr<Session> inner_;
    TimedProvider* owner_;
  };

  optimizer::CardinalityProvider& inner_;
  SpanLog* log_;
};

/// kStarQueries star joins over `tables` with equality pairs on the
/// correlated filter columns, drawn from `seed`.
std::vector<std::unique_ptr<optimizer::JoinOrderPlanner>> StarQueries(
    const std::vector<const data::Table*>& tables, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::unique_ptr<optimizer::JoinOrderPlanner>> planners;
  for (int i = 0; i < kStarQueries; ++i) {
    optimizer::StarJoinQuery star;
    star.tables = tables;
    star.join_col = 0;
    for (const data::Table* t : tables) {
      query::Query f;
      for (int col = 1; col <= 2; ++col) {
        const data::Column& column = t->column(col);
        const uint64_t code = rng.UniformInt(static_cast<uint64_t>(column.ndv()));
        f.predicates.push_back({col, query::PredOp::kEq, column.Value(static_cast<int32_t>(code))});
      }
      star.filters.push_back(f);
    }
    planners.push_back(std::make_unique<optimizer::JoinOrderPlanner>(star));
  }
  return planners;
}

/// The exact-cardinality provider must reproduce the optimal plan.
void CheckOracle(optimizer::JoinOrderPlanner& planner) {
  optimizer::ExactCardinalityProvider oracle(planner.exact());
  if (planner.PlanCostRatio(planner.Plan(oracle).plan) != 1.0) {
    Die("oracle provider P-error != 1.0 on a star query");
  }
}

class PlanWorkload : public StackBase {
 public:
  using StackBase::StackBase;

  void Setup(SetupTimes* times) override {
    Clock::time_point t0 = Clock::now();
    for (int t = 0; t < kStarTables; ++t) {
      tables_.push_back(std::make_unique<data::Table>(
          MakeStarTable("star_" + std::to_string(t), kStarRows, static_cast<uint64_t>(t + 1),
                        kStarCorrelation[t])));
    }
    times->generate_s = SecondsSince(t0);

    t0 = Clock::now();
    for (int t = 0; t < kStarTables; ++t) train_.push_back(TrainingWorkload(*tables_[t]));
    times->label_s = SecondsSince(t0);

    for (int t = 0; t < kStarTables; ++t) {
      models_.push_back(TrainModel(*tables_[t], train_[t], 3, 0, kModelSeed, times));
      keys_.push_back("star-" + std::to_string(t));
      key_paths_.push_back(WriteModel(*models_.back(), keys_.back(), times));
    }
    StartServing(0);
    std::vector<const data::Table*> tables;
    for (const auto& t : tables_) tables.push_back(t.get());
    provider_ = std::make_unique<optimizer::ServingCardinalityProvider>(
        *engine_, keys_, optimizer::JoinKeyStats(tables, 0));
  }

  void Prepare() override {
    std::vector<const data::Table*> tables;
    for (const auto& t : tables_) tables.push_back(t.get());
    planners_ = StarQueries(tables, InputSeed(seed_, 3));
    const std::vector<std::unique_ptr<optimizer::JoinOrderPlanner>> eval =
        StarQueries(tables, kEvalSeed);

    // The pinned artifact estimators answer every filter; served plans must
    // equal the plans an EstimatorCardinalityProvider builds from them.
    std::vector<serve::ZooPin> pins;
    std::vector<query::CardinalityEstimator*> estimators;
    for (int t = 0; t < kStarTables; ++t) {
      pins.push_back(PinKey(keys_[t]));
      estimators.push_back(&pins.back()->estimator());
    }
    optimizer::EstimatorCardinalityProvider reference(estimators,
                                                      optimizer::JoinKeyStats(tables, 0));
    filter_frames_.resize(kStarQueries);
    filter_expected_.assign(kStarQueries, std::vector<double>(kStarTables));
    for (int t = 0; t < kStarTables; ++t) {
      std::vector<query::Query> filters;
      for (const auto& p : planners_) filters.push_back(p->query().filters[t]);
      const std::vector<double> sels = estimators[t]->EstimateSelectivityBatch(filters);
      for (int i = 0; i < kStarQueries; ++i) {
        filter_frames_[i].push_back({filters[i]});
        filter_expected_[i][t] = sels[i];
      }
    }
    for (const auto& planner : planners_) {
      CheckOracle(*planner);
      expected_.push_back(planner->Plan(reference).plan);
    }

    // Quality: filter Q-errors and P-error over the fixed evaluation stars.
    std::vector<double> qerrors;
    for (int t = 0; t < kStarTables; ++t) {
      query::Workload filters;
      for (const auto& p : eval) filters.push_back({p->query().filters[t], 0});
      const std::vector<uint64_t> truth =
          query::ExactEvaluator(*tables_[t]).CountBatch(QueriesOf(filters));
      for (size_t i = 0; i < filters.size(); ++i) filters[i].cardinality = truth[i];
      const std::vector<double> q = QErrors(*estimators[t], filters, *tables_[t]);
      qerrors.insert(qerrors.end(), q.begin(), q.end());
    }
    SetQErrors(qerrors, &quality_);
    double perror_sum = 0.0;
    for (const auto& planner : eval) {
      CheckOracle(*planner);
      perror_sum += planner->PlanCostRatio(planner->Plan(reference).plan);
    }
    quality_["perror_mean"] = perror_sum / static_cast<double>(eval.size());
  }

  WindowResult Drive(double seconds, bool /*timed*/, Tracer* tracer) override {
    SpanLog* log = tracer != nullptr ? tracer->log(0) : nullptr;
    TimedProvider timed(*provider_, log);
    optimizer::CardinalityProvider& provider =
        tracer != nullptr ? static_cast<optimizer::CardinalityProvider&>(timed) : *provider_;
    WindowResult out;
    std::vector<double> provider_us, self_us, subsets;
    out.latency_us.reserve(400000);
    out.latency_at_s.reserve(400000);
    out.gen_lag_us.reserve(400000);
    recorded_.clear();
    const Clock::time_point start = Clock::now();
    const Clock::time_point end = start + std::chrono::duration_cast<Clock::duration>(
                                              std::chrono::duration<double>(seconds));
    Clock::time_point due = start;
    for (Clock::time_point sent = Clock::now(); sent < end; sent = Clock::now()) {
      const size_t i = cursor_;
      cursor_ = (cursor_ + 1) % planners_.size();
      timed.search_us = 0.0;
      timed.search_subsets = 0;
      timed.req = ++req_;
      optimizer::PlanSearchResult res;
      {
        ScopedSpan span(log, "plan", req_);
        res = planners_[i]->Plan(provider);
      }
      const Clock::time_point done = Clock::now();
      ++out.attempted;
      if (res.degraded_estimates != 0) {
        ++out.failed;
      } else {
        ++out.answers;
        ++out.checked;
        if (res.plan.order != expected_[i].order ||
            !SameBits(res.plan.estimated_cost, expected_[i].estimated_cost)) {
          out.Fail("served plan differs from the pinned-estimator plan on star query " +
                   std::to_string(i));
        }
      }
      const double us = MicrosBetween(sent, done);
      out.latency_us.push_back(us);
      out.latency_at_s.push_back(MicrosBetween(start, sent) / 1e6);
      out.gen_lag_us.push_back(MicrosBetween(due, sent));
      if (tracer != nullptr) {
        provider_us.push_back(timed.search_us);
        self_us.push_back(us - timed.search_us);
        subsets.push_back(static_cast<double>(timed.search_subsets));
      }
      if (recorded_.size() < kRecorded / kStarTables) recorded_.push_back(i);
      due = done;
    }
    out.seconds = SecondsSince(start);
    if (tracer != nullptr) {
      out.extra["optimizer.provider_us"] = Quantile(provider_us, 0.5);
      out.extra["optimizer.dp_self_us"] = Quantile(self_us, 0.5);
      out.extra["optimizer.subsets_per_search"] = Quantile(subsets, 0.5);
    }
    return out;
  }

  std::vector<ReplayItem> ReplayItems(size_t n) const override {
    std::vector<ReplayItem> items;
    for (size_t i : recorded_) {
      for (int t = 0; t < kStarTables && items.size() < n; ++t) {
        items.push_back({keys_[t], &filter_frames_[i][t], &filter_expected_[i][t]});
      }
    }
    return items;
  }

  const query::Workload& FineTuneSet() const override { return train_.front(); }
  int client_threads() const override { return 1; }

 private:
  std::vector<query::Workload> train_;
  std::unique_ptr<optimizer::ServingCardinalityProvider> provider_;
  std::vector<std::unique_ptr<optimizer::JoinOrderPlanner>> planners_;
  std::vector<optimizer::JoinPlan> expected_;
  std::vector<std::vector<std::vector<query::Query>>> filter_frames_;  ///< [query][table]
  std::vector<std::vector<double>> filter_expected_;                   ///< [query][table]
  size_t cursor_ = 0;
  uint64_t req_ = 0;
  std::vector<size_t> recorded_;  ///< star queries searched, in order
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       const std::string& dir) {
  // point: one optimizer thread asking for one selectivity at a time.
  if (name == "point") {
    const ClosedLoopSpec spec{"census", CensusTable, 4, 1, 1, false};
    return std::make_unique<ClosedLoopWorkload>(spec, seed, dir);
  }
  // wide: the paper's high-dimensional case; full 64-query frames.
  if (name == "wide") {
    const ClosedLoopSpec spec{"kdd", KddTable, 2, 64, 2, true};
    return std::make_unique<ClosedLoopWorkload>(spec, seed, dir);
  }
  if (name == "fleet") return std::make_unique<FleetWorkload>(seed, dir);
  if (name == "plan") return std::make_unique<PlanWorkload>(seed, dir);
  return nullptr;
}

std::vector<double> ReplayFineTune(const core::DuetModel& model, const query::Workload& set,
                                   int reps, SpanLog* log) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    ScopedSpan span(log, "replay.core.finetune", static_cast<uint64_t>(r));
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<core::DuetModel> clone = core::CloneModel(model);
    core::FineTune(*clone, set, PublishFineTuneOptions());
    ms.push_back(SecondsSince(t0) * 1e3);
  }
  return ms;
}

}  // namespace duet::e2e
