// Table II reproduction: accuracy of all estimators on the three datasets
// under In-Workload and Random query workloads. Prints size (MB), mean
// estimation cost (ms) and the Q-error five-number summary per estimator,
// one block per dataset, mirroring the paper's Table II layout.
//
// Flags: --datasets=census,kdd,dmv  --epochs=N  --queries=N  --train_queries=N
//        --naru_samples=N  (env DUET_BENCH_SCALE grows the datasets)
#include <cstdio>
#include <memory>

#include "baselines/lw/lw_models.h"
#include "baselines/mscn/mscn_model.h"
#include "baselines/pgm/chow_liu.h"
#include "baselines/spn/spn.h"
#include "baselines/traditional/independence.h"
#include "baselines/traditional/mhist.h"
#include "baselines/traditional/sampling.h"
#include "bench/bench_util.h"

namespace duet::bench {
namespace {

struct DatasetPlan {
  data::Table table;
  int epochs;
  int naru_samples;
  int test_queries;
  int train_queries;
  /// UAE hybrid sampling configuration; kdd uses the paper-scale sample
  /// count, which the memory model rejects (Table II's "-" entries).
  int uae_samples;
  int64_t batch;
  /// Also run the extension baselines (LW-XGB / LW-NN [11], RobustMSCN
  /// [45], Chow-Liu PGM [40]) the paper cites but does not evaluate.
  bool extended = true;
};

void RunDataset(DatasetPlan plan) {
  const data::Table& t = plan.table;
  std::printf("\n=== dataset %s: %lld rows x %d cols ===\n", t.name().c_str(),
              static_cast<long long>(t.num_rows()), t.num_columns());

  const query::Workload train_wl = MakeTrainingWorkload(t, plan.train_queries);
  const query::Workload in_q = MakeInQ(t, plan.test_queries);
  const query::Workload rand_q = MakeRandQ(t, plan.test_queries);

  struct Entry {
    std::string name;
    std::unique_ptr<query::CardinalityEstimator> estimator;
  };
  std::vector<Entry> entries;

  // --- traditional ---
  entries.push_back({"Sampling", std::make_unique<baselines::SamplingEstimator>(t, 0.01)});
  entries.push_back({"Indep", std::make_unique<baselines::IndependenceEstimator>(t)});
  entries.push_back({"MHist", std::make_unique<baselines::MHistEstimator>(t, 1024)});

  // --- MSCN (query-driven) ---
  {
    baselines::MscnOptions mopt;
    mopt.epochs = 25;
    mopt.bitmap_size = 500;
    mopt.max_preds = t.num_columns();
    auto mscn = std::make_unique<baselines::MscnModel>(t, mopt);
    Timer timer;
    mscn->Train(train_wl);
    std::printf("[train] MSCN: %.1fs\n", timer.Seconds());
    entries.push_back({"MSCN", std::move(mscn)});
  }

  // --- extension baselines (cited in the paper, not in its Table II) ---
  if (plan.extended) {
    {
      baselines::LwXgbOptions lopt;
      lopt.gbdt.num_trees = 80;
      auto lw = std::make_unique<baselines::LwXgbEstimator>(t, lopt);
      Timer timer;
      lw->Train(train_wl);
      std::printf("[train] LW-XGB: %.1fs\n", timer.Seconds());
      entries.push_back({"LW-XGB", std::move(lw)});
    }
    {
      baselines::LwNnOptions lopt;
      lopt.epochs = 25;
      auto lw = std::make_unique<baselines::LwNnEstimator>(t, lopt);
      Timer timer;
      lw->Train(train_wl);
      std::printf("[train] LW-NN: %.1fs\n", timer.Seconds());
      entries.push_back({"LW-NN", std::move(lw)});
    }
    {
      baselines::MscnOptions mopt;
      mopt.epochs = 25;
      mopt.bitmap_size = 500;
      mopt.max_preds = t.num_columns();
      mopt.mask_prob = 0.15;
      auto robust = std::make_unique<baselines::MscnModel>(t, mopt);
      Timer timer;
      robust->Train(train_wl);
      std::printf("[train] RobustMSCN: %.1fs\n", timer.Seconds());
      entries.push_back({"RobustMSCN", std::move(robust)});
    }
    {
      Timer timer;
      auto pgm = std::make_unique<baselines::ChowLiuEstimator>(t);
      std::printf("[train] PGM: %.1fs\n", timer.Seconds());
      entries.push_back({"PGM", std::move(pgm)});
    }
  }

  // --- DeepDB (SPN) ---
  {
    Timer timer;
    auto spn = std::make_unique<baselines::SpnEstimator>(t);
    std::printf("[train] DeepDB: %.1fs\n", timer.Seconds());
    entries.push_back({"DeepDB", std::move(spn)});
  }

  // --- Naru ---
  auto naru_model =
      std::make_unique<baselines::NaruModel>(t, NaruOptionsFor(t, plan.naru_samples));
  {
    core::TrainOptions topt;
    topt.epochs = plan.epochs;
    topt.batch_size = plan.batch;
    Timer timer;
    baselines::NaruTrainer(*naru_model, topt).Train();
    std::printf("[train] Naru: %.1fs\n", timer.Seconds());
    entries.push_back({"Naru", std::make_unique<baselines::NaruEstimator>(*naru_model)});
  }

  // --- UAE (hybrid Naru) ---
  baselines::UaeOptions uopt;
  uopt.naru = NaruOptionsFor(t, plan.naru_samples);
  uopt.train_samples = plan.uae_samples;
  uopt.memory_budget_mb = 10240;  // RTX3080-sized accelerator (paper Sec. V-F)
  auto uae_model = std::make_unique<baselines::UaeModel>(t, uopt);
  bool uae_oom = false;
  {
    core::TrainOptions topt;
    topt.epochs = plan.epochs;
    topt.batch_size = plan.batch;
    topt.train_workload = &train_wl;
    Timer timer;
    baselines::UaeTrainer trainer(*uae_model, topt);
    trainer.Train();
    uae_oom = trainer.oom();
    if (uae_oom) {
      std::printf("[train] UAE: OOM (retained-activation estimate %.0f MB > budget)\n",
                  uae_model->EstimatedTrainMemoryMB(plan.batch / 8));
    } else {
      std::printf("[train] UAE: %.1fs\n", timer.Seconds());
      entries.push_back({"UAE", std::make_unique<baselines::UaeEstimator>(*uae_model)});
    }
  }

  // --- DuetD (data-driven only) ---
  auto duetd_model = std::make_unique<core::DuetModel>(t, DuetOptionsFor(t));
  {
    core::TrainOptions topt;
    topt.epochs = plan.epochs;
    topt.batch_size = plan.batch;
    Timer timer;
    core::DuetTrainer(*duetd_model, topt).Train();
    std::printf("[train] DuetD: %.1fs\n", timer.Seconds());
    entries.push_back({"DuetD", std::make_unique<core::DuetEstimator>(*duetd_model, "DuetD")});
  }

  // --- Duet (hybrid) ---
  auto duet_model = std::make_unique<core::DuetModel>(t, DuetOptionsFor(t));
  {
    core::TrainOptions topt;
    topt.epochs = plan.epochs;
    topt.batch_size = plan.batch;
    topt.train_workload = &train_wl;
    topt.lambda = 0.1f;
    Timer timer;
    core::DuetTrainer(*duet_model, topt).Train();
    std::printf("[train] Duet: %.1fs\n", timer.Seconds());
    entries.push_back({"Duet", std::make_unique<core::DuetEstimator>(*duet_model)});
  }

  for (const char* workload_name : {"In-Workload Queries", "Random Queries"}) {
    const query::Workload& wl =
        std::string(workload_name) == "In-Workload Queries" ? in_q : rand_q;
    PrintSectionRule();
    PrintAccuracyHeader(workload_name);
    for (auto& e : entries) {
      Timer timer;
      const auto errors = query::EvaluateQErrors(*e.estimator, wl, t.num_rows());
      const double cost_ms = timer.Millis() / static_cast<double>(wl.size());
      PrintAccuracyRow(e.name, e.estimator->SizeMB(), cost_ms,
                       ErrorSummary::FromValues(errors));
    }
    if (uae_oom) {
      std::printf("%-10s %8s %9s  (gradient-explosion / OOM at paper-scale sampling)\n",
                  "UAE", "-", "-");
    }
  }
}

}  // namespace
}  // namespace duet::bench

int main(int argc, char** argv) {
  using namespace duet;
  using namespace duet::bench;
  Flags flags(argc, argv, {"batch", "datasets", "epochs", "extended", "naru_samples", "queries",
                           "train_queries"});
  const double scale = Flags::ScaleFactor();
  const std::string datasets = flags.GetString("datasets", "census,kdd,dmv");
  std::printf("Table II reproduction (scale %.2f). Shapes, not absolute numbers, are the "
              "target; see EXPERIMENTS.md.\n",
              scale);

  if (datasets.find("census") != std::string::npos) {
    DatasetPlan plan{MakeCensus(scale),
                     static_cast<int>(flags.GetInt("epochs", 6)),
                     static_cast<int>(flags.GetInt("naru_samples", 100)),
                     static_cast<int>(flags.GetInt("queries", 200)),
                     static_cast<int>(flags.GetInt("train_queries", 600)),
                     /*uae_samples=*/4,
                     flags.GetInt("batch", 128)};
    plan.extended = flags.GetInt("extended", 1) != 0;
    RunDataset(std::move(plan));
  }
  if (datasets.find("kdd") != std::string::npos) {
    DatasetPlan plan{MakeKdd(scale),
                     static_cast<int>(flags.GetInt("epochs", 4)),
                     static_cast<int>(flags.GetInt("naru_samples", 24)),
                     static_cast<int>(flags.GetInt("queries", 100)),
                     static_cast<int>(flags.GetInt("train_queries", 400)),
                     /*uae_samples=*/200,  // paper-scale: triggers the OOM path
                     flags.GetInt("batch", 128)};
    plan.extended = flags.GetInt("extended", 1) != 0;
    RunDataset(std::move(plan));
  }
  if (datasets.find("dmv") != std::string::npos) {
    DatasetPlan plan{MakeDmv(scale),
                     static_cast<int>(flags.GetInt("epochs", 3)),
                     static_cast<int>(flags.GetInt("naru_samples", 50)),
                     static_cast<int>(flags.GetInt("queries", 150)),
                     static_cast<int>(flags.GetInt("train_queries", 600)),
                     /*uae_samples=*/4,
                     flags.GetInt("batch", 256)};
    plan.extended = flags.GetInt("extended", 1) != 0;
    RunDataset(std::move(plan));
  }
  return 0;
}
