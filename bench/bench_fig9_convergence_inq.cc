// Figure 9 reproduction: convergence of the max Q-error on In-Workload Queries
// as training progresses, for Duet, DuetD, Naru and UAE on the Kdd-like
// (high-dimensional) and DMV-like (high-cardinality) datasets. Expected
// shape: hybrid training (Duet vs DuetD) slightly speeds convergence on
// in-workload queries (paper Fig. 9).
//
// Flags: --epochs=N --queries=N --datasets=kdd,dmv
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"

namespace duet::bench {
namespace {

void RunDataset(const data::Table& t, int epochs, int /*queries*/, int naru_samples,
                int uae_samples, const query::Workload& eval_wl) {
  const query::Workload train_wl = MakeTrainingWorkload(t, 300);
  std::printf("\n--- %s: max Q-error on In-Q after each epoch ---\n", t.name().c_str());
  std::printf("%-8s", "epoch");
  for (int e = 1; e <= epochs; ++e) std::printf(" %9d", e);
  std::printf("\n");

  {
    core::DuetModel model(t, DuetOptionsFor(t));
    core::TrainOptions topt;
    topt.epochs = epochs;
    topt.batch_size = 128;
    topt.train_workload = &train_wl;
    core::DuetTrainer trainer(model, topt);
    std::printf("%-8s", "Duet");
    for (int e = 0; e < epochs; ++e) {
      trainer.TrainEpoch(e);
      core::DuetEstimator est(model);
      const auto errs = query::EvaluateQErrors(est, eval_wl, t.num_rows());
      std::printf(" %9.2f", ErrorSummary::FromValues(errs).max);
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  {
    core::DuetModel model(t, DuetOptionsFor(t));
    core::TrainOptions topt;
    topt.epochs = epochs;
    topt.batch_size = 128;
    core::DuetTrainer trainer(model, topt);
    std::printf("%-8s", "DuetD");
    for (int e = 0; e < epochs; ++e) {
      trainer.TrainEpoch(e);
      core::DuetEstimator est(model, "DuetD");
      const auto errs = query::EvaluateQErrors(est, eval_wl, t.num_rows());
      std::printf(" %9.2f", ErrorSummary::FromValues(errs).max);
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  {
    baselines::NaruModel model(t, NaruOptionsFor(t, naru_samples));
    core::TrainOptions topt;
    topt.epochs = epochs;
    topt.batch_size = 128;
    baselines::NaruTrainer trainer(model, topt);
    std::printf("%-8s", "Naru");
    for (int e = 0; e < epochs; ++e) {
      trainer.TrainEpoch(e);
      baselines::NaruEstimator est(model);
      const auto errs = query::EvaluateQErrors(est, eval_wl, t.num_rows());
      std::printf(" %9.2f", ErrorSummary::FromValues(errs).max);
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  {
    baselines::UaeOptions uopt;
    uopt.naru = NaruOptionsFor(t, naru_samples);
    uopt.train_samples = uae_samples;
    uopt.memory_budget_mb = 10240;
    baselines::UaeModel model(t, uopt);
    core::TrainOptions topt;
    topt.epochs = epochs;
    topt.batch_size = 128;
    topt.train_workload = &train_wl;
    baselines::UaeTrainer trainer(model, topt);
    std::printf("%-8s", "UAE");
    for (int e = 0; e < epochs; ++e) {
      trainer.TrainEpoch(e);
      if (trainer.oom()) {
        std::printf(" %9s", "OOM");
        break;
      }
      baselines::UaeEstimator est(model);
      const auto errs = query::EvaluateQErrors(est, eval_wl, t.num_rows());
      std::printf(" %9.2f", ErrorSummary::FromValues(errs).max);
      std::fflush(stdout);
    }
    std::printf("\n");
  }
}

}  // namespace
}  // namespace duet::bench

int main(int argc, char** argv) {
  using namespace duet;
  using namespace duet::bench;
  Flags flags(argc, argv, {"datasets", "epochs", "queries"});
  const double scale = Flags::ScaleFactor();
  const int epochs = static_cast<int>(flags.GetInt("epochs", 5));
  const int queries = static_cast<int>(flags.GetInt("queries", 60));
  const std::string datasets = flags.GetString("datasets", "kdd,dmv");
  std::printf("Figure 9 reproduction: convergence on In-Workload Queries\n");
  if (datasets.find("kdd") != std::string::npos) {
    data::Table t = MakeKdd(scale);
    RunDataset(t, epochs, queries, /*naru_samples=*/16, /*uae_samples=*/200,
               MakeInQ(t, queries));
  }
  if (datasets.find("dmv") != std::string::npos) {
    data::Table t = MakeDmv(scale);
    RunDataset(t, epochs, queries, /*naru_samples=*/50, /*uae_samples=*/4,
               MakeInQ(t, queries));
  }
  return 0;
}
