// Figure 3 reproduction: convergence of the query loss with and without
// Duet's log2(QError + 1) mapping, next to L_data, on the DMV-like dataset.
// The paper's observation: the raw Q-error starts orders of magnitude above
// L_data and destabilizes training; the mapped loss has the same order and
// convergence rate as L_data.
//
// Flags: --epochs=N --rows=N
#include <cstdio>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace duet;
  using namespace duet::bench;
  Flags flags(argc, argv, {"epochs", "rows"});
  const double scale = Flags::ScaleFactor();
  const int epochs = static_cast<int>(flags.GetInt("epochs", 6));

  data::Table t = data::DmvLike(flags.GetInt("rows", static_cast<int64_t>(8000 * scale)), 42);
  const query::Workload train_wl = MakeTrainingWorkload(t, static_cast<int>(400 * scale));

  std::printf("Figure 3 reproduction on %s (%lld rows)\n", t.name().c_str(),
              static_cast<long long>(t.num_rows()));
  std::printf("%-6s %16s %18s %22s\n", "epoch", "L_data", "raw mean QError",
              "mapped log2(QErr+1)");

  // One hybrid run with the mapped loss; the raw Q-error of the training
  // queries is tracked alongside (the paper plots both curves).
  core::DuetModel model(t, DuetOptionsFor(t));
  core::TrainOptions topt;
  topt.epochs = epochs;
  topt.batch_size = 256;
  topt.train_workload = &train_wl;
  topt.lambda = 0.1f;
  topt.map_query_loss = true;
  core::DuetTrainer trainer(model, topt);
  for (int e = 0; e < epochs; ++e) {
    const auto stats = trainer.TrainEpoch(e);
    std::printf("%-6d %16.4f %18.2f %22.4f\n", e + 1, stats.data_loss, stats.raw_qerror,
                stats.query_loss);
  }

  std::printf("\nSame training with the UNMAPPED Q-error loss (UAE-style single-factor "
              "scaling):\n");
  std::printf("%-6s %16s %18s\n", "epoch", "L_data", "L_query = mean QErr");
  core::DuetModel model_raw(t, DuetOptionsFor(t));
  core::TrainOptions topt_raw = topt;
  topt_raw.map_query_loss = false;
  topt_raw.lambda = 0.1f;
  core::DuetTrainer trainer_raw(model_raw, topt_raw);
  for (int e = 0; e < epochs; ++e) {
    const auto stats = trainer_raw.TrainEpoch(e);
    std::printf("%-6d %16.4f %18.2f\n", e + 1, stats.data_loss, stats.query_loss);
  }
  std::printf("\nExpected shape: the unmapped L_query starts orders of magnitude above "
              "L_data; the mapped loss tracks L_data's scale (paper Fig. 3).\n");
  return 0;
}
