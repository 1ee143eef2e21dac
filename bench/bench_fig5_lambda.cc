// Figure 5 reproduction: hyper-parameter study of the trade-off coefficient
// lambda on the Kddcup98-like dataset. Trains hybrid Duet with lambda in
// {1e-3, 1e-2, 1e-1, 1} and evaluates on Rand-Q; the paper selects 0.1.
//
// Flags: --epochs=N --queries=N
#include <cstdio>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace duet;
  using namespace duet::bench;
  Flags flags(argc, argv, {"epochs", "queries"});
  const double scale = Flags::ScaleFactor();
  const int epochs = static_cast<int>(flags.GetInt("epochs", 4));
  const int queries = static_cast<int>(flags.GetInt("queries", 100));

  data::Table t = MakeKdd(scale);
  const query::Workload train_wl = MakeTrainingWorkload(t, static_cast<int>(300 * scale));
  const query::Workload rand_q = MakeRandQ(t, queries);

  std::printf("Figure 5 reproduction: lambda sweep on %s, Rand-Q accuracy\n",
              t.name().c_str());
  std::printf("%-10s %10s %10s %10s %12s\n", "lambda", "mean", "median", "99th", "max");
  for (float lambda : {1e-3f, 1e-2f, 1e-1f, 1.0f}) {
    core::DuetModel model(t, DuetOptionsFor(t));
    core::TrainOptions topt;
    topt.epochs = epochs;
    topt.batch_size = 128;
    topt.train_workload = &train_wl;
    topt.lambda = lambda;
    core::DuetTrainer(model, topt).Train();
    core::DuetEstimator est(model);
    const auto errors = query::EvaluateQErrors(est, rand_q, t.num_rows());
    const ErrorSummary s = ErrorSummary::FromValues(errors);
    std::printf("%-10g %10.3f %10.3f %10.3f %12.3f\n", static_cast<double>(lambda), s.mean,
                s.median, s.p99, s.max);
  }
  std::printf("\nExpected shape: a sweet spot near lambda = 0.1; very large lambda "
              "degrades generalization on random queries (paper Fig. 5).\n");
  return 0;
}
