// Importance-sampling ablation (paper Sec. IV-C): uniform predicate
// sampling is the worst-case-robust default; with strong query time
// locality the historical workload's operator and value distributions can
// guide the virtual-table sampler instead.
//
// Trains DuetD twice — uniform vs workload-guided sampling — and evaluates
// both on In-Q (matching the historical distribution) and Rand-Q (drifted).
// Expected shape: importance helps In-Q and must not catastrophically hurt
// Rand-Q; uniform stays the safer choice under drift, which is why the
// paper defaults to it.
//
// Flags: --epochs=N --rows=N --queries=N
#include <cstdio>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace duet;
  using namespace duet::bench;
  Flags flags(argc, argv, {"epochs", "queries", "rows"});
  const double scale = Flags::ScaleFactor();
  const int epochs = static_cast<int>(flags.GetInt("epochs", 6));
  const int queries = static_cast<int>(flags.GetInt("queries", 200));

  data::Table t =
      data::CensusLike(flags.GetInt("rows", static_cast<int64_t>(4000 * scale)), 42);
  const query::Workload history = MakeTrainingWorkload(t, 600);
  const query::Workload in_q = MakeInQ(t, queries);
  const query::Workload rand_q = MakeRandQ(t, queries);

  std::printf("Importance-sampling ablation on %s (%lld rows), %d epochs, DuetD\n",
              t.name().c_str(), static_cast<long long>(t.num_rows()), epochs);
  std::printf("%-22s %9s %9s %9s %9s %9s %9s\n", "sampler", "InQ med", "InQ 99th",
              "InQ max", "RandQ med", "RandQ 99", "RandQ max");

  for (const bool importance : {false, true}) {
    core::TrainOptions topt;
    topt.epochs = epochs;
    topt.batch_size = 128;
    topt.lambda = 0.0f;
    if (importance) topt.importance_workload = &history;
    core::DuetModel model(t, DuetOptionsFor(t));
    core::DuetTrainer(model, topt).Train();
    core::DuetEstimator est(model);
    const ErrorSummary in_sum =
        ErrorSummary::FromValues(query::EvaluateQErrors(est, in_q, t.num_rows()));
    const ErrorSummary rand_sum =
        ErrorSummary::FromValues(query::EvaluateQErrors(est, rand_q, t.num_rows()));
    std::printf("%-22s %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f\n",
                importance ? "workload-guided" : "uniform (paper)", in_sum.median,
                in_sum.p99, in_sum.max, rand_sum.median, rand_sum.p99, rand_sum.max);
  }

  std::printf(
      "\nExpected shape: workload-guided sampling sharpens in-workload tails\n"
      "(predicates the history favours are trained more often); uniform\n"
      "remains the robust default under drift (paper Sec. IV-C).\n");
  return 0;
}
