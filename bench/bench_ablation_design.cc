// Ablation benches for the design choices DESIGN.md calls out (paper
// Sec. IV): the expand coefficient mu, the wildcard-skipping probability,
// the value-encoding policy, and the merged vs per-column MPSN execution.
//
// Flags: --epochs=N --rows=N --queries=N
#include <cstdio>

#include "bench/bench_util.h"
#include "core/mpsn_model.h"

namespace duet::bench {
namespace {

double TrainAndMedianQError(const data::Table& t, core::DuetModelOptions mopt,
                            core::TrainOptions topt, const query::Workload& eval_wl) {
  core::DuetModel model(t, mopt);
  core::DuetTrainer(model, topt).Train();
  core::DuetEstimator est(model);
  const auto errs = query::EvaluateQErrors(est, eval_wl, t.num_rows());
  return ErrorSummary::FromValues(errs).median;
}

}  // namespace
}  // namespace duet::bench

int main(int argc, char** argv) {
  using namespace duet;
  using namespace duet::bench;
  Flags flags(argc, argv, {"epochs", "queries", "rows"});
  const double scale = Flags::ScaleFactor();
  const int epochs = static_cast<int>(flags.GetInt("epochs", 5));
  const int queries = static_cast<int>(flags.GetInt("queries", 150));

  data::Table t = data::CensusLike(flags.GetInt("rows", static_cast<int64_t>(4000 * scale)), 42);
  const query::Workload rand_q = MakeRandQ(t, queries);

  std::printf("Design-choice ablations on %s (%lld rows), Rand-Q median Q-error\n",
              t.name().c_str(), static_cast<long long>(t.num_rows()));

  // --- expand coefficient mu (Sec. IV-C: each tuple trains mu times with
  // different predicates per step) ---
  std::printf("\n[mu expand coefficient]\n%-6s %14s %14s\n", "mu", "median QErr",
              "epoch time(s)");
  for (int mu : {1, 2, 4, 8}) {
    core::TrainOptions topt;
    topt.epochs = epochs;
    topt.batch_size = 128;
    topt.expand = mu;
    core::DuetModel model(t, DuetOptionsFor(t));
    core::DuetTrainer trainer(model, topt);
    double seconds = 0.0;
    for (int e = 0; e < epochs; ++e) seconds += trainer.TrainEpoch(e).seconds;
    core::DuetEstimator est(model);
    const auto errs = query::EvaluateQErrors(est, rand_q, t.num_rows());
    std::printf("%-6d %14.3f %14.3f\n", mu, ErrorSummary::FromValues(errs).median,
                seconds / epochs);
  }

  // --- wildcard-skipping probability ---
  std::printf("\n[wildcard probability]\n%-6s %14s\n", "p", "median QErr");
  for (double p : {0.0, 0.15, 0.3, 0.6}) {
    core::TrainOptions topt;
    topt.epochs = epochs;
    topt.batch_size = 128;
    topt.wildcard_prob = p;
    std::printf("%-6.2f %14.3f\n", p,
                TrainAndMedianQError(t, DuetOptionsFor(t), topt, rand_q));
  }

  // --- value encoding policy ---
  std::printf("\n[value encoding]\n%-10s %14s %12s\n", "encoding", "median QErr",
              "input width");
  {
    struct EncCase {
      const char* name;
      int32_t one_hot_max;
      core::ValueEncoding large;
    };
    for (const EncCase& c :
         {EncCase{"one-hot", 4096, core::ValueEncoding::kOneHot},
          EncCase{"binary", 0, core::ValueEncoding::kBinary},
          EncCase{"embed16", 0, core::ValueEncoding::kEmbedding}}) {
      core::DuetModelOptions mopt = DuetOptionsFor(t);
      mopt.encoding.one_hot_max_ndv = c.one_hot_max;
      mopt.encoding.large_encoding = c.large;
      core::TrainOptions topt;
      topt.epochs = epochs;
      topt.batch_size = 128;
      core::DuetModel probe(t, mopt);
      const int64_t width = probe.encoder().total_width();
      std::printf("%-10s %14.3f %12lld\n", c.name,
                  TrainAndMedianQError(t, mopt, topt, rand_q),
                  static_cast<long long>(width));
    }
  }

  // --- merged vs per-column MPSN execution (Sec. IV-F acceleration) ---
  std::printf("\n[MPSN execution]\n%-12s %14s %14s\n", "mode", "train time(s)",
              "est cost(ms)");
  {
    query::WorkloadSpec tspec;
    tspec.num_queries = 80;
    tspec.seed = 1234;
    tspec.two_sided_prob = 0.5;
    const query::Workload two_sided = query::WorkloadGenerator(t, tspec).Generate();
    for (bool merged : {true, false}) {
      core::DuetMpsnOptions opt;
      opt.base.hidden_sizes = {64, 64};
      opt.base.residual = true;
      opt.mpsn.kind = core::MpsnKind::kMlp;
      opt.mpsn.merged = merged;
      opt.mpsn.max_preds = 2;
      opt.mpsn.embed_dim = 16;
      core::DuetMpsnModel model(t, opt);
      core::TrainOptions topt;
      topt.epochs = 2;
      topt.batch_size = 128;
      core::MpsnTrainer trainer(model, topt);
      Timer timer;
      trainer.Train();
      const double train_s = timer.Seconds();
      core::DuetMpsnEstimator est(model);
      const double est_ms = MeasureEstimationMs(est, two_sided);
      std::printf("%-12s %14.3f %14.3f\n", merged ? "merged" : "per-column", train_s, est_ms);
    }
  }
  std::printf("\nExpected shapes: mu trades epoch time for sample diversity; moderate "
              "wildcard probability helps Rand-Q; binary encoding shrinks the input "
              "with little accuracy cost; merged MPSN executes fewer, larger ops.\n");
  return 0;
}
