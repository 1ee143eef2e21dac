// Figure 7 reproduction (google-benchmark): per-query estimation cost of
// the learned estimators on the Census-like and DMV-like datasets.
//
// The paper's comparison pits Duet-on-CPU against sampling methods
// on GPU; here the GPU stand-in is batched inference (Duet_Batch64,
// Naru's per-column passes are already internally batched over their
// Monte-Carlo samples — see DESIGN.md Sec. 1). Expected shape: MSCN
// cheapest, Duet next (single pass), Naru/UAE an order of magnitude
// slower, growing with the number of constrained columns.
#include <benchmark/benchmark.h>

#include <memory>

#include "baselines/mscn/mscn_model.h"
#include "baselines/spn/spn.h"
#include "bench/bench_util.h"

namespace duet::bench {
namespace {

/// Shared trained models, built once (google-benchmark re-enters the
/// benchmark body many times).
struct Context {
  data::Table table;
  query::Workload queries;
  std::unique_ptr<core::DuetModel> duet;
  std::unique_ptr<baselines::NaruModel> naru;
  std::unique_ptr<baselines::MscnModel> mscn;
  std::unique_ptr<baselines::SpnEstimator> spn;

  explicit Context(data::Table t) : table(std::move(t)) {
    queries = MakeRandQ(table, 64);
    const query::Workload train_wl = MakeTrainingWorkload(table, 300);
    duet = std::make_unique<core::DuetModel>(table, DuetOptionsFor(table));
    core::TrainOptions topt;
    topt.epochs = 1;
    topt.batch_size = 256;
    core::DuetTrainer(*duet, topt).Train();
    naru = std::make_unique<baselines::NaruModel>(table, NaruOptionsFor(table, 100));
    baselines::NaruTrainer(*naru, topt).Train();
    baselines::MscnOptions mopt;
    mopt.epochs = 3;
    mopt.bitmap_size = 500;
    mopt.max_preds = table.num_columns();
    mscn = std::make_unique<baselines::MscnModel>(table, mopt);
    mscn->Train(train_wl);
    spn = std::make_unique<baselines::SpnEstimator>(table);
  }
};

Context& Census() {
  static Context* ctx = new Context(MakeCensus());
  return *ctx;
}
Context& Dmv() {
  static Context* ctx = new Context(MakeDmv());
  return *ctx;
}

template <Context& (*Dataset)()>
void BM_Duet(benchmark::State& state) {
  Context& ctx = Dataset();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ctx.duet->EstimateSelectivity(ctx.queries[i++ % ctx.queries.size()].query));
  }
}

template <Context& (*Dataset)()>
void BM_DuetBatch64(benchmark::State& state) {
  Context& ctx = Dataset();
  std::vector<query::Query> batch;
  for (const auto& lq : ctx.queries) batch.push_back(lq.query);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.duet->EstimateSelectivityBatch(batch));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch.size()));
}

template <Context& (*Dataset)()>
void BM_Naru(benchmark::State& state) {
  Context& ctx = Dataset();
  Rng rng(3);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ctx.naru->EstimateSelectivity(ctx.queries[i++ % ctx.queries.size()].query, rng));
  }
}

template <Context& (*Dataset)()>
void BM_Mscn(benchmark::State& state) {
  Context& ctx = Dataset();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ctx.mscn->EstimateSelectivity(ctx.queries[i++ % ctx.queries.size()].query));
  }
}

template <Context& (*Dataset)()>
void BM_DeepDb(benchmark::State& state) {
  Context& ctx = Dataset();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ctx.spn->EstimateSelectivity(ctx.queries[i++ % ctx.queries.size()].query));
  }
}

BENCHMARK(BM_Mscn<Census>)->Name("fig7/census/MSCN")->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Duet<Census>)->Name("fig7/census/Duet")->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_DuetBatch64<Census>)
    ->Name("fig7/census/Duet_batch64")
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_DeepDb<Census>)->Name("fig7/census/DeepDB")->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Naru<Census>)->Name("fig7/census/Naru_UAE")->Unit(benchmark::kMicrosecond);

BENCHMARK(BM_Mscn<Dmv>)->Name("fig7/dmv/MSCN")->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Duet<Dmv>)->Name("fig7/dmv/Duet")->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_DuetBatch64<Dmv>)->Name("fig7/dmv/Duet_batch64")->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_DeepDb<Dmv>)->Name("fig7/dmv/DeepDB")->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Naru<Dmv>)->Name("fig7/dmv/Naru_UAE")->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace duet::bench

int main(int argc, char** argv) {
  // google-benchmark owns this binary's flags (--benchmark_*); anything it
  // does not recognize is an error, checked before the slow model setup.
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 2;
  // Train the shared models up front so the first measured iteration of
  // each benchmark does not absorb context construction.
  duet::bench::Census();
  duet::bench::Dmv();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
