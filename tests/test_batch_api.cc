// Batch-first estimator API: EstimateSelectivityBatch must agree with the
// per-query path for every neural estimator (Duet, MPSN, Naru, UAE), and the
// Duet batched forward must hit the inference arena's zero-allocation steady
// state.
#include <cmath>
#include <vector>

#include "baselines/naru/naru_model.h"
#include "baselines/uae/uae_model.h"
#include "core/duet_model.h"
#include "core/mpsn_model.h"
#include "data/generator.h"
#include "gtest/gtest.h"
#include "query/estimator.h"
#include "query/workload.h"
#include "tensor/tensor.h"

namespace duet {
namespace {

using query::Query;

data::Table SmallTable() { return data::CensusLike(800, 5); }

/// A mixed query set: generated queries plus the edge cases (wildcard-only
/// and contradictory) that short-circuit before the forward pass.
std::vector<Query> TestQueries(const data::Table& table, int n, double two_sided_prob) {
  query::WorkloadSpec spec;
  spec.seed = 77;
  spec.two_sided_prob = two_sided_prob;
  query::WorkloadGenerator gen(table, spec);
  Rng rng(77);
  std::vector<Query> queries;
  for (int i = 0; i < n; ++i) queries.push_back(gen.GenerateQuery(rng));
  queries.push_back(Query{});  // all-wildcard: selectivity 1
  Query contradiction;
  contradiction.predicates.push_back({0, query::PredOp::kLt, -1e9});
  queries.push_back(contradiction);  // empty range: selectivity 0
  return queries;
}

void ExpectBatchMatchesLoop(query::CardinalityEstimator& est,
                            const std::vector<Query>& queries) {
  const std::vector<double> batched = est.EstimateSelectivityBatch(queries);
  ASSERT_EQ(batched.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const double loop = est.EstimateSelectivity(queries[i]);
    EXPECT_NEAR(batched[i], loop, 1e-6 * std::max(1.0, std::fabs(loop)))
        << est.name() << " query " << i;
  }
}

TEST(BatchApiTest, DuetBatchMatchesLoop) {
  const data::Table t = SmallTable();
  core::DuetModelOptions opt;
  opt.hidden_sizes = {32, 32};
  core::DuetModel model(t, opt);
  core::DuetEstimator est(model);
  ExpectBatchMatchesLoop(est, TestQueries(t, 24, 0.0));
}

TEST(BatchApiTest, MpsnBatchMatchesLoop) {
  const data::Table t = SmallTable();
  core::DuetMpsnOptions opt;
  opt.base.hidden_sizes = {32, 32};
  opt.mpsn.max_preds = 2;
  core::DuetMpsnModel model(t, opt);
  core::DuetMpsnEstimator est(model);
  ExpectBatchMatchesLoop(est, TestQueries(t, 16, 0.5));
}

TEST(BatchApiTest, NaruBatchMatchesLoop) {
  const data::Table t = SmallTable();
  baselines::NaruOptions opt;
  opt.hidden_sizes = {32, 32};
  opt.num_samples = 24;
  baselines::NaruModel model(t, opt);
  baselines::NaruEstimator est(model);
  ExpectBatchMatchesLoop(est, TestQueries(t, 12, 0.0));
}

TEST(BatchApiTest, UaeBatchMatchesLoop) {
  const data::Table t = SmallTable();
  baselines::UaeOptions opt;
  opt.naru.hidden_sizes = {32, 32};
  opt.naru.num_samples = 24;
  baselines::UaeModel model(t, opt);
  baselines::UaeEstimator est(model);
  ExpectBatchMatchesLoop(est, TestQueries(t, 12, 0.0));
}

TEST(BatchApiTest, DuetSteadyStateBatchedForwardAllocatesNothing) {
  const data::Table t = SmallTable();
  core::DuetModelOptions opt;
  opt.hidden_sizes = {32, 32};
  core::DuetModel model(t, opt);
  const std::vector<Query> queries = TestQueries(t, 30, 0.0);

  tensor::InferenceArena::Clear();
  model.EstimateSelectivityBatch(queries);  // warm-up populates the arena
  tensor::InferenceArena::ResetStats();
  for (int pass = 0; pass < 3; ++pass) model.EstimateSelectivityBatch(queries);
  const tensor::InferenceArena::Stats stats = tensor::InferenceArena::stats();
  EXPECT_EQ(stats.fresh_allocs, 0u)
      << "steady-state batched forward must not allocate activation buffers";
  // The predicate-sparse estimate keeps its rows, slabs and logits in
  // per-thread scratch: it draws no tensor from the arena at all
  // (tests/test_plan.cc counts its heap allocations).
  EXPECT_EQ(stats.reuses, 0u);
  tensor::InferenceArena::Clear();
}

TEST(BatchApiTest, EvaluateQErrorsMatchesPerQueryPath) {
  const data::Table t = SmallTable();
  core::DuetModelOptions opt;
  opt.hidden_sizes = {32, 32};
  core::DuetModel model(t, opt);
  core::DuetEstimator est(model);

  query::WorkloadSpec spec;
  spec.num_queries = 20;
  spec.seed = 9;
  const query::Workload wl = query::WorkloadGenerator(t, spec).Generate();
  const auto batched = query::EvaluateQErrors(est, wl, t.num_rows());
  ASSERT_EQ(batched.size(), wl.size());
  for (size_t i = 0; i < wl.size(); ++i) {
    const double card = est.EstimateCardinality(wl[i].query, t.num_rows());
    const double expected = query::QError(card, static_cast<double>(wl[i].cardinality));
    EXPECT_NEAR(batched[i], expected, 1e-9) << "query " << i;
  }
}

}  // namespace
}  // namespace duet
