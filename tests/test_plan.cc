// Compiled inference-plan suite (nn/inference_plan.h): permutation parity,
// plan-cache coherence, backend-switch atomicity, and the fp16 backend.
//
// The contract under test (`ctest -L plan`):
//  * compiled-plan forwards with dense and CSR packs are BITWISE-equal to
//    the tracked (gradient-enabled) layer-by-layer forward that training
//    runs, for random MADE / ResMADE / MLP configs — the degree-sorted
//    output permutation changes the storage layout and the skipped zeros,
//    never a single accumulation order;
//  * int8 and f16 plans stay within their documented error bounds (f16:
//    relative weight error <= 2^-11 feeding an otherwise-exact forward);
//  * the plan cache obeys the packed-weights invalidation rules (parameter
//    version bumps and backend switches recompile, hits are counted);
//  * a backend switch racing concurrent forwards can never produce a torn
//    view: every planned forward matches exactly one backend's reference;
//  * FloatToHalf/HalfToFloat implement IEEE binary16 round-to-nearest-even;
//  * the predicate-sparse Duet estimate (core::EstimateSelectivities over
//    InferencePlan::ExecuteSparse) answers bitwise like the dense forward on
//    every backend, for in-memory and artifact-loaded models, and its heap
//    allocations do not grow with the frame.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "artifact/artifact.h"
#include "core/duet_model.h"
#include "data/generator.h"
#include "gtest/gtest.h"
#include "nn/inference_plan.h"
#include "nn/layers.h"
#include "nn/made.h"
#include "query/workload.h"
#include "tensor/packed_weights.h"
#include "tensor/tensor.h"

// Heap allocations counted while g_count_allocs is set (the allocation
// test below). Every form maps onto malloc/free, so sanitizer runtimes see
// matched pairs.
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<uint64_t> g_allocs{0};

void* CountedAlloc(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace duet {
namespace {

using nn::Made;
using nn::MadeOptions;
using tensor::Tensor;
using tensor::WeightBackend;

Tensor RandomInput(int64_t b, int64_t d, uint64_t seed, float zero_prob = 0.3f) {
  Rng rng(seed);
  Tensor x = Tensor::Zeros({b, d});
  float* p = x.data();
  for (int64_t i = 0; i < b * d; ++i) {
    // Exact zeros matter: every packed kernel keys on one-hot input sparsity.
    p[i] = rng.UniformFloat() < zero_prob ? 0.0f : (rng.UniformFloat() * 2.0f - 1.0f);
  }
  return x;
}

/// Uncompiled reference: the tracked layer walk (gradients enabled), i.e.
/// exactly the forward training runs.
template <typename Net>
std::vector<float> TrackedForward(const Net& net, const Tensor& x) {
  EXPECT_TRUE(tensor::NoGradGuard::GradEnabled());
  return net.Forward(x).value_vector();
}

template <typename Net>
std::vector<float> PlannedForward(const Net& net, const Tensor& x, WeightBackend backend) {
  net.SetInferenceBackend(backend);
  tensor::NoGradScope no_grad;
  Tensor y = net.Forward(x);
  return y.value_vector();
}

struct PlanCase {
  const char* name;
  bool residual;
  std::vector<int64_t> hidden;
};

class PlanParityTest : public ::testing::TestWithParam<PlanCase> {};

/// Random column-blocked configs: uneven block widths exercise multi-run
/// masks, heterogeneous hidden sizes exercise per-layer permutations.
MadeOptions RandomMadeOptions(const PlanCase& c, uint64_t seed) {
  Rng rng(seed);
  MadeOptions opt;
  const int cols = 3 + static_cast<int>(rng.UniformFloat() * 3.0f);  // 3..5
  for (int i = 0; i < cols; ++i) {
    opt.input_widths.push_back(2 + static_cast<int64_t>(rng.UniformFloat() * 5.0f));
    opt.output_widths.push_back(2 + static_cast<int64_t>(rng.UniformFloat() * 5.0f));
  }
  opt.hidden_sizes = c.hidden;
  opt.residual = c.residual;
  return opt;
}

TEST_P(PlanParityTest, DenseAndCsrPlansAreBitwiseEqualToUncompiled) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(100 + seed);
    Made made(RandomMadeOptions(GetParam(), seed), rng);
    for (int64_t batch : {1, 7, 64}) {
      const Tensor x = RandomInput(batch, made.input_dim(), 17 * seed + batch);
      const std::vector<float> reference = TrackedForward(made, x);
      // Bitwise: the permuted packs accumulate every output element in the
      // same k-ascending order as the unpermuted kernels and the gathering
      // epilogue applies the identical bias/activation expressions.
      EXPECT_EQ(PlannedForward(made, x, WeightBackend::kDenseF32), reference)
          << GetParam().name << " dense plan diverged (seed " << seed << ", batch "
          << batch << ")";
      EXPECT_EQ(PlannedForward(made, x, WeightBackend::kCsrF32), reference)
          << GetParam().name << " csr plan diverged (seed " << seed << ", batch "
          << batch << ")";
    }
  }
}

TEST_P(PlanParityTest, F16AndInt8PlansAreAccuracyBounded) {
  Rng rng(7);
  Made made(RandomMadeOptions(GetParam(), 2), rng);
  const Tensor x = RandomInput(9, made.input_dim(), 23);
  const std::vector<float> reference = TrackedForward(made, x);
  const std::vector<float> f16 = PlannedForward(made, x, WeightBackend::kF16);
  const std::vector<float> int8 = PlannedForward(made, x, WeightBackend::kInt8);
  ASSERT_EQ(f16.size(), reference.size());
  ASSERT_EQ(int8.size(), reference.size());
  double max_abs = 0.0;
  for (float v : reference) max_abs = std::max(max_abs, std::fabs(static_cast<double>(v)));
  for (size_t i = 0; i < reference.size(); ++i) {
    // f16 perturbs each weight by <= 2^-11 relative; through a handful of
    // layers the logit error stays far below 1% of the logit scale.
    EXPECT_NEAR(f16[i], reference[i], 0.01 * std::max(1.0, max_abs))
        << "f16 logit " << i;
    // int8 is the coarser format; generous end-to-end envelope.
    EXPECT_NEAR(int8[i], reference[i], 0.15 * std::max(1.0, max_abs))
        << "int8 logit " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Architectures, PlanParityTest,
    ::testing::Values(PlanCase{"PlainSmall", false, {32, 32}},
                      PlanCase{"PlainHetero", false, {48, 24, 40}},
                      PlanCase{"PlainDeep", false, {24, 24, 24, 24}},
                      PlanCase{"Res2x32", true, {32, 32}},
                      PlanCase{"Res3x24", true, {24, 24, 24}}),
    [](const ::testing::TestParamInfo<PlanCase>& info) { return info.param.name; });

/// Mlp (MSCN / LW-NN) has no masked layers: its plans skip the permutation
/// and dense packs share the live parameter handle, so dense and CSR plans
/// must still equal the tracked layer walk bitwise.
TEST(MlpPlanParityTest, DenseAndCsrPlansAreBitwiseEqualToUncompiled) {
  const std::vector<std::vector<int64_t>> shapes = {{7, 16, 1}, {12, 32, 24, 5}, {9, 8}};
  for (const std::vector<int64_t>& sizes : shapes) {
    for (uint64_t seed = 1; seed <= 2; ++seed) {
      Rng rng(300 + seed);
      const nn::Mlp mlp(sizes, rng);
      for (int64_t batch : {1, 7, 64}) {
        const Tensor x = RandomInput(batch, sizes.front(), 31 * seed + batch);
        const std::vector<float> reference = TrackedForward(mlp, x);
        EXPECT_EQ(PlannedForward(mlp, x, WeightBackend::kDenseF32), reference)
            << "dense plan diverged (" << sizes.size() - 1 << " layers, seed " << seed
            << ", batch " << batch << ")";
        EXPECT_EQ(PlannedForward(mlp, x, WeightBackend::kCsrF32), reference)
            << "csr plan diverged (" << sizes.size() - 1 << " layers, seed " << seed
            << ", batch " << batch << ")";
      }
    }
  }
}

// ----- permutation structure ----------------------------------------------

TEST(DegreeSortPermutationTest, SortsColumnsByDescendingNonzeroCount) {
  // Columns with 3, 1, 2, 3 nonzeros -> stable descending: 0, 3, 2, 1.
  Tensor w = Tensor::FromVector({3, 4}, {1.0f, 0.0f, 1.0f, 1.0f,  //
                                         1.0f, 0.0f, 0.0f, 1.0f,  //
                                         1.0f, 1.0f, 1.0f, 1.0f});
  const std::vector<int32_t> perm = tensor::DegreeSortPermutation(w);
  ASSERT_EQ(perm.size(), 4u);
  EXPECT_EQ(perm[0], 0);
  EXPECT_EQ(perm[1], 3);
  EXPECT_EQ(perm[2], 2);
  EXPECT_EQ(perm[3], 1);
}

TEST(DegreeSortPermutationTest, IdentityReturnsEmpty) {
  Tensor w = Tensor::FromVector({2, 3}, {1.0f, 1.0f, 0.0f,  //
                                         1.0f, 0.0f, 0.0f});
  EXPECT_TRUE(tensor::DegreeSortPermutation(w).empty());
}

TEST(PermutedPackTest, MadeMaskRowsDegenerateToSingleCsrRuns) {
  // A real MADE hidden mask: cycling degrees produce multiple runs per row
  // unpermuted; degree-sorted they must collapse to at most one run.
  const std::vector<int32_t> in_deg = nn::MadeInputDegrees({3, 3, 3, 3});
  const std::vector<int32_t> hid = nn::MadeHiddenDegrees(24, 4);
  Tensor mask = nn::BuildMadeMask(in_deg, hid, /*strict=*/false);
  // Use the mask itself as the weight (all allowed entries nonzero).
  const std::vector<int32_t> perm = tensor::DegreeSortPermutation(mask);
  ASSERT_FALSE(perm.empty());
  auto packed = tensor::PackWeights(mask, WeightBackend::kCsrF32, &perm);
  ASSERT_TRUE(packed->permuted());
  for (int64_t k = 0; k < packed->in; ++k) {
    const int32_t runs = packed->row_ptr[static_cast<size_t>(k) + 1] -
                         packed->row_ptr[static_cast<size_t>(k)];
    EXPECT_LE(runs, 1) << "row " << k << " not a single run after permutation";
  }
  // Unpermuted, the cycling-degree mask needs strictly more runs in total.
  auto unpermuted = tensor::PackWeights(mask, WeightBackend::kCsrF32);
  EXPECT_GT(unpermuted->row_ptr.back(), packed->row_ptr.back());
}

TEST(PermutedPackTest, DensePrefixLengthsCoverExactlyTheNonzeros) {
  Rng rng(3);
  const std::vector<int32_t> in_deg = nn::MadeInputDegrees({2, 4, 3});
  const std::vector<int32_t> hid = nn::MadeHiddenDegrees(17, 3);
  Tensor mask = nn::BuildMadeMask(in_deg, hid, /*strict=*/false);
  Tensor w = Tensor::Zeros({mask.dim(0), mask.dim(1)});
  for (int64_t i = 0; i < w.numel(); ++i) {
    w.data()[i] = mask.data()[i] * (rng.UniformFloat() + 0.5f);
  }
  const std::vector<int32_t> perm = tensor::DegreeSortPermutation(w);
  ASSERT_FALSE(perm.empty());
  auto packed = tensor::PackWeights(w, WeightBackend::kDenseF32, &perm);
  ASSERT_FALSE(packed->row_len16.empty());
  const float* dense = packed->dense.data();
  for (int64_t k = 0; k < packed->in; ++k) {
    const int64_t len = packed->row_len16[static_cast<size_t>(k)];
    for (int64_t p = len; p < packed->out; ++p) {
      EXPECT_EQ(dense[k * packed->out + p], 0.0f)
          << "nonzero beyond prefix at row " << k << " col " << p;
    }
    if (len > 0) EXPECT_NE(dense[k * packed->out + len - 1], 0.0f);
  }
}

// ----- plan cache coherence ------------------------------------------------

TEST(PlanCacheTest, CompilesOnceThenHits) {
  Rng rng(5);
  MadeOptions opt;
  opt.input_widths = {3, 4};
  opt.output_widths = {3, 4};
  opt.hidden_sizes = {16, 16};
  Made made(opt, rng);
  const Tensor x = RandomInput(2, made.input_dim(), 9);
  tensor::NoGradScope no_grad;
  made.Forward(x);
  const nn::PlanTelemetry after_first = made.PlanInfo();
  EXPECT_EQ(after_first.compiles, 1u);
  made.Forward(x);
  made.Forward(x);
  const nn::PlanTelemetry after_three = made.PlanInfo();
  EXPECT_EQ(after_three.compiles, 1u) << "steady-state forwards must not recompile";
  EXPECT_EQ(after_three.cache_hits, after_first.cache_hits + 2);
  EXPECT_GT(made.PlanBytes(), 0u);
}

TEST(PlanCacheTest, ParameterVersionBumpRecompiles) {
  Rng rng(6);
  MadeOptions opt;
  opt.input_widths = {3, 3};
  opt.output_widths = {3, 3};
  opt.hidden_sizes = {12};
  Made made(opt, rng);
  const Tensor x = RandomInput(1, made.input_dim(), 11);
  tensor::NoGradScope no_grad;
  const std::vector<float> before = made.Forward(x).value_vector();
  {
    tensor::ParameterMutationGuard guard;
    tensor::Tensor w0 = made.parameters()[0];  // shared handle, same storage
    w0.data()[0] += 1.0f;
  }
  const std::vector<float> after = made.Forward(x).value_vector();
  EXPECT_EQ(made.PlanInfo().compiles, 2u) << "version bump must recompile the plan";
  EXPECT_NE(before, after) << "stale plan served after parameter mutation";
}

TEST(PlanCacheTest, BackendSwitchRecompiles) {
  Rng rng(8);
  MadeOptions opt;
  opt.input_widths = {4, 2};
  opt.output_widths = {2, 4};
  opt.hidden_sizes = {10, 10};
  Made made(opt, rng);
  const Tensor x = RandomInput(1, made.input_dim(), 13);
  tensor::NoGradScope no_grad;
  made.Forward(x);
  made.SetInferenceBackend(WeightBackend::kCsrF32);
  made.Forward(x);
  EXPECT_EQ(made.PlanInfo().compiles, 2u);
  made.SetInferenceBackend(WeightBackend::kDenseF32);
  made.Forward(x);
  EXPECT_EQ(made.PlanInfo().compiles, 3u);
}

TEST(PlanCacheTest, TrainingForwardsBypassThePlan) {
  Rng rng(9);
  MadeOptions opt;
  opt.input_widths = {3, 3};
  opt.output_widths = {3, 3};
  opt.hidden_sizes = {8};
  Made made(opt, rng);
  const Tensor x = RandomInput(2, made.input_dim(), 15);
  Tensor y = made.Forward(x);  // gradients enabled: must stay on the graph path
  EXPECT_EQ(made.PlanInfo().compiles, 0u);
  EXPECT_EQ(made.PlanBytes(), 0u);
  EXPECT_TRUE(static_cast<bool>(y.impl()->backward) || !y.impl()->parents.empty());
}

// ----- backend-switch atomicity (the SetInferenceBackend race guard) -------

TEST(PlanBackendSwitchTest, ConcurrentSwitchNeverYieldsTornForwards) {
  // Hammer no-grad forwards from worker threads while the main thread flips
  // the backend. Planned forwards resolve their backend exactly once per
  // forward (one atomically published program), so every observed output
  // must equal one of the per-backend references — a mixed or torn result
  // fails. This is the enforcement test for the SetInferenceBackend /
  // Forward publication contract.
  Rng rng(12);
  MadeOptions opt;
  opt.input_widths = {3, 4, 2};
  opt.output_widths = {4, 3, 2};
  opt.hidden_sizes = {24, 24};
  opt.residual = true;
  Made made(opt, rng);
  const Tensor x = RandomInput(2, made.input_dim(), 21);

  const std::vector<WeightBackend> backends = {WeightBackend::kDenseF32,
                                               WeightBackend::kCsrF32, WeightBackend::kInt8,
                                               WeightBackend::kF16};
  std::vector<std::vector<float>> refs;
  for (WeightBackend b : backends) refs.push_back(PlannedForward(made, x, b));
  // dense and csr are bitwise-equal; int8/f16 must differ from dense here so
  // the membership check below can actually detect cross-backend mixing.
  ASSERT_EQ(refs[0], refs[1]);
  ASSERT_NE(refs[0], refs[2]);
  ASSERT_NE(refs[0], refs[3]);

  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      tensor::NoGradScope no_grad;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::vector<float> y = made.Forward(x).value_vector();
        bool match = false;
        for (const auto& ref : refs) match |= (y == ref);
        if (!match) torn.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int round = 0; round < 200; ++round) {
    made.SetInferenceBackend(backends[static_cast<size_t>(round) % backends.size()]);
    std::this_thread::yield();
  }
  stop.store(true);
  for (auto& w : workers) w.join();
  EXPECT_EQ(torn.load(), 0) << "a forward observed a torn/mixed backend view";
}

// ----- fp16 conversion ----------------------------------------------------

TEST(HalfFloatTest, RoundTripsExactHalfValues) {
  const float exact[] = {0.0f,   -0.0f, 1.0f,     -1.0f,   0.5f,    65504.0f,
                         -2.75f, 0.125f, 1024.0f, -0.0625f, 6.103515625e-05f};
  for (float v : exact) {
    EXPECT_EQ(tensor::HalfToFloat(tensor::FloatToHalf(v)), v) << "value " << v;
  }
}

TEST(HalfFloatTest, RoundsToNearestEven) {
  // 1 + 2^-11 sits exactly between 1.0 and the next half (1 + 2^-10):
  // round-to-even picks 1.0. 1 + 3*2^-11 sits between 1+2^-10 and 1+2^-9...
  // even mantissa again: 1 + 2^-9? No: nearest-even of an exact tie picks
  // the even mantissa, i.e. 1 + 2^-10 rounds up to 1 + 2*2^-10.
  EXPECT_EQ(tensor::HalfToFloat(tensor::FloatToHalf(1.0f + 0.00048828125f)), 1.0f);
  EXPECT_EQ(tensor::HalfToFloat(tensor::FloatToHalf(1.0f + 3.0f * 0.00048828125f)),
            1.0f + 2.0f * 0.0009765625f);
}

TEST(HalfFloatTest, SaturatesAndPreservesSpecials) {
  EXPECT_EQ(tensor::FloatToHalf(1e6f), 0x7c00);                 // +inf
  EXPECT_EQ(tensor::FloatToHalf(-1e6f), 0xfc00);                // -inf
  EXPECT_EQ(tensor::FloatToHalf(65520.0f), 0x7c00);             // rounds up to inf
  EXPECT_EQ(tensor::HalfToFloat(0x7c00), HUGE_VALF);            // inf decodes
  EXPECT_TRUE(std::isnan(tensor::HalfToFloat(tensor::FloatToHalf(NAN))));
  // Subnormals survive the round trip.
  const float sub = 5.960464477539063e-08f;  // 2^-24, min half subnormal
  EXPECT_EQ(tensor::HalfToFloat(tensor::FloatToHalf(sub)), sub);
  EXPECT_EQ(tensor::FloatToHalf(1e-9f), 0);  // below half of min subnormal
}

TEST(HalfFloatTest, RelativeErrorBoundHoldsForNormals) {
  Rng rng(33);
  for (int i = 0; i < 2000; ++i) {
    const float v = (rng.UniformFloat() * 2.0f - 1.0f) * 100.0f;
    if (std::fabs(v) < 1e-3f) continue;
    const float d = tensor::HalfToFloat(tensor::FloatToHalf(v));
    EXPECT_LE(std::fabs(d - v), std::fabs(v) * (1.0f / 2048.0f) + 1e-12f)
        << "value " << v;
  }
}

// ----- end-to-end: f16 through the estimator and serving engine ------------

TEST(F16BackendTest, MedianQErrorWithinOnePercentOfDense) {
  const data::Table t = data::CensusLike(500, 19);
  core::DuetModelOptions opt;
  opt.hidden_sizes = {48, 48};
  opt.residual = true;
  core::DuetModel model(t, opt);
  core::DuetEstimator est(model);
  query::WorkloadSpec spec;
  spec.num_queries = 64;
  spec.seed = 77;
  const query::Workload wl = query::WorkloadGenerator(t, spec).Generate();
  std::vector<query::Query> queries;
  for (const auto& lq : wl) queries.push_back(lq.query);

  auto median_qerr = [&](WeightBackend b) {
    model.SetInferenceBackend(b);
    const std::vector<double> est_cards =
        est.EstimateCardinalityBatch(queries, t.num_rows());
    std::vector<double> errs;
    for (size_t i = 0; i < wl.size(); ++i) {
      errs.push_back(query::QError(est_cards[i], static_cast<double>(wl[i].cardinality)));
    }
    std::sort(errs.begin(), errs.end());
    return errs[errs.size() / 2];
  };
  const double dense = median_qerr(WeightBackend::kDenseF32);
  const double f16 = median_qerr(WeightBackend::kF16);
  EXPECT_NEAR(f16, dense, 0.01 * dense) << "f16 median q-error drifted >1% from fp32";
}

// ----- predicate-sparse estimates ------------------------------------------

/// Random query over `t` of one of the shapes the sparse path must get
/// right: all-wildcard, one column, every column, two-sided ranges (two
/// predicates on a column), a contradictory range, and a random mix with
/// equality on values the column may not hold.
query::Query RandomMaskQuery(const data::Table& t, Rng& rng) {
  query::Query q;
  const int cols = t.num_columns();
  auto value = [&](int c) {
    const data::Column& col = t.column(c);
    return col.Value(static_cast<int32_t>(rng.UniformInt(static_cast<uint64_t>(col.ndv()))));
  };
  auto one = [&](int c) {
    const auto op = static_cast<query::PredOp>(rng.UniformInt(query::kNumPredOps));
    q.predicates.push_back({c, op, value(c)});
  };
  auto two_sided = [&](int c) {
    const double a = value(c), b = value(c);
    q.predicates.push_back({c, query::PredOp::kGe, std::min(a, b)});
    q.predicates.push_back({c, query::PredOp::kLe, std::max(a, b)});
  };
  switch (rng.UniformInt(6)) {
    case 0:  // all-wildcard
      break;
    case 1:
      one(static_cast<int>(rng.UniformInt(static_cast<uint64_t>(cols))));
      break;
    case 2:
      for (int c = cols - 1; c >= 0; --c) one(c);  // unsorted on purpose
      break;
    case 3:
      for (int c = 0; c < cols; ++c) {
        if (rng.UniformFloat() < 0.2f) two_sided(c);
      }
      break;
    case 4: {  // contradictory: x > max and x < min on one column
      const int c = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(cols)));
      const data::Column& col = t.column(c);
      q.predicates.push_back({c, query::PredOp::kGt, col.Value(col.ndv() - 1)});
      q.predicates.push_back({c, query::PredOp::kLt, col.Value(0)});
      one(static_cast<int>(rng.UniformInt(static_cast<uint64_t>(cols))));
      break;
    }
    default:
      for (int c = 0; c < cols; ++c) {
        if (rng.UniformFloat() < 0.1f) one(c);
      }
      if (rng.UniformFloat() < 0.5f) {
        const int c = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(cols)));
        q.predicates.push_back({c, query::PredOp::kEq, value(c) + 0.5});
      }
      break;
  }
  return q;
}

/// The dense oracle: EncodeQueryRow into a dense frame, the plan's dense
/// ExecuteInto, then MaskedLogSelectivity over the full logits rows.
std::vector<double> DenseEstimates(const data::Table& t, const core::DuetInputEncoder& encoder,
                                   const std::vector<tensor::BlockSpec>& blocks,
                                   const nn::InferencePlan& plan,
                                   const std::vector<query::Query>& queries) {
  tensor::NoGradScope no_grad;
  const int64_t n = static_cast<int64_t>(queries.size());
  const int64_t d = encoder.total_width();
  const int64_t o = plan.output_dim();
  std::vector<float> x(static_cast<size_t>(n * d), 0.0f);
  std::vector<float> logits(static_cast<size_t>(n * o));
  for (int64_t r = 0; r < n; ++r) {
    encoder.EncodeQueryRow(t, queries[static_cast<size_t>(r)], x.data() + r * d);
  }
  plan.ExecuteInto(x.data(), n, logits.data());
  std::vector<double> sels(static_cast<size_t>(n));
  for (int64_t r = 0; r < n; ++r) {
    const query::Query& q = queries[static_cast<size_t>(r)];
    double log_sel = 0.0;
    const bool ok = core::MaskedLogSelectivity(logits.data() + r * o, blocks,
                                               q.PerColumnRanges(t), t.num_columns(), &log_sel);
    sels[static_cast<size_t>(r)] = ok ? std::exp(log_sel) : 0.0;
  }
  return sels;
}

std::vector<tensor::BlockSpec> NdvBlocks(const data::Table& t) {
  std::vector<tensor::BlockSpec> blocks;
  int64_t offset = 0;
  for (int c = 0; c < t.num_columns(); ++c) {
    blocks.push_back({offset, t.column(c).ndv()});
    offset += t.column(c).ndv();
  }
  return blocks;
}

/// Bitwise comparison that names the first differing query.
void ExpectSameBits(const std::vector<double>& got, const std::vector<double>& want,
                    const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::memcmp(&got[i], &want[i], sizeof(double)), 0)
        << what << ": query " << i << " sparse " << got[i] << " dense " << want[i];
  }
}

struct SparseCase {
  const char* name;
  bool kdd;
};

class SparseEstimateTest
    : public ::testing::TestWithParam<std::tuple<SparseCase, WeightBackend>> {};

TEST_P(SparseEstimateTest, SelectiveEqualsDenseBitwise) {
  const SparseCase c = std::get<0>(GetParam());
  const WeightBackend backend = std::get<1>(GetParam());
  const data::Table t = c.kdd ? data::KddLike(400, 100, 5) : data::CensusLike(400, 5);
  core::DuetModelOptions opt;
  opt.hidden_sizes = {32, 32};
  opt.residual = c.kdd;  // both MADE program shapes: ResMADE and plain
  core::DuetModel model(t, opt);
  model.SetInferenceBackend(backend);

  const std::string path = "/tmp/duet_plan_" + std::to_string(::getpid()) + "_" + c.name +
                           "_" + tensor::WeightBackendName(backend) + ".duet";
  ASSERT_TRUE(artifact::WriteArtifact(path, model, backend).ok);
  std::shared_ptr<const artifact::ArtifactModel> loaded;
  const artifact::ArtifactStatus st = artifact::LoadArtifact(path, {}, &loaded);
  std::remove(path.c_str());
  ASSERT_TRUE(st.ok) << st.error;
  const core::DuetInputEncoder loaded_encoder(loaded->table(), loaded->encoding());

  Rng rng(31);
  for (int64_t batch : {1, 7, 64, 129}) {
    std::vector<query::Query> queries;
    for (int64_t i = 0; i < batch; ++i) queries.push_back(RandomMaskQuery(t, rng));
    const std::string tag = std::string(c.name) + "/" + tensor::WeightBackendName(backend) +
                            " batch " + std::to_string(batch);
    const std::vector<double> want = DenseEstimates(
        t, model.encoder(), model.made().output_blocks(), *model.made().Plan(), queries);
    if (batch >= 64) {  // the frame mixes all three outcomes
      auto between = [](double v) { return v > 0.0 && v < 1.0; };
      EXPECT_GT(std::count(want.begin(), want.end(), 0.0), 0) << tag;
      EXPECT_GT(std::count(want.begin(), want.end(), 1.0), 0) << tag;
      EXPECT_GT(std::count_if(want.begin(), want.end(), between), 0) << tag;
    }
    ExpectSameBits(model.EstimateSelectivityBatch(queries), want, "DuetModel " + tag);
    ExpectSameBits(DenseEstimates(loaded->table(), loaded_encoder, NdvBlocks(loaded->table()),
                                  loaded->plan(), queries),
                   want, "artifact dense oracle " + tag);
    ExpectSameBits(loaded->EstimateSelectivityBatch(queries), want, "ArtifactModel " + tag);
    const double single = model.EstimateSelectivity(queries.back());
    ExpectSameBits({single}, {want.back()}, "DuetModel single " + tag);
    ExpectSameBits({loaded->EstimateSelectivity(queries.back())}, {want.back()},
                   "ArtifactModel single " + tag);
  }
}

INSTANTIATE_TEST_SUITE_P(
    TablesAndBackends, SparseEstimateTest,
    ::testing::Combine(::testing::Values(SparseCase{"Kdd100", true},
                                         SparseCase{"Census", false}),
                       ::testing::Values(WeightBackend::kDenseF32, WeightBackend::kCsrF32,
                                         WeightBackend::kInt8, WeightBackend::kF16,
                                         WeightBackend::kInt4)),
    [](const ::testing::TestParamInfo<std::tuple<SparseCase, WeightBackend>>& info) {
      return std::string(std::get<0>(info.param).name) + "_" +
             tensor::WeightBackendName(std::get<1>(info.param));
    });

/// Heap allocations of one EstimateSelectivityBatch call.
template <typename Model>
uint64_t CountAllocs(const Model& model, const std::vector<query::Query>& queries) {
  g_allocs.store(0);
  g_count_allocs.store(true);
  const std::vector<double> sels = model.EstimateSelectivityBatch(queries);
  g_count_allocs.store(false);
  EXPECT_EQ(sels.size(), queries.size());
  return g_allocs.load();
}

TEST(SparseEstimateAllocTest, HeapAllocationsDoNotGrowWithTheFrame) {
  // 8 and 32 queries both stay below every parallel threshold for this
  // model, so any difference in the counts is per-query allocation.
  const data::Table t = data::KddLike(400, 100, 9);
  core::DuetModelOptions opt;
  opt.hidden_sizes = {32, 32};
  opt.residual = true;
  core::DuetModel model(t, opt);
  const std::string path = "/tmp/duet_plan_" + std::to_string(::getpid()) + "_alloc.duet";
  ASSERT_TRUE(artifact::WriteArtifact(path, model, WeightBackend::kDenseF32).ok);
  std::shared_ptr<const artifact::ArtifactModel> loaded;
  ASSERT_TRUE(artifact::LoadArtifact(path, {}, &loaded).ok);
  std::remove(path.c_str());

  Rng rng(12);
  std::vector<query::Query> small, large;
  for (int i = 0; i < 8; ++i) small.push_back(RandomMaskQuery(t, rng));
  for (int i = 0; i < 32; ++i) large.push_back(RandomMaskQuery(t, rng));
  for (const std::vector<query::Query>* frame : {&small, &large}) {
    model.EstimateSelectivityBatch(*frame);  // grows the per-thread scratch
    loaded->EstimateSelectivityBatch(*frame);
  }
  EXPECT_EQ(CountAllocs(model, small), CountAllocs(model, large)) << "DuetModel";
  EXPECT_EQ(CountAllocs(*loaded, small), CountAllocs(*loaded, large)) << "ArtifactModel";
}

}  // namespace
}  // namespace duet
