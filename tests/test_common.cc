// Unit tests for the common substrate: PRNG + distributions, thread pool,
// stats, serialization, flags.
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "gtest/gtest.h"

namespace duet {
namespace {

TEST(RngTest, DeterministicPerSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a(), b());
  Rng a2(123);
  EXPECT_NE(a2(), c());
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.UniformInt(17), 17u);
  }
}

TEST(RngTest, UniformIntCoversAllValues) {
  Rng rng(2);
  std::vector<int> seen(5, 0);
  for (int i = 0; i < 5000; ++i) seen[static_cast<size_t>(rng.UniformInt(5))]++;
  for (int count : seen) EXPECT_GT(count, 800);  // ~1000 expected each
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(4);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.UniformDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(5);
  double sum = 0.0, sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(RngTest, GammaMeanMatchesShapeScale) {
  Rng rng(6);
  const double shape = 2.0, scale = 1.5;
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gamma(shape, scale);
    EXPECT_GT(g, 0.0);
    sum += g;
  }
  EXPECT_NEAR(sum / n, shape * scale, 0.05);
}

TEST(RngTest, GammaShapeBelowOne) {
  Rng rng(7);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.Gamma(0.5, 2.0);
  EXPECT_NEAR(sum / n, 1.0, 0.05);
}

TEST(RngTest, PermutationIsValid) {
  Rng rng(8);
  auto perm = rng.Permutation(100);
  std::vector<bool> seen(100, false);
  for (uint32_t v : perm) {
    ASSERT_LT(v, 100u);
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(RngTest, SplitGivesIndependentStream) {
  Rng a(9);
  Rng b = a.Split();
  EXPECT_NE(a(), b());
}

TEST(ZipfTest, PmfSumsToOne) {
  ZipfDistribution z(50, 1.1);
  double total = 0.0;
  for (uint32_t i = 0; i < 50; ++i) total += z.Pmf(i);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfTest, RankZeroMostFrequent) {
  ZipfDistribution z(20, 1.2);
  EXPECT_GT(z.Pmf(0), z.Pmf(1));
  EXPECT_GT(z.Pmf(1), z.Pmf(10));
}

TEST(ZipfTest, ZeroExponentIsUniform) {
  ZipfDistribution z(10, 0.0);
  for (uint32_t i = 0; i < 10; ++i) EXPECT_NEAR(z.Pmf(i), 0.1, 1e-9);
}

TEST(ZipfTest, SampleFrequenciesFollowPmf) {
  Rng rng(10);
  ZipfDistribution z(8, 1.0);
  std::vector<int> counts(8, 0);
  const int n = 80000;
  for (int i = 0; i < n; ++i) counts[z.Sample(rng)]++;
  for (uint32_t i = 0; i < 8; ++i) {
    EXPECT_NEAR(static_cast<double>(counts[i]) / n, z.Pmf(i), 0.01);
  }
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(0, 1000, [&](int64_t i) { hits[static_cast<size_t>(i)]++; }, true, 16);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ChunkedCoversRangeOnce) {
  std::atomic<int64_t> total{0};
  ParallelForChunked(
      0, 12345, [&](int64_t lo, int64_t hi) { total += hi - lo; }, true, 7);
  EXPECT_EQ(total.load(), 12345);
}

TEST(ThreadPoolTest, SerialFallback) {
  int64_t sum = 0;  // no atomics needed: serial path
  ParallelFor(0, 100, [&](int64_t i) { sum += i; }, /*parallel=*/false);
  EXPECT_EQ(sum, 4950);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  std::atomic<int64_t> total{0};
  ParallelFor(
      0, 8,
      [&](int64_t) {
        ParallelFor(0, 100, [&](int64_t) { total++; }, true, 1);
      },
      true, 1);
  EXPECT_EQ(total.load(), 800);
}

TEST(ThreadPoolTest, EscapedSubmitExceptionDoesNotKillWorkers) {
  // A raw Submit task that throws must not terminate the process or wedge
  // the pool: the worker swallows it, bumps the counter, and keeps serving.
  ThreadPool pool(2);
  const uint64_t before = pool.escaped_exceptions();
  for (int i = 0; i < 4; ++i) {
    pool.Submit([] { throw std::runtime_error("task failed"); });
  }
  pool.Wait();
  EXPECT_EQ(pool.escaped_exceptions(), before + 4);
  // The pool is still fully operational afterwards.
  std::atomic<int64_t> sum{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&, i] { sum += i; });
  }
  pool.Wait();
  EXPECT_EQ(sum.load(), 4950);
  EXPECT_EQ(pool.escaped_exceptions(), before + 4);
}

TEST(ThreadPoolTest, ParallelForChunkedRethrowsOnCaller) {
  // Exceptions from chunk bodies must surface on the calling thread (first
  // one wins), after all chunks have finished — not via std::terminate.
  std::atomic<int64_t> executed{0};
  bool caught = false;
  try {
    ParallelForChunked(
        0, 1000,
        [&](int64_t lo, int64_t hi) {
          executed += hi - lo;
          if (lo == 0) throw std::runtime_error("chunk exploded");
        },
        /*parallel=*/true, /*grain=*/100);
  } catch (const std::runtime_error& e) {
    caught = true;
    EXPECT_STREQ(e.what(), "chunk exploded");
  }
  EXPECT_TRUE(caught);
  // The pool survives for subsequent clean runs.
  std::atomic<int64_t> sum{0};
  ParallelFor(0, 100, [&](int64_t i) { sum += i; }, true, 1);
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPoolTest, ParallelForChunkedSerialPathAlsoThrows) {
  EXPECT_THROW(ParallelForChunked(
                   0, 10, [](int64_t, int64_t) { throw std::logic_error("serial"); },
                   /*parallel=*/false),
               std::logic_error);
}

TEST(ThreadPoolTest, ConcurrentCallersWaitOnlyForTheirOwnChunks) {
  // Caller A parks both of its chunks on a gate, holding 2 of the 4 pool
  // workers; caller B then runs a small batch on the free workers. B must
  // return while A is still parked: a call waits for its own chunks, not
  // for every task in the shared pool. The gate opens on every exit path,
  // so a failing run reports instead of hanging.
  ThreadPool::SetGlobalThreads(4);
  std::mutex mu;
  std::condition_variable cv;
  bool gate_open = false;
  int parked = 0;
  std::atomic<bool> b_returned{false};
  std::atomic<int64_t> b_sum{0};
  std::thread a, b;
  struct Cleanup {
    std::function<void()> fn;
    ~Cleanup() { fn(); }
  } cleanup{[&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      gate_open = true;
    }
    cv.notify_all();
    if (a.joinable()) a.join();
    if (b.joinable()) b.join();
    ThreadPool::SetGlobalThreads(0);
  }};

  a = std::thread([&] {
    ParallelForChunked(
        0, 2,
        [&](int64_t, int64_t) {
          std::unique_lock<std::mutex> lock(mu);
          ++parked;
          cv.notify_all();
          cv.wait(lock, [&] { return gate_open; });
        },
        /*parallel=*/true, /*grain=*/1);
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10), [&] { return parked == 2; }))
        << "caller A's chunks never reached the gate";
  }
  b = std::thread([&] {
    ParallelForChunked(
        0, 64,
        [&](int64_t lo, int64_t hi) {
          for (int64_t i = lo; i < hi; ++i) b_sum += i;
        },
        /*parallel=*/true, /*grain=*/1);
    b_returned = true;
  });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (!b_returned && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(b_returned.load()) << "caller B waited on caller A's parked chunks";
  EXPECT_EQ(b_sum.load(), 64 * 63 / 2);
}

TEST(StatsTest, PercentileInterpolates) {
  std::vector<double> v = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 4.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 2.5);
}

TEST(StatsTest, SummaryFields) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  const ErrorSummary s = ErrorSummary::FromValues(v);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_NEAR(s.median, 50.5, 1e-9);
  EXPECT_NEAR(s.p99, 99.01, 1e-9);
}

TEST(SerializeTest, RoundTripAllTypes) {
  std::stringstream buf;
  BinaryWriter w(buf);
  w.WriteU32(7);
  w.WriteU64(1ULL << 40);
  w.WriteI64(-42);
  w.WriteF32(1.5f);
  w.WriteF64(2.25);
  w.WriteString("hello");
  w.WriteF32Vector({1.0f, 2.0f});
  w.WriteI64Vector({-1, 2, -3});
  w.WriteU32Vector({9, 8});
  BinaryReader r(buf);
  EXPECT_EQ(r.ReadU32(), 7u);
  EXPECT_EQ(r.ReadU64(), 1ULL << 40);
  EXPECT_EQ(r.ReadI64(), -42);
  EXPECT_FLOAT_EQ(r.ReadF32(), 1.5f);
  EXPECT_DOUBLE_EQ(r.ReadF64(), 2.25);
  EXPECT_EQ(r.ReadString(), "hello");
  EXPECT_EQ(r.ReadF32Vector(), (std::vector<float>{1.0f, 2.0f}));
  EXPECT_EQ(r.ReadI64Vector(), (std::vector<int64_t>{-1, 2, -3}));
  EXPECT_EQ(r.ReadU32Vector(), (std::vector<uint32_t>{9, 8}));
}

TEST(SerializeTest, TruncatedStreamDies) {
  std::stringstream buf;
  BinaryWriter w(buf);
  w.WriteU32(1);
  BinaryReader r(buf);
  r.ReadU32();
  EXPECT_DEATH(r.ReadU64(), "truncated");
}

TEST(FlagsTest, ParsesTypes) {
  const char* argv[] = {"prog", "--rows=100", "--lr=0.5", "--verbose", "--name=abc",
                        "--flag=false", "positional"};
  Flags flags(7, const_cast<char**>(argv),
              {"rows", "lr", "verbose", "name", "flag", "missing", "nope"});
  EXPECT_EQ(flags.GetInt("rows", 0), 100);
  EXPECT_DOUBLE_EQ(flags.GetDouble("lr", 0.0), 0.5);
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_FALSE(flags.GetBool("flag", true));
  EXPECT_EQ(flags.GetString("name", ""), "abc");
  EXPECT_EQ(flags.GetInt("missing", -7), -7);
  EXPECT_TRUE(flags.Has("rows"));
  EXPECT_FALSE(flags.Has("nope"));
}

TEST(FlagsDeathTest, UnknownFlagExitsNamingIt) {
  // A typo must stop the run, not let it proceed on defaults.
  const char* argv[] = {"prog", "--rows=100", "--rwos=5"};
  EXPECT_EXIT(Flags(3, const_cast<char**>(argv), {"rows"}), ::testing::ExitedWithCode(2),
              "unknown flag --rwos");
  // Reading a name the binary did not declare is a programming error.
  const char* ok_argv[] = {"prog", "--rows=100"};
  const Flags flags(2, const_cast<char**>(ok_argv), {"rows"});
  EXPECT_DEATH(flags.GetInt("queries", 0), "--queries is read but not declared");
}

TEST(FlagsDeathTest, MalformedNumberExitsNamingIt) {
  // A numeric flag must parse whole: no uncaught exception, no silent prefix.
  const char* argv[] = {"prog", "--models=abc", "--rows=12abc", "--lr=0.5x", "--n=", "--big=1e999"};
  const Flags flags(6, const_cast<char**>(argv), {"models", "rows", "lr", "n", "big"});
  EXPECT_EXIT(flags.GetInt("models", 0), ::testing::ExitedWithCode(2), "malformed --models=abc");
  EXPECT_EXIT(flags.GetInt("rows", 0), ::testing::ExitedWithCode(2), "malformed --rows=12abc");
  EXPECT_EXIT(flags.GetDouble("lr", 0.0), ::testing::ExitedWithCode(2), "malformed --lr=0.5x");
  EXPECT_EXIT(flags.GetInt("n", 0), ::testing::ExitedWithCode(2), "malformed --n=");
  EXPECT_EXIT(flags.GetDouble("big", 0.0), ::testing::ExitedWithCode(2), "malformed --big=1e999");
}

}  // namespace
}  // namespace duet

// ---------------------------------------------------------------------------
// Global pool resizing (thread-scaling ablation support)
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, SetGlobalThreadsResizesAndStillRuns) {
  duet::ThreadPool::SetGlobalThreads(2);
  EXPECT_EQ(duet::ThreadPool::Global().num_threads(), 2u);
  std::atomic<int64_t> sum{0};
  duet::ParallelFor(0, 1000, [&](int64_t i) { sum += i; }, true, 1);
  EXPECT_EQ(sum.load(), 499500);
  duet::ThreadPool::SetGlobalThreads(0);  // restore hardware default
  EXPECT_GE(duet::ThreadPool::Global().num_threads(), 1u);
}
