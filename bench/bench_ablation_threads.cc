// Thread-scaling ablation (paper Sec. IV-E: "the N^2 part comes from the
// matrix multiplication and can be highly paralleled on the CPU with AVX
// instruction set", and Sec. IV-C's per-column parallel sampler).
//
// Sweeps the worker count and measures three parallel paths: batched
// estimation (the GPU-batching stand-in), Algorithm 1's virtual-tuple
// sampler, and single-query latency (whose small matmuls saturate early —
// the honest part of the curve).
//
// Flags: --rows=N --queries=N
#include <cstdio>
#include <numeric>

#include "bench/bench_util.h"
#include "common/thread_pool.h"
#include "core/sampler.h"

int main(int argc, char** argv) {
  using namespace duet;
  using namespace duet::bench;
  Flags flags(argc, argv, {"queries", "rows"});
  const double scale = Flags::ScaleFactor();
  const int queries = static_cast<int>(flags.GetInt("queries", 256));

  data::Table t =
      data::DmvLike(flags.GetInt("rows", static_cast<int64_t>(20000 * scale)), 42);
  const query::Workload rand_q = MakeRandQ(t, queries);
  std::vector<query::Query> probe;
  probe.reserve(rand_q.size());
  for (const auto& lq : rand_q) probe.push_back(lq.query);

  // One trained model reused across thread counts (weights fixed; only the
  // execution substrate changes).
  core::DuetModel model(t, DuetOptionsFor(t));
  {
    core::TrainOptions topt;
    topt.epochs = 2;
    topt.batch_size = 256;
    core::DuetTrainer(model, topt).Train();
  }

  core::SamplerOptions sopt;
  sopt.expand = 4;
  core::VirtualTupleSampler sampler(t, sopt);
  std::vector<int64_t> anchors(2048);
  std::iota(anchors.begin(), anchors.end(), 0);

  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("Thread scaling on %s (%lld rows x %d cols), %u hardware threads\n",
              t.name().c_str(), static_cast<long long>(t.num_rows()), t.num_columns(),
              hw);
  std::printf("%-8s %16s %16s %16s\n", "threads", "batch est(ms/q)", "sampler(Mtuple/s)",
              "single est(ms)");

  std::vector<unsigned> sweep;
  for (unsigned threads : {1u, 2u, 4u, hw}) {
    if (threads == 0 || threads > hw) continue;  // no oversubscription rows
    if (!sweep.empty() && threads <= sweep.back()) continue;
    sweep.push_back(threads);
  }
  std::string json_rows;
  for (unsigned threads : sweep) {
    ThreadPool::SetGlobalThreads(threads);

    Timer timer;
    model.EstimateSelectivityBatch(probe);
    const double batch_ms = timer.Millis() / static_cast<double>(probe.size());

    timer.Reset();
    const int kReps = 10;
    for (int r = 0; r < kReps; ++r) sampler.Sample(anchors, 1234 + r);
    const double tuples = static_cast<double>(kReps) *
                          static_cast<double>(anchors.size()) * sopt.expand;
    const double mtps = tuples / (timer.Millis() * 1000.0);

    timer.Reset();
    for (const query::Query& q : probe) model.EstimateSelectivity(q);
    const double single_ms = timer.Millis() / static_cast<double>(probe.size());

    std::printf("%-8u %16.4f %16.3f %16.4f\n", threads, batch_ms, mtps, single_ms);

    char row[160];
    std::snprintf(row, sizeof(row),
                  "%s{\"threads\":%u,\"batch_ms_per_q\":%.4f,\"sampler_mtps\":%.3f,"
                  "\"single_ms\":%.4f}",
                  json_rows.empty() ? "" : ",", threads, batch_ms, mtps, single_ms);
    json_rows += row;
  }
  ThreadPool::SetGlobalThreads(0);  // restore the default

  std::printf(
      "\nExpected shape: batched estimation and the per-column sampler scale\n"
      "with workers (the paper's parallel matmul / Algorithm 1 claims);\n"
      "single-query latency on a small MADE saturates early because its\n"
      "matmuls are below the parallel grain - the honest caveat.\n"
      "CAVEAT: hw_threads below is what scaling claims must be read against.\n"
      "On a 1-hardware-thread host the sweep collapses to a single serial\n"
      "row and NO parallel speedup is observable by construction - treat\n"
      "such runs as correctness smoke, not scaling evidence.\n");
  // hw_threads is recorded so a result archive can tell a real scaling
  // curve from a 1-core degenerate run (docs/benchmarks.md schema).
  std::printf("{\"bench\":\"ablation_threads\",\"hw_threads\":%u,\"rows\":[%s]}\n", hw,
              json_rows.c_str());
  return 0;
}
