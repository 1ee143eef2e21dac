// Figure 6 reproduction: estimation-latency scalability with the number of
// constrained columns on the 100-column Kdd-like dataset. One model per
// method is trained on all 100 columns; workloads constrain only the first
// k columns, k in {2, 5, 10, 25, 50, 100}. Reports per-query latency and
// its phase breakdown (encode / network forward / sampling-or-mask) — the
// paper's O(n) vs O(1) money plot.
//
// Flags: --epochs=N --queries=N --naru_samples=N
#include <cstdio>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace duet;
  using namespace duet::bench;
  Flags flags(argc, argv, {"epochs", "naru_samples", "queries"});
  const double scale = Flags::ScaleFactor();
  const int epochs = static_cast<int>(flags.GetInt("epochs", 2));
  const int queries = static_cast<int>(flags.GetInt("queries", 30));
  const int naru_samples = static_cast<int>(flags.GetInt("naru_samples", 16));

  data::Table t = MakeKdd(scale);
  std::printf("Figure 6 reproduction: scalability on %s (%d columns)\n", t.name().c_str(),
              t.num_columns());

  // Train one model per method on the full table (brief: latency is the
  // object of measurement here, not accuracy).
  core::DuetModel duet(t, DuetOptionsFor(t));
  {
    core::TrainOptions topt;
    topt.epochs = epochs;
    topt.batch_size = 128;
    core::DuetTrainer(duet, topt).Train();
  }
  baselines::NaruModel naru(t, NaruOptionsFor(t, naru_samples));
  {
    core::TrainOptions topt;
    topt.epochs = epochs;
    topt.batch_size = 128;
    baselines::NaruTrainer(naru, topt).Train();
  }
  // UAE shares Naru's inference path; a separately trained instance stands
  // in for it (progressive sampling cost is identical by construction).
  baselines::NaruModel uae(t, NaruOptionsFor(t, naru_samples));
  {
    core::TrainOptions topt;
    topt.epochs = 1;
    topt.batch_size = 128;
    baselines::NaruTrainer(uae, topt).Train();
  }

  std::printf("%-6s | %-34s | %-34s | %-10s\n", "#cols", "Naru ms (enc/fwd/sample)",
              "UAE ms (enc/fwd/sample)", "Duet ms (enc/fwd/mask)");
  for (int k : {2, 5, 10, 25, 50, 100}) {
    query::WorkloadSpec spec;
    spec.num_queries = queries;
    spec.seed = 1234;
    spec.max_columns = k;
    const query::Workload wl = query::WorkloadGenerator(t, spec).Generate();

    naru.phase_times().Clear();
    Rng naru_rng(7);
    Timer timer;
    for (const auto& lq : wl) naru.EstimateSelectivity(lq.query, naru_rng);
    const double naru_ms = timer.Millis() / queries;
    const auto naru_phases = naru.phase_times();

    uae.phase_times().Clear();
    Rng uae_rng(7);
    timer.Reset();
    for (const auto& lq : wl) uae.EstimateSelectivity(lq.query, uae_rng);
    const double uae_ms = timer.Millis() / queries;
    const auto uae_phases = uae.phase_times();

    duet.phase_times().Clear();
    timer.Reset();
    for (const auto& lq : wl) duet.EstimateSelectivity(lq.query);
    const double duet_ms = timer.Millis() / queries;
    const auto duet_phases = duet.phase_times();

    std::printf(
        "%-6d | %7.3f (%6.3f/%6.3f/%6.3f) | %7.3f (%6.3f/%6.3f/%6.3f) | %7.4f "
        "(%5.4f/%5.4f/%5.4f)\n",
        k, naru_ms, naru_phases.encode_ms / queries, naru_phases.forward_ms / queries,
        naru_phases.post_ms / queries, uae_ms, uae_phases.encode_ms / queries,
        uae_phases.forward_ms / queries, uae_phases.post_ms / queries, duet_ms,
        duet_phases.encode_ms / queries, duet_phases.forward_ms / queries,
        duet_phases.post_ms / queries);
  }
  std::printf("\nExpected shape: Naru/UAE latency grows ~linearly with #constrained "
              "columns (one forward pass per column over %d samples); Duet stays flat "
              "with a single forward pass (paper Fig. 6).\n",
              naru_samples);
  return 0;
}
