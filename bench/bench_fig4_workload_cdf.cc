// Figure 4 reproduction: cumulative distribution of the true cardinalities
// of the generated workloads (training/In-Q vs Rand-Q) per dataset. The
// paper uses this plot to show that the two test workloads have markedly
// different distributions, i.e. Rand-Q really is a drifted workload.
//
// Flags: --queries=N --datasets=census,kdd,dmv
#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"

namespace duet::bench {
namespace {

void PrintCdf(const char* name, const query::Workload& wl) {
  std::vector<double> cards;
  cards.reserve(wl.size());
  for (const auto& lq : wl) cards.push_back(static_cast<double>(lq.cardinality));
  std::sort(cards.begin(), cards.end());
  std::printf("%-8s", name);
  for (int decile = 0; decile <= 10; ++decile) {
    const size_t idx = std::min(cards.size() - 1, cards.size() * decile / 10);
    std::printf(" %9.0f", cards[idx]);
  }
  std::printf("\n");
}

void RunDataset(const data::Table& t, int queries) {
  std::printf("\n--- %s (%lld rows): cardinality at CDF deciles 0%%..100%% ---\n",
              t.name().c_str(), static_cast<long long>(t.num_rows()));
  std::printf("%-8s", "workload");
  for (int d = 0; d <= 10; ++d) std::printf(" %8d%%", d * 10);
  std::printf("\n");
  PrintCdf("train", MakeTrainingWorkload(t, queries));
  PrintCdf("In-Q", MakeInQ(t, queries));
  PrintCdf("Rand-Q", MakeRandQ(t, queries));
}

}  // namespace
}  // namespace duet::bench

int main(int argc, char** argv) {
  using namespace duet;
  using namespace duet::bench;
  Flags flags(argc, argv, {"datasets", "queries"});
  const double scale = Flags::ScaleFactor();
  const int queries = static_cast<int>(flags.GetInt("queries", static_cast<int64_t>(400 * scale)));
  const std::string datasets = flags.GetString("datasets", "census,kdd,dmv");
  std::printf("Figure 4 reproduction: workload cardinality CDFs\n");
  if (datasets.find("census") != std::string::npos) RunDataset(MakeCensus(scale), queries);
  if (datasets.find("kdd") != std::string::npos) RunDataset(MakeKdd(scale), queries);
  if (datasets.find("dmv") != std::string::npos) RunDataset(MakeDmv(scale), queries);
  std::printf("\nExpected shape: the In-Q/train CDF differs visibly from Rand-Q "
              "(different selectivity profile), demonstrating workload drift.\n");
  return 0;
}
