// Chaos-soak summary (DESIGN.md, "Failure semantics"): batches of seeded
// random fault schedules — all nine scripted kinds plus rate-based lossy
// and adversarial transport — run through the multi-query engine in two
// arms. The fenced arm must hold every soak invariant; the deliberately
// naive arm shows what the fence is for: stale and duplicate traffic
// folding into answers, and the recall it costs. The table also times a
// run, since the soak's CI budget depends on it.

#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/obs/trace.h"
#include "src/testvec/chaos.h"

namespace prospector {
namespace {

constexpr uint64_t kSeeds = 24;

testvec::ChaosConfig ConfigFor(uint64_t seed, bool naive) {
  testvec::ChaosConfig c;
  c.seed = seed;
  c.num_nodes = 16 + static_cast<int>(seed % 9);
  c.epochs = 40;
  c.num_queries = 1 + static_cast<int>(seed % 3);
  c.naive = naive;
  return c;
}

void Run() {
  bench::BenchJson json("chaos");
  json.Seed(1).Meta("seeds", static_cast<double>(kSeeds));
  json.Section("protocol_arms",
               {"naive", "violations", "mean_recall", "duplicates_dropped",
                "stale_fenced", "corrupt_rejected", "deferred",
                "stale_folded", "duplicates_folded", "rebuilds",
                "ms_per_run"});
  json.WallClock({"ms_per_run"});
  bench::PrintHeader(
      "chaos soak (fenced vs naive protocol)",
      {"naive", "violations", "recall", "dup_drop", "stale_fence",
       "corrupt_rej", "deferred", "stale_fold", "dup_fold", "rebuilds",
       "ms/run"});
  for (int naive = 0; naive <= 1; ++naive) {
    int violations = 0;
    double recall_sum = 0.0;
    int recall_runs = 0;
    int rebuilds = 0;
    core::TransportGuard::Counters total;
    const int64_t t0 = obs::MonotonicNowUs();
    for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
      const testvec::ChaosReport report =
          RunChaos(ConfigFor(seed, naive != 0));
      violations += static_cast<int>(report.violations.size());
      if (report.recall_count > 0) {
        recall_sum += report.mean_recall();
        ++recall_runs;
      }
      rebuilds += report.rebuilds;
      total.duplicates_dropped += report.guard.duplicates_dropped;
      total.stale_fenced += report.guard.stale_fenced;
      total.corrupt_rejected += report.guard.corrupt_rejected;
      total.deferred += report.guard.deferred;
      total.stale_folded += report.guard.stale_folded;
      total.duplicates_folded += report.guard.duplicates_folded;
    }
    const double ms_per_run =
        static_cast<double>(obs::MonotonicNowUs() - t0) / 1000.0 /
        static_cast<double>(kSeeds);
    const double mean_recall =
        recall_runs > 0 ? recall_sum / recall_runs : -1.0;
    const std::vector<double> row = {
        static_cast<double>(naive),
        static_cast<double>(violations),
        mean_recall,
        static_cast<double>(total.duplicates_dropped),
        static_cast<double>(total.stale_fenced),
        static_cast<double>(total.corrupt_rejected),
        static_cast<double>(total.deferred),
        static_cast<double>(total.stale_folded),
        static_cast<double>(total.duplicates_folded),
        static_cast<double>(rebuilds),
        ms_per_run};
    bench::PrintRow(row);
    json.Row(row);
  }
  std::printf(
      "\nfenced arm must report 0 violations; the naive arm's non-zero\n"
      "stale/duplicate folds are the tamper signal the soak test asserts.\n");
  json.Write();
}

}  // namespace
}  // namespace prospector

int main() {
  prospector::Run();
  return 0;
}
