#ifndef PROSPECTOR_BENCH_BENCH_UTIL_H_
#define PROSPECTOR_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/executor.h"
#include "src/core/plan.h"
#include "src/core/planner.h"
#include "src/net/simulator.h"
#include "src/util/json.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/status.h"

namespace prospector {
namespace bench {

/// Draws one epoch of ground-truth readings.
using TruthFn = std::function<std::vector<double>(Rng*)>;

/// Averaged execution metrics of one plan over repeated query epochs.
struct EvalResult {
  double avg_energy_mj = 0.0;    ///< trigger + collection per query
  double avg_accuracy = 0.0;     ///< top-k recall
  double install_energy_mj = 0.0;
};

/// Executes `plan` against `epochs` freshly drawn truths, averaging energy
/// (trigger + collection, per the paper's reporting) and top-k recall.
inline EvalResult EvaluatePlan(const core::QueryPlan& plan,
                               const net::Topology& topo,
                               const net::EnergyModel& energy,
                               const TruthFn& truth_fn, int epochs,
                               uint64_t seed,
                               const net::FailureModel& failures = {}) {
  Rng rng(seed);
  net::NetworkSimulator sim(&topo, energy, failures, seed ^ 0xbeef);
  EvalResult out;
  out.install_energy_mj = core::ChargeInstallCost(plan, &sim);
  sim.ResetStats();
  RunningStats acc, joule;
  for (int q = 0; q < epochs; ++q) {
    const std::vector<double> truth = truth_fn(&rng);
    core::ExecutionResult r =
        core::CollectionExecutor::Execute(plan, truth, &sim);
    acc.Add(core::TopKRecall(r, truth, plan.k));
    joule.Add(r.total_energy_mj());
    sim.ResetStats();
  }
  out.avg_energy_mj = joule.mean();
  out.avg_accuracy = acc.mean();
  return out;
}

/// Plans with `planner` under `budget`, then evaluates. Returns false and
/// prints a note when planning fails (e.g. infeasible proof budgets).
inline bool PlanAndEvaluate(core::Planner* planner,
                            const core::PlannerContext& ctx,
                            const sampling::SampleSet& samples, int k,
                            double budget_mj, const TruthFn& truth_fn,
                            int epochs, uint64_t seed, EvalResult* out) {
  core::PlanRequest req;
  req.k = k;
  req.energy_budget_mj = budget_mj;
  auto plan = planner->Plan(ctx, samples, req);
  if (!plan.ok()) {
    std::fprintf(stderr, "# %s @ %.1f mJ: %s\n", planner->name().c_str(),
                 budget_mj, plan.status().ToString().c_str());
    return false;
  }
  *out = EvaluatePlan(*plan, *ctx.topology, ctx.energy, truth_fn, epochs, seed,
                      ctx.failures);
  return true;
}

/// Number of evaluation epochs a bench should run: `default_epochs` unless
/// the PROSPECTOR_BENCH_EPOCHS environment variable overrides it (CI's
/// bench smoke job sets it to 1 so every bench finishes in seconds while
/// still exercising its full code path and JSON artifact).
inline int QueryEpochs(int default_epochs) {
  const char* env = std::getenv("PROSPECTOR_BENCH_EPOCHS");
  if (env == nullptr) return default_epochs;
  const int v = std::atoi(env);
  return v > 0 ? v : default_epochs;
}

/// Machine-readable companion to the stdout tables: collects a flat meta
/// object plus one or more titled tables of uniform numeric rows and
/// writes BENCH_<name>.json in the working directory so CI and plotting
/// scripts can diff runs without scraping text.
///
/// Single-table benches call Columns() then Row(); the file carries
/// top-level "columns"/"rows" (the original artifact shape). Multi-table
/// benches call Section() before each table's rows; those tables land in
/// a "tables" array of {"title", "columns", "rows"} objects.
///
/// Every artifact carries provenance for `tools/bench_diff.py`:
///   "schema_version"      bumped when the artifact layout changes;
///   "seed"                the bench's RNG seed (0 when not seeded);
///   "config_fingerprint"  16-hex FNV-1a over name + meta + table shape
///                         (seed and row data excluded), so the differ
///                         can refuse apples-to-oranges comparisons.
class BenchJson {
 public:
  /// Bump when the JSON layout changes incompatibly.
  static constexpr int kSchemaVersion = 2;

  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  BenchJson& Meta(const std::string& key, double value) {
    meta_.emplace_back(key, value);
    return *this;
  }
  /// Records a fact about the machine the bench ran on (core counts and
  /// the like). Host facts land in a separate "host" object and are
  /// deliberately excluded from the fingerprint — like the seed, they are
  /// provenance, not configuration: artifacts from differently-sized
  /// hosts stay comparable, and the differ can still surface why e.g. a
  /// parallel speedup moved.
  BenchJson& HostFact(const std::string& key, double value) {
    host_.emplace_back(key, value);
    return *this;
  }
  /// Records the bench's RNG seed in the artifact (provenance only; the
  /// fingerprint deliberately excludes it so seed sweeps stay comparable).
  BenchJson& Seed(uint64_t seed) {
    seed_ = seed;
    return *this;
  }
  BenchJson& Columns(std::vector<std::string> columns) {
    columns_ = std::move(columns);
    return *this;
  }
  /// Starts a titled table; subsequent Row() calls append to it.
  BenchJson& Section(std::string title, std::vector<std::string> columns) {
    tables_.push_back(Table{std::move(title), std::move(columns), {}, {}});
    return *this;
  }
  /// Marks columns of the open table (or of the single table) as
  /// wall-clock measurements. They land in a "wall_clock" list beside
  /// "columns"; `tools/bench_diff.py` prints their deltas as notes and
  /// keeps them out of its exit status, because they vary run to run.
  /// Every unmarked cell must reproduce, simulated times included (e.g.
  /// bench_latency's `*_s` columns).
  BenchJson& WallClock(std::vector<std::string> columns) {
    if (!tables_.empty()) {
      tables_.back().wall_clock = std::move(columns);
    } else {
      wall_clock_ = std::move(columns);
    }
    return *this;
  }
  BenchJson& Row(std::vector<double> values) {
    if (!tables_.empty()) {
      tables_.back().rows.push_back(std::move(values));
    } else {
      rows_.push_back(std::move(values));
    }
    return *this;
  }

  /// Returns false (with a note on stderr) when the file cannot be written.
  bool Write() const {
    util::Json doc = util::Json::Object();
    doc.Set("schema_version", kSchemaVersion);
    doc.Set("seed", seed_);
    char fingerprint[17];
    std::snprintf(fingerprint, sizeof(fingerprint), "%016llx",
                  static_cast<unsigned long long>(Fingerprint()));
    doc.Set("config_fingerprint", fingerprint);
    doc.Set("meta", Members(meta_));
    if (!host_.empty()) doc.Set("host", Members(host_));
    size_t total_rows = rows_.size();
    if (tables_.empty()) {
      doc.Set("columns", Strings(columns_));
      if (!wall_clock_.empty()) doc.Set("wall_clock", Strings(wall_clock_));
      doc.Set("rows", Rows(rows_));
    } else {
      util::Json tables = util::Json::Array();
      for (const Table& table : tables_) {
        total_rows += table.rows.size();
        util::Json t = util::Json::Object();
        t.Set("title", table.title);
        t.Set("columns", Strings(table.columns));
        if (!table.wall_clock.empty()) {
          t.Set("wall_clock", Strings(table.wall_clock));
        }
        t.Set("rows", Rows(table.rows));
        tables.Append(std::move(t));
      }
      doc.Set("tables", std::move(tables));
    }
    const std::string path = "BENCH_" + name_ + ".json";
    if (const Status st = util::WriteFile(path, doc.Dump(2) + "\n");
        !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return false;
    }
    std::printf("\nwrote %s (%zu rows)\n", path.c_str(), total_rows);
    return true;
  }

 private:
  struct Table {
    std::string title;
    std::vector<std::string> columns;
    std::vector<std::string> wall_clock;
    std::vector<std::vector<double>> rows;
  };

  /// FNV-1a over everything that defines what the bench measured (name,
  /// meta knobs, table shape) but not what it observed (rows), which
  /// stream it drew (seed), where it ran (host facts), or which columns
  /// are wall clock (how the differ gates them). Two artifacts with equal
  /// fingerprints are run-to-run comparable.
  uint64_t Fingerprint() const {
    uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](const std::string& s) {
      for (const unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
      }
      h ^= 0xffu;  // field separator: {"ab","c"} != {"a","bc"}
      h *= 0x100000001b3ULL;
    };
    mix(name_);
    char buf[32];
    for (const auto& [key, value] : meta_) {
      mix(key);
      std::snprintf(buf, sizeof(buf), "%.6g", value);
      mix(buf);
    }
    for (const std::string& c : columns_) mix(c);
    for (const Table& t : tables_) {
      mix(t.title);
      for (const std::string& c : t.columns) mix(c);
    }
    return h;
  }

  static util::Json Members(
      const std::vector<std::pair<std::string, double>>& pairs) {
    util::Json out = util::Json::Object();
    for (const auto& [key, value] : pairs) out.Set(key, value);
    return out;
  }
  static util::Json Strings(const std::vector<std::string>& v) {
    util::Json out = util::Json::Array();
    for (const std::string& s : v) out.Append(s);
    return out;
  }
  static util::Json Rows(const std::vector<std::vector<double>>& rows) {
    util::Json out = util::Json::Array();
    for (const std::vector<double>& row : rows) {
      util::Json r = util::Json::Array();
      for (const double v : row) r.Append(v);
      out.Append(std::move(r));
    }
    return out;
  }

  std::string name_;
  uint64_t seed_ = 0;
  std::vector<std::pair<std::string, double>> meta_;
  std::vector<std::pair<std::string, double>> host_;
  std::vector<std::string> columns_;
  std::vector<std::string> wall_clock_;
  std::vector<std::vector<double>> rows_;
  std::vector<Table> tables_;
};

/// Fixed-width table printing helpers shared by the figure benches.
inline void PrintHeader(const std::string& title,
                        const std::vector<std::string>& columns) {
  std::printf("\n== %s ==\n", title.c_str());
  for (const auto& c : columns) std::printf("%16s", c.c_str());
  std::printf("\n");
  for (size_t i = 0; i < columns.size(); ++i) std::printf("%16s", "----");
  std::printf("\n");
}

inline void PrintRow(const std::vector<double>& values) {
  for (double v : values) std::printf("%16.3f", v);
  std::printf("\n");
}

/// Prints a table header and opens the matching JSON section, so stdout
/// and BENCH_<name>.json stay in lockstep by construction.
inline void TableHeader(BenchJson* json, const std::string& title,
                        const std::vector<std::string>& columns) {
  PrintHeader(title, columns);
  if (json != nullptr) json->Section(title, columns);
}

/// Prints a table row and records it in the open JSON section.
inline void TableRow(BenchJson* json, const std::vector<double>& values) {
  PrintRow(values);
  if (json != nullptr) json->Row(values);
}

}  // namespace bench
}  // namespace prospector

#endif  // PROSPECTOR_BENCH_BENCH_UTIL_H_
