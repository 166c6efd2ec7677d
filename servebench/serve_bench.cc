// Closed-loop serving benchmark for service::FleetService.
//
// One client thread drives one fleet through its public API only:
// AddDeployment, Admit, Retire, RunEpoch, Poll, Snapshot and HealthReport.
// Each loop iteration issues the workload's churn (retire + admit), runs
// one fleet epoch, polls every standing query, and reads one Snapshot and
// one HealthReport. The deployment scheduler has `--threads` workers.
//
//   serve_bench --workload lp_replan --seed 1 --seconds 25 --trace 0
//
// prints one JSON report on stdout (see README.md for every field). The
// untraced run (--trace 0) gives the end-to-end metrics. The traced run
// (--trace 1) measures the deterministic window twice on identically set-up
// fleets: untraced, then with obs::Tracer enabled. It folds the library's
// own spans and counters into a per-layer ledger, and the difference
// between the two passes is what tracing cost.
//
// Determinism: the first `window` measured epochs are a fixed amount of
// work for a given seed. The answer digest, recall, energy per answer, the
// MetricsRegistry counters and the radio totals all cover exactly that
// window, so they are bit-identical across runs and scheduler widths.
// Timing metrics cover every measured epoch, window and time-based tail.
//
// Correctness gates (exit 1 with a FAIL line on stderr): every RunEpoch
// succeeds, no energy audit fails (fail-fast is on), every query that
// stood for kAnswerGateEpochs measured epochs polled an answer, every
// answer is well-formed, the watchdog rebuilt around the killed node, and
// retiring every query empties the fleet.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/data/gaussian_field.h"
#include "src/net/topology.h"
#include "src/obs/obs.h"
#include "src/service/fleet.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/thread_pool.h"

namespace prospector {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// A query that stood this many measured epochs must have polled an answer.
// Explore epochs carry no answers; at the workloads' explore rates a run of
// 8 explore epochs in a row has probability below 1e-8.
constexpr int kAnswerGateEpochs = 8;

struct QueryTemplate {
  core::PlannerChoice planner = core::PlannerChoice::kGreedy;
  int k = 4;
  double budget_mj = 6.0;
  int audit_every = 0;
};

struct Workload {
  std::string name;
  int deployments = 0;
  int nodes = 0;
  double radio_range = 0.0;
  /// Admitted on every deployment, in order, at setup.
  std::vector<QueryTemplate> queries;
  int tenants = 1;
  double explore_probability = 0.02;
  /// Samples per query window; set-up bootstraps until it is full.
  int sample_window = 40;
  /// Tier-2 lossy transport with this per-edge loss (0 = reliable).
  double edge_loss = 0.0;
  /// Tier-3 adversarial transport (dup 5%, corrupt 2%, delay 2%), fenced.
  bool adversarial = false;
  /// Watchdog threshold; > 0 also kills one leaf of deployment 0.
  int dead_after_epochs = 0;
  /// Per epoch: retire this many standing queries and admit as many new
  /// ones (¼ LP-LF, ¾ Greedy, k 2-4, 6 mJ, random deployment and tenant).
  int churn_per_epoch = 0;
  /// Deterministic measured window, in fleet epochs.
  int window = 0;
  /// Set-ups per run; setup_s is their median.
  int setups = 1;
};

QueryTemplate Lp(bool filter, int k, double budget, int audit_every = 0) {
  return {filter ? core::PlannerChoice::kLpFilter
                 : core::PlannerChoice::kLpNoFilter,
          k, budget, audit_every};
}
QueryTemplate Greedy(int k, double budget, int audit_every = 0) {
  return {core::PlannerChoice::kGreedy, k, budget, audit_every};
}

bool FindWorkload(const std::string& name, Workload* out) {
  Workload w;
  w.name = name;
  if (name == "lp_replan") {
    w.deployments = 64;
    w.nodes = 100;
    w.radio_range = 20.0;
    w.queries = {Lp(true, 10, 12.0), Lp(true, 20, 16.0), Lp(false, 5, 8.0),
                 Greedy(4, 6.0)};
    w.tenants = 4;
    w.explore_probability = 0.10;
    w.sample_window = 12;
    w.edge_loss = 0.05;
    w.window = 150;
    w.setups = 5;
  } else if (name == "fleet_churn") {
    w.deployments = 128;
    w.nodes = 24;
    w.radio_range = 35.0;
    for (int j = 0; j < 8; ++j) {
      w.queries.push_back(j % 4 == 0 ? Lp(false, 2 + j % 3, 6.0)
                                     : Greedy(2 + j % 3, 6.0));
    }
    w.tenants = 8;
    w.churn_per_epoch = 16;
    w.window = 3000;
    w.setups = 21;
  } else if (name == "audit_fenced") {
    w.deployments = 16;
    w.nodes = 20;
    w.sample_window = 16;
    w.radio_range = 35.0;
    w.queries = {Lp(false, 5, 10.0, 4), Greedy(5, 10.0, 4)};
    w.tenants = 2;
    w.edge_loss = 0.05;
    w.adversarial = true;
    // Five silent epochs: at three, corrupted and delayed messages alone
    // sometimes silenced a live node long enough to be declared dead.
    w.dead_after_epochs = 5;
    w.window = 150;
    w.setups = 31;
  } else {
    return false;
  }
  *out = std::move(w);
  return true;
}

/// FNV-1a over the workload's shape: what the run measures, never where
/// (host facts) or which stream it drew (seed).
uint64_t ConfigFingerprint(const Workload& w) {
  std::ostringstream s;
  s.precision(17);
  s << w.name << '|' << w.deployments << '|' << w.nodes << '|'
    << w.radio_range << '|' << w.tenants << '|' << w.explore_probability
    << '|' << w.sample_window << '|' << w.edge_loss << '|' << w.adversarial << '|'
    << w.dead_after_epochs << '|' << w.churn_per_epoch << '|' << w.window;
  for (const QueryTemplate& q : w.queries) {
    s << '|' << static_cast<int>(q.planner) << ',' << q.k << ','
      << q.budget_mj << ',' << q.audit_every;
  }
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : s.str()) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

class Fnv {
 public:
  template <typename T>
  void Mix(const T& v) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    for (const unsigned char c : bytes) {
      h_ ^= c;
      h_ *= 0x100000001b3ULL;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string Hex(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// The aggregate "cpu" line of /proc/stat, in clock ticks; zeros where it
/// cannot be read.
struct CpuTimes {
  long long steal = 0, total = 0;
};

CpuTimes ReadCpuTimes() {
  CpuTimes t;
  std::ifstream stat("/proc/stat");
  std::string label;
  if (!(stat >> label) || label != "cpu") return t;
  long long v = 0;
  // user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8 && stat >> v; ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

// ---------------------------------------------------------------------------
// The world and one set-up of the fleet.

struct World {
  std::vector<net::Topology> topologies;
  std::vector<data::GaussianField> fields;
};

struct Standing {
  int query_id = -1;
  int deployment_id = -1;
  int k = 0;
  int tenant_id = -1;
  int admitted_epoch = 0;  ///< measured-epoch index it first stood in
  long long answers = 0;
};

struct Ops {
  long long attempted = 0;
  long long failed = 0;  ///< refused admits/retires + ring drops
};

struct Fleet {
  World world;
  std::unique_ptr<service::FleetService> service;
  std::vector<Standing> standing;  ///< ascending query id
  std::vector<double> admit_us;
  int bootstrap_epochs = 0;
};

/// The deployments' layout (node placement, field means and variances) is
/// part of a workload's definition, so every seed serves the same fleet;
/// `--seed` draws the readings, transport faults, explore coin flips and
/// churn.
constexpr uint64_t kWorldSeed = 20060403;

World BuildWorld(const Workload& w) {
  World world;
  Rng rng(kWorldSeed);
  world.topologies.reserve(static_cast<size_t>(w.deployments));
  world.fields.reserve(static_cast<size_t>(w.deployments));
  for (int d = 0; d < w.deployments; ++d) {
    net::GeometricNetworkOptions geo;
    geo.num_nodes = w.nodes;
    geo.radio_range = w.radio_range;
    world.topologies.push_back(
        net::BuildConnectedGeometricNetwork(geo, &rng).value());
    world.fields.push_back(
        data::GaussianField::Random(w.nodes, 40.0, 60.0, 1.0, 9.0, &rng));
  }
  return world;
}

/// The highest-id leaf: the node the watchdog workload kills.
int VictimLeaf(const net::Topology& topo) {
  for (int u = topo.num_nodes() - 1; u >= 0; --u) {
    if (u != topo.root() && topo.children(u).empty()) return u;
  }
  return -1;
}

core::QuerySpec SpecFor(const Workload& w, const QueryTemplate& t) {
  core::QuerySpec spec;
  spec.k = t.k;
  spec.energy_budget_mj = t.budget_mj;
  spec.planner = t.planner;
  spec.audit_every = t.audit_every;
  spec.manager.base_explore_probability = w.explore_probability;
  return spec;
}

bool Admit(Fleet* fleet, const service::AdmitQueryRequest& req,
           int measured_epoch, Ops* ops) {
  const auto t0 = Clock::now();
  const service::AdmitQueryResponse resp = fleet->service->Admit(req);
  fleet->admit_us.push_back(MsSince(t0) * 1000.0);
  ++ops->attempted;
  if (!resp.admitted) {
    ++ops->failed;
    std::fprintf(stderr, "admit refused: %s\n", resp.message.c_str());
    return false;
  }
  Standing s;
  s.query_id = resp.query_id;
  s.deployment_id = req.deployment_id;
  s.k = req.spec.k;
  s.tenant_id = req.tenant_id;
  s.admitted_epoch = measured_epoch;
  fleet->standing.push_back(s);
  return true;
}

bool AllPlansInstalled(const Fleet& fleet) {
  for (const Standing& s : fleet.standing) {
    if (!fleet.service->deployment(s.deployment_id).has_plan(s.query_id)) {
      return false;
    }
  }
  return true;
}

/// World build, fleet construction, initial admissions and the bootstrap
/// epochs until every query has installed its first plan. Returns null on
/// a failed epoch.
std::unique_ptr<Fleet> SetUp(const Workload& w, uint64_t seed, int threads,
                             Ops* ops) {
  auto fleet = std::make_unique<Fleet>();
  fleet->world = BuildWorld(w);
  service::FleetOptions options;
  options.scheduler_threads = threads;
  fleet->service = std::make_unique<service::FleetService>(options);
  core::QueryEngineOptions engine;
  // Bootstrap fills the whole sample window, so measured epochs plan over
  // steady-state LPs instead of ones that grow with every explore epoch.
  engine.sample_window = static_cast<size_t>(w.sample_window);
  engine.bootstrap_sweeps = w.sample_window;
  engine.lossy.enabled = w.edge_loss > 0.0;
  if (w.adversarial) {
    engine.adversarial.enabled = true;
    engine.adversarial.duplicate_prob = 0.05;
    engine.adversarial.corrupt_prob = 0.02;
    engine.adversarial.delay_prob = 0.02;
    engine.fencing = core::TransportFencing::kFenced;
  }
  engine.dead_after_epochs = w.dead_after_epochs;
  engine.rebuild_radio_range = w.radio_range;
  int audit_stagger = 1;
  for (const QueryTemplate& q : w.queries) {
    audit_stagger = std::max(audit_stagger, q.audit_every);
  }
  const net::FailureModel failures =
      w.edge_loss > 0.0 ? net::FailureModel::Uniform(w.edge_loss)
                        : net::FailureModel{};
  for (int d = 0; d < w.deployments; ++d) {
    const net::Topology& topo = fleet->world.topologies[static_cast<size_t>(d)];
    core::QueryEngineOptions opts = engine;
    // Audits come every `audit_every` query epochs, counted from a query's
    // first one. Staggering the deployments' bootstraps spreads their audit
    // phases evenly, so every epoch carries about the same audit load.
    opts.bootstrap_sweeps += d % audit_stagger;
    if (d == 0 && w.dead_after_epochs > 0) {
      opts.faults.KillNode(engine.bootstrap_sweeps + 2, VictimLeaf(topo));
    }
    const data::GaussianField* field =
        &fleet->world.fields[static_cast<size_t>(d)];
    fleet->service->AddDeployment(
        &topo, {}, failures, opts,
        [field](Rng* rng) { return field->Sample(rng); },
        seed * 1000003ULL + static_cast<uint64_t>(d));
  }
  for (int d = 0; d < w.deployments; ++d) {
    for (size_t j = 0; j < w.queries.size(); ++j) {
      service::AdmitQueryRequest req;
      req.deployment_id = d;
      req.tenant_id =
          (d * static_cast<int>(w.queries.size()) + static_cast<int>(j)) %
          w.tenants;
      req.spec = SpecFor(w, w.queries[j]);
      Admit(fleet.get(), req, 0, ops);
    }
  }
  // Admissions activate at the next epoch boundary, so at least one epoch
  // runs before plans can be checked.
  const int max_bootstrap = engine.bootstrap_sweeps + audit_stagger + 8;
  while (fleet->bootstrap_epochs == 0 || !AllPlansInstalled(*fleet)) {
    if (fleet->bootstrap_epochs >= max_bootstrap) {
      std::fprintf(stderr, "FAIL: plans not installed after %d epochs\n",
                   max_bootstrap);
      return nullptr;
    }
    ++ops->attempted;
    auto r = fleet->service->RunEpoch();
    if (!r.ok()) {
      std::fprintf(stderr, "FAIL: bootstrap epoch: %s\n",
                   r.status().ToString().c_str());
      return nullptr;
    }
    ++fleet->bootstrap_epochs;
    for (const Standing& s : fleet->standing) {
      ++ops->attempted;
      ops->failed += fleet->service->Poll({s.query_id, 0}).dropped;
    }
  }
  return fleet;
}

// ---------------------------------------------------------------------------
// Per-layer ledger folded from the library's spans.

struct SpanTotals {
  long long count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

struct Ledger {
  std::map<std::string, SpanTotals> spans;
  std::vector<double> tick_ms, replan_ms, superplan_us, lp_top_ms;
  double lp_top_ms_total = 0.0;
  double lp_hot_self_ms = 0.0;
  double lp_cold_path_ms = 0.0;
  double lp_crosscheck_ms = 0.0;
  double lp_dense_model_ms = 0.0;
  double planner_self_ms = 0.0;
  double tick_ms_total = 0.0;
  std::vector<double> epoch_self_ms;  ///< RunEpoch wall minus tick coverage
  double epoch_wall_ms_total = 0.0;

  /// Folds one epoch's drained spans. `epoch_wall_ms` is the harness-timed
  /// RunEpoch call they came from.
  void AddEpoch(std::vector<obs::TraceEvent> events, double epoch_wall_ms) {
    // Drain orders by (ts, tid, depth); regroup per thread so a span's
    // parent is the latest earlier span one level up on its thread.
    std::stable_sort(events.begin(), events.end(),
                     [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
                       return a.tid < b.tid;
                     });
    const size_t n = events.size();
    std::vector<long> parent(n, -1);
    std::vector<double> child_ms(n, 0.0), lp_child_ms(n, 0.0);
    std::vector<long> last_at_depth;
    int tid = -1;
    for (size_t i = 0; i < n; ++i) {
      const obs::TraceEvent& e = events[i];
      if (e.tid != tid) {
        tid = e.tid;
        last_at_depth.clear();
      }
      const size_t depth = static_cast<size_t>(std::max(e.depth, 0));
      if (depth > 0 && depth - 1 < last_at_depth.size()) {
        parent[i] = last_at_depth[depth - 1];
      }
      if (last_at_depth.size() <= depth) last_at_depth.resize(depth + 1, -1);
      last_at_depth[depth] = static_cast<long>(i);
      if (parent[i] >= 0) {
        const double ms = static_cast<double>(e.dur_us) / 1000.0;
        child_ms[static_cast<size_t>(parent[i])] += ms;
        if (std::strncmp(e.name, "lp.", 3) == 0) {
          lp_child_ms[static_cast<size_t>(parent[i])] += ms;
        }
      }
    }
    // SimplexSolver::SolveHot leaves one of three child shapes under its
    // lp.solve_hot span. Its cold path runs a dense lp.solve that captures
    // the tableau and, on a revised-dispatch model, then an
    // lp.solve_revised for the answer it returns. A successful hot start
    // runs one cross-check solve: lp.solve_revised or, on a dense-dispatch
    // model, lp.solve. So both kinds together are the cold path, a lone
    // revised solve is a cross-check, and a lone dense solve is a
    // dense-dispatch model's cold path or cross-check, which the spans
    // cannot tell apart.
    struct HotChildren {
      int dense = 0, revised = 0;
      double ms = 0.0;
    };
    std::vector<HotChildren> hot(n);
    std::vector<std::pair<int64_t, int64_t>> ticks;
    for (size_t i = 0; i < n; ++i) {
      const obs::TraceEvent& e = events[i];
      const double ms = static_cast<double>(e.dur_us) / 1000.0;
      SpanTotals& t = spans[e.name];
      ++t.count;
      t.total_ms += ms;
      t.self_ms += ms - child_ms[i];
      const std::string name = e.name;
      const char* parent_name =
          parent[i] >= 0 ? events[static_cast<size_t>(parent[i])].name : "";
      const bool under_lp = std::strncmp(parent_name, "lp.", 3) == 0;
      if (name == "session.tick") {
        tick_ms.push_back(ms);
        tick_ms_total += ms;
        ticks.emplace_back(e.ts_us, e.ts_us + e.dur_us);
      } else if (name == "session.replan") {
        replan_ms.push_back(ms);
      } else if (name == "exec.superplan") {
        superplan_us.push_back(static_cast<double>(e.dur_us));
      }
      if (name.rfind("lp.", 0) == 0) {
        if (!under_lp) {
          lp_top_ms.push_back(ms);
          lp_top_ms_total += ms;
        }
        if (name == "lp.solve_hot" || name == "lp.solve_warm") {
          lp_hot_self_ms += ms - child_ms[i];
        }
        if (std::strcmp(parent_name, "lp.solve_hot") == 0) {
          HotChildren& h = hot[static_cast<size_t>(parent[i])];
          h.dense += name == "lp.solve";
          h.revised += name == "lp.solve_revised";
          h.ms += ms;
        }
      }
      if (name.rfind("planner.", 0) == 0) planner_self_ms += ms - lp_child_ms[i];
    }
    for (const HotChildren& h : hot) {
      if (h.dense > 0 && h.revised > 0) {
        lp_cold_path_ms += h.ms;
      } else if (h.revised > 0) {
        lp_crosscheck_ms += h.ms;
      } else if (h.dense > 0) {
        lp_dense_model_ms += h.ms;
      }
    }
    // Wall time of the epoch covered by at least one tick (ticks overlap
    // across scheduler workers).
    std::sort(ticks.begin(), ticks.end());
    int64_t covered_us = 0, end = INT64_MIN;
    for (const auto& [b, e] : ticks) {
      if (b > end) {
        covered_us += e - b;
        end = e;
      } else if (e > end) {
        covered_us += e - end;
        end = e;
      }
    }
    epoch_self_ms.push_back(
        std::max(0.0, epoch_wall_ms - static_cast<double>(covered_us) / 1000.0));
    epoch_wall_ms_total += epoch_wall_ms;
  }

  double Total(const char* name) const {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.total_ms;
  }
  double Self(const char* name) const {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.self_ms;
  }
};

// ---------------------------------------------------------------------------
// JSON output.

class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return Raw(key, buf);
  }
  JsonObject& Int(const std::string& key, long long v) {
    return Raw(key, std::to_string(v));
  }
  JsonObject& Str(const std::string& key, const std::string& v) {
    return Raw(key, "\"" + v + "\"");
  }
  JsonObject& Bool(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "\"" : ", \"") + key + "\": " + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// {"value": v, "unit": u, "samples": n} — `samples` only for percentiles.
std::string Metric(double value, const char* unit, long long samples = -1) {
  JsonObject m;
  m.Num("value", value).Str("unit", unit);
  if (samples >= 0) m.Int("samples", samples);
  return m.str();
}

int64_t CounterValue(const obs::MetricsSnapshot& snap, const std::string& name) {
  for (const auto& [key, value] : snap.counters) {
    if (key == name) return value;
  }
  return 0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct RadioTotals {
  long long unicast = 0, broadcast = 0, values = 0, retries = 0, drops = 0,
            duplicates = 0, corrupted = 0, delayed = 0;
  double energy_mj = 0.0;
};

RadioTotals SumRadio(const service::FleetService& fleet) {
  RadioTotals t;
  for (int d = 0; d < fleet.num_deployments(); ++d) {
    const net::TransmissionStats& s = fleet.deployment(d).radio_totals();
    t.unicast += s.unicast_messages;
    t.broadcast += s.broadcast_messages;
    t.values += s.values_transmitted;
    t.retries += s.retries;
    t.drops += s.drops;
    t.duplicates += s.duplicates;
    t.corrupted += s.corrupted;
    t.delayed += s.delayed;
    t.energy_mj += s.total_energy_mj;
  }
  return t;
}

RadioTotals Minus(const RadioTotals& a, const RadioTotals& b) {
  return {a.unicast - b.unicast,       a.broadcast - b.broadcast,
          a.values - b.values,         a.retries - b.retries,
          a.drops - b.drops,           a.duplicates - b.duplicates,
          a.corrupted - b.corrupted,   a.delayed - b.delayed,
          a.energy_mj - b.energy_mj};
}

std::string RadioJson(const RadioTotals& r) {
  JsonObject o;
  o.Int("unicast_messages", r.unicast)
      .Int("broadcast_messages", r.broadcast)
      .Int("values_transmitted", r.values)
      .Int("retries", r.retries)
      .Int("drops", r.drops)
      .Int("duplicates", r.duplicates)
      .Int("corrupted", r.corrupted)
      .Int("delayed", r.delayed)
      .Num("energy_mj", r.energy_mj);
  return o.str();
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int threads = std::min(4, util::ThreadPool::HardwareThreads());
  int window = 0;  ///< 0 = the workload's own
  int setups = 0;  ///< 0 = the workload's own
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") {
      a->workload = v;
    } else if (key == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::atof(v);
    } else if (key == "--trace") {
      a->trace = std::atoi(v) != 0;
    } else if (key == "--threads") {
      a->threads = std::max(1, std::atoi(v));
    } else if (key == "--window") {
      a->window = std::max(1, std::atoi(v));
    } else if (key == "--setups") {
      a->setups = std::max(1, std::atoi(v));
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty();
}

int Fail(const std::string& why) {
  std::fprintf(stderr, "FAIL: %s\n", why.c_str());
  return 1;
}

/// What one measured pass over a fleet observed.
struct Pass {
  // Deterministic: the first `window` epochs.
  Fnv digest;
  long long window_answers = 0;
  double recall_sum = 0.0;
  double energy_mj = 0.0;
  obs::MetricsSnapshot counters;
  RadioTotals radio;
  /// getrusage high-water mark at the end of the window, so it does not
  /// grow with however many tail epochs the host's speed allowed.
  double peak_rss_mb = 0.0;
  // Timed: every measured epoch.
  double measured_s = 0.0;
  /// Part of measured_s the traced pass spent draining and folding spans.
  double fold_s = 0.0;
  std::vector<double> epoch_ms, retire_us, poll_ms, snapshot_ms, health_ms;
  /// Per measured epoch: answers polled, and when its loop iteration ended
  /// (ms since the loop started).
  std::vector<long long> epoch_answers;
  std::vector<double> iter_end_ms;
  Ledger ledger;  ///< traced passes only
};

/// Epochs per block for the timing metrics. Each is a median over
/// consecutive blocks (the last takes the remainder), so a few slow seconds
/// on a shared host move one block rather than the figure. A block leaves
/// ten epochs beyond its p90.
constexpr size_t kBlockEpochs = 100;

struct EpochTiming {
  double query_epochs_per_s = 0.0, p50_ms = 0.0, p90_ms = 0.0;
  long long blocks = 0;
};

EpochTiming BlockMedians(const Pass& p) {
  const size_t n = p.epoch_ms.size();
  const size_t blocks = std::max<size_t>(1, n / kBlockEpochs);
  std::vector<double> rate, p50, p90;
  size_t begin = 0;
  double start_ms = 0.0;
  for (size_t b = 0; b < blocks; ++b) {
    const size_t end = b + 1 == blocks ? n : begin + kBlockEpochs;
    const std::vector<double> ms(p.epoch_ms.begin() + begin,
                                 p.epoch_ms.begin() + end);
    long long answers = 0;
    for (size_t i = begin; i < end; ++i) answers += p.epoch_answers[i];
    const double end_ms = p.iter_end_ms[end - 1];
    rate.push_back(1000.0 * static_cast<double>(answers) / (end_ms - start_ms));
    p50.push_back(Quantile(ms, 0.50));
    p90.push_back(Quantile(ms, 0.90));
    begin = end;
    start_ms = end_ms;
  }
  return {Quantile(rate, 0.50), Quantile(p50, 0.50), Quantile(p90, 0.50),
          static_cast<long long>(blocks)};
}

/// Counters a pass actually moved; registration order of untouched ones
/// depends on what ran earlier in the process.
std::vector<std::pair<std::string, int64_t>> Moved(
    const obs::MetricsSnapshot& snap) {
  std::vector<std::pair<std::string, int64_t>> out;
  for (const auto& c : snap.counters) {
    if (c.second != 0) out.push_back(c);
  }
  return out;
}

/// Runs the closed loop on `fleet`: the deterministic window, then more
/// epochs until `fill_s` seconds have passed, then retires every query.
/// Returns "" or the gate that failed.
std::string MeasurePass(Fleet* fleet, const Workload& w, uint64_t seed,
                        bool traced, double fill_s, Ops* ops, Pass* out) {
  service::FleetService& svc = *fleet->service;
  obs::MetricsRegistry::Global().Reset();
  Rng churn_rng(seed ^ 0x5eed5eedULL);
  const RadioTotals radio_start = SumRadio(svc);
  const double energy_start = svc.Snapshot().total_energy_mj;
  long long bad_answers = 0;

  if (traced) obs::Tracer::Global().Enable();
  const auto loop_start = Clock::now();
  int epoch = 0;
  for (;; ++epoch) {
    const bool in_window = epoch < w.window;
    if (!in_window && MsSince(loop_start) >= fill_s * 1000.0) break;
    // Writes: churn.
    for (int c = 0; c < w.churn_per_epoch && !fleet->standing.empty(); ++c) {
      const size_t victim = static_cast<size_t>(
          churn_rng.UniformInt(static_cast<uint64_t>(fleet->standing.size())));
      const Standing gone = fleet->standing[victim];
      const auto t0 = Clock::now();
      const bool retired = svc.Retire({gone.query_id, gone.tenant_id}).retired;
      out->retire_us.push_back(MsSince(t0) * 1000.0);
      ++ops->attempted;
      if (!retired) {
        ++ops->failed;
        continue;
      }
      if (gone.answers == 0 &&
          epoch - gone.admitted_epoch >= kAnswerGateEpochs) {
        return "query " + std::to_string(gone.query_id) +
               " retired without an answer";
      }
      fleet->standing.erase(fleet->standing.begin() +
                            static_cast<std::ptrdiff_t>(victim));
    }
    for (int c = 0; c < w.churn_per_epoch; ++c) {
      service::AdmitQueryRequest req;
      req.deployment_id = static_cast<int>(
          churn_rng.UniformInt(static_cast<uint64_t>(w.deployments)));
      req.tenant_id = static_cast<int>(
          churn_rng.UniformInt(static_cast<uint64_t>(w.tenants)));
      const int k = 2 + static_cast<int>(churn_rng.UniformInt(uint64_t{3}));
      req.spec = SpecFor(w, churn_rng.UniformInt(uint64_t{4}) == 0
                                ? Lp(false, k, 6.0)
                                : Greedy(k, 6.0));
      Admit(fleet, req, epoch, ops);
    }

    // The epoch.
    const auto t0 = Clock::now();
    auto report = svc.RunEpoch();
    const double wall_ms = MsSince(t0);
    ++ops->attempted;
    if (!report.ok()) return "RunEpoch: " + report.status().ToString();
    out->epoch_ms.push_back(wall_ms);

    // Reads: poll every standing query, then one Snapshot + HealthReport.
    const auto poll_start = Clock::now();
    long long epoch_answers = 0;
    for (Standing& s : fleet->standing) {
      service::PollAnswersResponse resp = svc.Poll({s.query_id, 0});
      ++ops->attempted;
      ops->failed += resp.dropped;
      s.answers += static_cast<long long>(resp.answers.size());
      epoch_answers += static_cast<long long>(resp.answers.size());
      if (!in_window) continue;
      out->window_answers += static_cast<long long>(resp.answers.size());
      for (const service::AnswerRecord& a : resp.answers) {
        Fnv& d = out->digest;
        d.Mix(s.query_id);
        d.Mix(a.epoch);
        d.Mix(static_cast<int>(a.kind));
        for (const core::Reading& r : a.answer) {
          d.Mix(r.node);
          d.Mix(r.value);
          if (r.node < 0 || r.node >= w.nodes || !std::isfinite(r.value)) {
            ++bad_answers;
          }
        }
        d.Mix(a.recall);
        d.Mix(a.energy_mj);
        if (static_cast<int>(a.answer.size()) > s.k || !(a.recall >= 0.0) ||
            a.recall > 1.0 || a.epoch != report->epoch) {
          ++bad_answers;
        }
        out->recall_sum += a.recall;
      }
    }
    out->poll_ms.push_back(MsSince(poll_start));
    auto t1 = Clock::now();
    const service::FleetStatus status = svc.Snapshot();
    out->snapshot_ms.push_back(MsSince(t1));
    t1 = Clock::now();
    const std::vector<core::QueryHealth> health = svc.HealthReport();
    out->health_ms.push_back(MsSince(t1));
    ops->attempted += 2;
    if (static_cast<size_t>(status.standing_queries) !=
            fleet->standing.size() ||
        health.size() != fleet->standing.size()) {
      return "snapshot disagrees with the client's standing queries";
    }
    out->epoch_answers.push_back(epoch_answers);
    out->iter_end_ms.push_back(MsSince(loop_start));

    if (epoch + 1 == w.window) {
      out->counters = obs::MetricsRegistry::Global().Snapshot();
      out->radio = Minus(SumRadio(svc), radio_start);
      out->energy_mj = status.total_energy_mj - energy_start;
      rusage usage{};
      getrusage(RUSAGE_SELF, &usage);
      out->peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
      if (traced) obs::Tracer::Global().Disable();
    }
    if (traced && in_window) {
      const auto f0 = Clock::now();
      out->ledger.AddEpoch(obs::Tracer::Global().Drain(), wall_ms);
      out->fold_s += MsSince(f0) / 1000.0;
    }
  }
  out->measured_s = MsSince(loop_start) / 1000.0;

  // Gates.
  if (bad_answers > 0) return std::to_string(bad_answers) + " malformed answers";
  if (out->window_answers == 0) return "no answers in the window";
  for (const Standing& s : fleet->standing) {
    if (s.answers == 0 && epoch - s.admitted_epoch >= kAnswerGateEpochs) {
      return "query " + std::to_string(s.query_id) + " never answered";
    }
  }
  if (w.dead_after_epochs > 0 && svc.deployment(0).rebuilds() == 0) {
    return "the watchdog never rebuilt around the killed node";
  }
  const int64_t audit_failures =
      obs::MetricsRegistry::Global().counter("audit.energy.failures")->value();
  if (audit_failures != 0) {
    return std::to_string(audit_failures) + " energy audit failures";
  }

  // Teardown: retire everything; the fleet must empty.
  for (const Standing& s : fleet->standing) {
    const auto t0 = Clock::now();
    const bool retired = svc.Retire({s.query_id, s.tenant_id}).retired;
    out->retire_us.push_back(MsSince(t0) * 1000.0);
    ++ops->attempted;
    if (!retired) ++ops->failed;
  }
  ++ops->attempted;
  if (auto r = svc.RunEpoch(); !r.ok()) {
    return "teardown epoch: " + r.status().ToString();
  }
  if (svc.Snapshot().standing_queries != 0) {
    return "queries still standing after retiring all";
  }
  return "";
}

/// `p` is the traced pass; `untraced` ran the same window without tracing.
std::string LayerJson(const Pass& p, const Pass& untraced,
                      const std::vector<double>& admit_us, int threads) {
  const Ledger& l = p.ledger;
  const obs::MetricsSnapshot& counters = p.counters;
  const auto c = [&](const char* name) {
    return static_cast<double>(CounterValue(counters, name));
  };
  const auto n = [](const std::vector<double>& v) {
    return static_cast<long long>(v.size());
  };
  const double replans = static_cast<double>(l.replan_ms.size());
  const double installed = c("session.replans");
  // Both passes ran the same window on identically set-up fleets. The
  // traced pass's Drain and fold are the harness's work, not tracing's.
  const double overhead_pct =
      100.0 * (p.measured_s - p.fold_s - untraced.measured_s) /
      untraced.measured_s;
  const std::vector<std::tuple<const char*, double, const char*, long long>>
      layers = {
          {"service.admit_us_p50", Quantile(admit_us, 0.50), "us", n(admit_us)},
          {"service.admit_us_p99", Quantile(admit_us, 0.99), "us", n(admit_us)},
          {"service.retire_us_p50", Quantile(p.retire_us, 0.50), "us",
           n(p.retire_us)},
          {"service.poll_ms_per_epoch", Quantile(p.poll_ms, 0.50), "ms",
           n(p.poll_ms)},
          {"service.snapshot_ms_p50", Quantile(p.snapshot_ms, 0.50), "ms",
           n(p.snapshot_ms)},
          {"service.health_report_ms_p50", Quantile(p.health_ms, 0.50), "ms",
           n(p.health_ms)},
          {"service.epoch_self_ms_p50", Quantile(l.epoch_self_ms, 0.50), "ms",
           n(l.epoch_self_ms)},
          {"service.admits", c("service.admits"), "count", -1},
          {"service.retires", c("service.retires"), "count", -1},
          {"service.rejects",
           c("service.rejects.invalid_spec") + c("service.rejects.queue_full") +
               c("service.rejects.tenant_energy_quota") +
               c("service.rejects.tenant_query_quota") +
               c("service.rejects.unknown_deployment"),
           "count", -1},
          {"scheduler.parallel_efficiency",
           Ratio(l.tick_ms_total, l.epoch_wall_ms_total * threads), "ratio", -1},
          {"engine.tick_ms_p50", Quantile(l.tick_ms, 0.50), "ms", n(l.tick_ms)},
          {"engine.tick_ms_p99", Quantile(l.tick_ms, 0.99), "ms", n(l.tick_ms)},
          {"engine.tick_self_ms_total", l.Self("session.tick"), "ms", -1},
          {"engine.query_epochs", c("session.query_epochs"), "count", -1},
          {"engine.explore_epochs", c("session.explore_epochs"), "count", -1},
          {"engine.audit_epochs", c("session.audit_epochs"), "count", -1},
          {"engine.rebuilds", c("session.watchdog.rebuilds"), "count", -1},
          {"planner.replan_ms_p50", Quantile(l.replan_ms, 0.50), "ms",
           n(l.replan_ms)},
          {"planner.replan_ms_p99", Quantile(l.replan_ms, 0.99), "ms",
           n(l.replan_ms)},
          {"planner.lp_filter.plan_ms_total", l.Total("planner.lp_filter.plan"),
           "ms", -1},
          {"planner.lp_no_filter.plan_ms_total",
           l.Total("planner.lp_no_filter.plan"), "ms", -1},
          {"planner.greedy.plan_ms_total", l.Total("planner.greedy.plan"), "ms",
           -1},
          {"planner.proof.plan_ms_total", l.Total("planner.proof.plan"), "ms",
           -1},
          {"planner.self_ms_total", l.planner_self_ms, "ms", -1},
          {"planner.replans_attempted", replans, "count", -1},
          {"planner.replans_installed", installed, "count", -1},
          {"planner.install_ratio", Ratio(installed, replans), "ratio", -1},
          {"planner.short_circuits", c("planner.replan_short_circuits"), "count",
           -1},
          {"planner.repair_rounds", c("planner.repair_rounds"), "count", -1},
          {"planner.fill_passes", c("planner.fill_passes"), "count", -1},
          {"lp.solve_ms_total", l.lp_top_ms_total, "ms", -1},
          {"lp.solve_ms_p99", Quantile(l.lp_top_ms, 0.99), "ms",
           n(l.lp_top_ms)},
          {"lp.hot_self_ms_total", l.lp_hot_self_ms, "ms", -1},
          {"lp.dense_fallback_ms_total", l.lp_cold_path_ms, "ms", -1},
          {"lp.crosscheck_ms_total", l.lp_crosscheck_ms, "ms", -1},
          {"lp.dense_model_ms_total", l.lp_dense_model_ms, "ms", -1},
          {"lp.solves", c("lp.solves"), "count", -1},
          {"lp.phase1_pivots", c("lp.phase1_pivots"), "count", -1},
          {"lp.phase2_pivots", c("lp.phase2_pivots"), "count", -1},
          {"lp.revised_solves", c("lp.revised_solves"), "count", -1},
          {"lp.revised_fallbacks", c("lp.revised_fallbacks"), "count", -1},
          {"lp.warm_solves", c("lp.warm_solves"), "count", -1},
          {"lp.warm_fallbacks", c("lp.warm_fallbacks"), "count", -1},
          {"lp.warm_hit_ratio",
           Ratio(c("lp.warm_solves"), c("lp.warm_solves") + c("lp.warm_fallbacks")),
           "ratio", -1},
          {"workspace.lp.hit_ratio",
           Ratio(c("workspace.lp.hit"), c("workspace.lp.hit") + c("workspace.lp.miss")),
           "ratio", -1},
          {"workspace.lp.patch", c("workspace.lp.patch"), "count", -1},
          {"workspace.hits.hit_ratio",
           Ratio(c("workspace.hits.hit"),
                 c("workspace.hits.hit") + c("workspace.hits.miss")),
           "ratio", -1},
          {"workspace.topo.hit_ratio",
           Ratio(c("workspace.topo.hit"),
                 c("workspace.topo.hit") + c("workspace.topo.miss")),
           "ratio", -1},
          {"hit_matrix.incremental_syncs", c("hit_matrix.incremental_syncs"),
           "count", -1},
          {"hit_matrix.rebuilds", c("hit_matrix.rebuilds"), "count", -1},
          {"exec.superplan_ms_total", l.Total("exec.superplan"), "ms", -1},
          {"exec.superplan_us_p50", Quantile(l.superplan_us, 0.50), "us",
           n(l.superplan_us)},
          {"exec.proof_ms_total",
           l.Total("exec.proof.phase1") + l.Total("exec.proof.mopup"), "ms", -1},
          {"exec.superplan.shared_messages", c("exec.superplan.shared_messages"),
           "count", -1},
          {"exec.superplan.values_lost", c("exec.superplan.values_lost"), "count",
           -1},
          {"exec.mopup.requests", c("exec.mopup.requests"), "count", -1},
          {"net.unicast_messages", static_cast<double>(p.radio.unicast), "count",
           -1},
          {"net.broadcast_messages", static_cast<double>(p.radio.broadcast),
           "count", -1},
          {"net.values_transmitted", static_cast<double>(p.radio.values), "count",
           -1},
          {"net.retries", static_cast<double>(p.radio.retries), "count", -1},
          {"net.drops", static_cast<double>(p.radio.drops), "count", -1},
          {"net.duplicates", static_cast<double>(p.radio.duplicates), "count", -1},
          {"net.corrupted", static_cast<double>(p.radio.corrupted), "count", -1},
          {"net.delayed", static_cast<double>(p.radio.delayed), "count", -1},
          {"transport.duplicates_dropped", c("transport.duplicates_dropped"),
           "count", -1},
          {"transport.stale_fenced", c("transport.stale_fenced"), "count", -1},
          {"transport.corrupt_rejected", c("transport.corrupt_rejected"), "count",
           -1},
          {"obs.trace_overhead_pct", overhead_pct, "%", -1},
      };
  JsonObject json;
  for (const auto& [name, value, unit, samples] : layers) {
    json.Raw(name, Metric(value, unit, samples));
  }
  return json.str();
}

std::string SpansJson(const Ledger& ledger) {
  JsonObject json;
  for (const auto& [name, t] : ledger.spans) {
    JsonObject s;
    s.Int("count", t.count).Num("total_ms", t.total_ms).Num("self_ms", t.self_ms);
    json.Raw(name, s.str());
  }
  return json.str();
}

int Run(const Args& args) {
  Workload w;
  if (!FindWorkload(args.workload, &w)) {
    return Fail("unknown workload " + args.workload);
  }
  if (args.window > 0) w.window = args.window;
  if (args.setups > 0) w.setups = args.setups;
  obs::SetEnergyAuditFailFast(true);
  Ops ops;

  // Set up several times: half before the measured pass, whose fleet is
  // the last of them, and half after it, so that a few slow seconds on the
  // host cannot skew every sample.
  std::vector<double> setup_s;
  std::unique_ptr<Fleet> fleet;
  const auto set_up = [&]() {
    fleet.reset();  // free the previous fleet before timing the next
    const auto t0 = Clock::now();
    fleet = SetUp(w, args.seed, args.threads, &ops);
    setup_s.push_back(MsSince(t0) / 1000.0);
    return fleet != nullptr;
  };
  const int setups_before = (w.setups + 1) / 2;
  for (int i = 0; i < setups_before; ++i) {
    if (!set_up()) return Fail("set-up failed");
  }

  // A traced run measures the window twice on identical fleets, untraced
  // then traced, so the overhead compares equal work.
  Pass main;
  const CpuTimes cpu_start = ReadCpuTimes();
  std::string error = MeasurePass(fleet.get(), w, args.seed, /*traced=*/false,
                                  args.trace ? 0.0 : args.seconds, &ops, &main);
  if (!error.empty()) return Fail(error);
  const CpuTimes cpu_end = ReadCpuTimes();
  // Share of the host's CPU time that went to other guests while the main
  // pass ran: a slow run on a busy shared host shows here.
  const double steal_share =
      Ratio(static_cast<double>(cpu_end.steal - cpu_start.steal),
            static_cast<double>(cpu_end.total - cpu_start.total));
  Pass traced;
  std::vector<double> traced_admit_us;
  if (args.trace) {
    fleet.reset();
    fleet = SetUp(w, args.seed, args.threads, &ops);
    if (fleet == nullptr) return Fail("set-up failed");
    error = MeasurePass(fleet.get(), w, args.seed, /*traced=*/true, 0.0, &ops,
                        &traced);
    if (!error.empty()) return Fail(error);
    if (traced.digest.value() != main.digest.value() ||
        Moved(traced.counters) != Moved(main.counters)) {
      return Fail("tracing changed the answers or the work counters");
    }
    traced_admit_us = fleet->admit_us;
  }
  const int bootstrap_epochs = fleet->bootstrap_epochs;
  for (int i = setups_before; i < w.setups; ++i) {
    if (!set_up()) return Fail("set-up failed");
  }

  const long long epochs = static_cast<long long>(main.epoch_ms.size());
  const double answers = static_cast<double>(main.window_answers);
  const EpochTiming timing = BlockMedians(main);
  JsonObject e2e;
  e2e.Raw("query_epochs_per_s", Metric(timing.query_epochs_per_s, "1/s"))
      .Raw("epoch_p50_ms", Metric(timing.p50_ms, "ms", epochs))
      .Raw("epoch_p90_ms", Metric(timing.p90_ms, "ms", epochs))
      .Raw("recall_mean", Metric(main.recall_sum / answers, "ratio"))
      .Raw("energy_mj_per_answer", Metric(main.energy_mj / answers, "mJ"))
      .Raw("failed_ops_share",
           Metric(Ratio(static_cast<double>(ops.failed),
                        static_cast<double>(ops.attempted)),
                  "ratio"))
      .Raw("setup_s", Metric(Quantile(setup_s, 0.50), "s",
                             static_cast<long long>(setup_s.size())))
      .Raw("peak_rss_mb", Metric(main.peak_rss_mb, "MB"));

  JsonObject counters;
  for (const auto& [name, value] : main.counters.counters) {
    counters.Int(name, value);
  }
  JsonObject provenance;
  provenance.Str("workload", w.name)
      .Int("seed", static_cast<long long>(args.seed))
      .Str("config_fingerprint", Hex(ConfigFingerprint(w)))
      .Int("scheduler_threads", args.threads)
      .Int("window_epochs", w.window)
      .Int("setups", w.setups)
      .Int("bootstrap_epochs", bootstrap_epochs)
      .Int("measured_epochs", epochs)
      .Int("timing_blocks", timing.blocks)
      .Num("measured_s", main.measured_s)
      .Bool("traced", args.trace);
  JsonObject host;
  host.Int("nproc", util::ThreadPool::HardwareThreads())
      .Num("cpu_steal_share", steal_share);
#ifdef NDEBUG
  host.Bool("ndebug", true);
#else
  host.Bool("ndebug", false);
#endif

  JsonObject out;
  out.Raw("provenance", provenance.str())
      .Raw("host", host.str())
      .Int("attempted", ops.attempted)
      .Int("failed", ops.failed)
      .Str("answer_digest", Hex(main.digest.value()))
      .Int("window_answers", main.window_answers)
      .Raw("end_to_end", e2e.str())
      .Raw("counters", counters.str())
      .Raw("radio", RadioJson(main.radio));
  if (args.trace) {
    out.Raw("per_layer",
            LayerJson(traced, main, traced_admit_us, args.threads))
        .Raw("spans", SpansJson(traced.ledger));
  }
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace
}  // namespace prospector

int main(int argc, char** argv) {
  prospector::Args args;
  if (!prospector::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: serve_bench --workload lp_replan|fleet_churn|"
                 "audit_fenced [--seed N] [--seconds S] [--trace 0|1] "
                 "[--threads N] [--window EPOCHS] [--setups N]\n");
    return 2;
  }
  return prospector::Run(args);
}
