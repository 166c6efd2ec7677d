#include "src/core/lp_filter_planner.h"

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/plan_eval.h"
#include "src/lp/model.h"
#include "src/obs/obs.h"

namespace prospector {
namespace core {

Result<QueryPlan> LpFilterPlanner::Plan(const PlannerContext& ctx,
                                        const sampling::SampleSet& samples,
                                        const PlanRequest& request) {
  PROSPECTOR_SPAN("planner.lp_filter.plan");
  last_stats_ = PlannerStats{};
  const net::Topology& topo = *ctx.topology;
  const int n = topo.num_nodes();
  const int root = topo.root();
  if (samples.num_nodes() != n) {
    return Status::InvalidArgument("sample set does not match topology size");
  }
  const int S = samples.num_samples();

  // Only edges that lie beneath some contributing node can ever deliver a
  // hit; restrict the program to those.
  std::vector<char> relevant(n, 0);
  for (int j = 0; j < S; ++j) {
    for (int i : samples.ones(j)) {
      for (int e : topo.PathEdges(i)) relevant[e] = 1;
    }
  }

  lp::Model model;
  model.SetSense(lp::Sense::kMaximize);
  std::vector<int> z(n, -1), b(n, -1);
  for (int e = 0; e < n; ++e) {
    if (e == root || !relevant[e]) continue;
    z[e] = model.AddBinaryRelaxed(0.0);
    const double ub = std::min(request.k, topo.subtree_size(e));
    b[e] = model.AddVariable(0.0, ub, 0.0);
    // Bandwidth requires the edge to be used (pays per-message cost).
    model.AddRow(lp::RowType::kLessEqual, 0.0, {{b[e], 1.0}, {z[e], -ub}});
  }

  // y variables and their rows, one block per sample. `node_vars[j]` keeps
  // sample j's (node, y-variable) pairs in ones(j) order for the rounding
  // step.
  std::vector<std::vector<std::pair<int, int>>> node_vars(S);
  for (int j = 0; j < S; ++j) {
    std::unordered_map<int, std::vector<lp::Term>> bandwidth_terms;
    for (int i : samples.ones(j)) {
      if (i == root) continue;  // the root's value is free
      const int yv = model.AddBinaryRelaxed(1.0);
      node_vars[j].push_back({i, yv});
      for (int e : topo.PathEdges(i)) {
        // Line (7): returning i's value uses every edge above i.
        model.AddRow(lp::RowType::kLessEqual, 0.0, {{yv, 1.0}, {z[e], -1.0}});
        bandwidth_terms[e].push_back({yv, 1.0});
      }
    }
    // Line (8): per-sample bandwidth constraint on every edge beneath which
    // this sample has contributing nodes.
    for (auto& [e, terms] : bandwidth_terms) {
      std::vector<lp::Term> row = std::move(terms);
      row.push_back({b[e], -1.0});
      model.AddRow(lp::RowType::kLessEqual, 0.0, std::move(row));
    }
  }

  // Line (6): the energy budget.
  std::vector<lp::Term> cost_row;
  for (int e = 0; e < n; ++e) {
    if (e == root || z[e] < 0) continue;
    cost_row.push_back(
        {z[e], ctx.EdgeFixedCost(e) + ctx.NodeAcquisitionCost()});
    cost_row.push_back({b[e], ctx.EdgePerValueCost(e)});
  }
  model.AddRow(lp::RowType::kLessEqual, request.energy_budget_mj,
               std::move(cost_row));

  Result<lp::Solution> solved =
      lp::SimplexSolver(options_.simplex).Solve(model);
  if (!solved.ok()) return solved.status();
  last_stats_.lp = solved->stats;
  if (solved->status != lp::SolveStatus::kOptimal) {
    return Status::Internal(std::string("LP+LF solve failed: ") +
                            lp::ToString(solved->status));
  }
  last_lp_objective_ = solved->objective;

  // Integral bandwidths: round the y's, then give each edge the largest
  // per-sample count of rounded entries beneath it.
  std::vector<int> bw(n, 0);
  for (const auto& sample_vars : node_vars) {
    std::unordered_map<int, int> count;
    for (const auto& [i, yv] : sample_vars) {
      if (solved->values[yv] > options_.rounding_threshold) {
        for (int e : topo.PathEdges(i)) ++count[e];
      }
    }
    for (const auto& [e, c] : count) bw[e] = std::max(bw[e], c);
  }

  QueryPlan plan = QueryPlan::Bandwidth(request.k, std::move(bw));
  plan.Normalize(topo);

  // Repair and fill score every trial plan against the window's packed
  // contribution rows, so each evaluation is proportional to the
  // contributing nodes instead of the network.

  // Budget repair: drop the bandwidth unit whose loss costs the fewest
  // sample hits per mJ reclaimed (ties to the lowest edge id), until the
  // plan fits.
  if (options_.repair_budget) {
    net::NetworkSimulator cost_sim(&topo, ctx.energy, ctx.failures);
    int hits = SampleHits(plan, topo, samples);
    while (ExpectedCollectionCost(plan, cost_sim) > request.energy_budget_mj) {
      std::vector<int> candidates;
      for (int e = 0; e < n; ++e) {
        if (e != root && plan.bandwidth[e] > 0) candidates.push_back(e);
      }
      if (candidates.empty()) break;  // nothing left to trim

      struct TrialScore {
        double score = 0.0;
        int hits = 0;
      };
      const double plan_cost = ExpectedCollectionCost(plan, cost_sim);
      std::vector<TrialScore> scores(candidates.size());
      for (size_t c = 0; c < candidates.size(); ++c) {
        QueryPlan trial = plan;
        --trial.bandwidth[candidates[c]];
        trial.Normalize(topo);
        const int trial_hits = SampleHits(trial, topo, samples);
        const double saved = plan_cost - ExpectedCollectionCost(trial, cost_sim);
        scores[c].score =
            static_cast<double>(hits - trial_hits) / std::max(saved, 1e-12);
        scores[c].hits = trial_hits;
      }

      int best = -1;
      for (size_t c = 0; c < candidates.size(); ++c) {
        if (best < 0 || scores[c].score < scores[best].score) {
          best = static_cast<int>(c);
        }
      }
      --plan.bandwidth[candidates[best]];
      plan.Normalize(topo);
      hits = scores[best].hits;
      ++last_stats_.repair_rounds;
    }
    PROSPECTOR_COUNTER_ADD("planner.repair_rounds", last_stats_.repair_rounds);
  }

  // Fill: conservative rounding can zero out scattered fractional mass and
  // strand budget. Greedily grant one bandwidth unit along the path of the
  // most frequently contributing nodes while the budget allows and hits
  // improve.
  if (options_.fill_budget) {
    net::NetworkSimulator cost_sim(&topo, ctx.energy, ctx.failures);
    const std::vector<int>& cs = samples.column_sums();
    std::vector<int> order;
    for (int i = 0; i < n; ++i) {
      if (i != root && cs[i] > 0) order.push_back(i);
    }
    std::sort(order.begin(), order.end(), [&](int a, int bnode) {
      if (cs[a] != cs[bnode]) return cs[a] > cs[bnode];
      return a < bnode;
    });
    int hits = SampleHits(plan, topo, samples);
    bool progress = true;
    while (progress) {
      progress = false;
      ++last_stats_.fill_passes;
      for (int i : order) {
        QueryPlan trial = plan;
        for (int e : topo.PathEdges(i)) {
          trial.bandwidth[e] =
              std::min(trial.bandwidth[e] + 1,
                       std::min(request.k, topo.subtree_size(e)));
        }
        if (ExpectedCollectionCost(trial, cost_sim) >
            request.energy_budget_mj) {
          continue;
        }
        const int trial_hits = SampleHits(trial, topo, samples);
        if (trial_hits > hits) {
          plan = std::move(trial);
          hits = trial_hits;
          progress = true;
        }
      }
    }
    PROSPECTOR_COUNTER_ADD("planner.fill_passes", last_stats_.fill_passes);
  }
  return plan;
}

}  // namespace core
}  // namespace prospector
