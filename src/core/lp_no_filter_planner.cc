#include "src/core/lp_no_filter_planner.h"

#include <algorithm>
#include <vector>

#include "src/core/plan_eval.h"
#include "src/core/workspace.h"
#include "src/lp/model.h"
#include "src/obs/obs.h"

namespace prospector {
namespace core {
namespace {

// Expected cost of shipping the chosen nodes' values to the root: per-value
// cost on every path edge plus per-message cost on every used edge.
// `paths` is the topology's path cache (see ComputePathCache).
double SelectionCost(const PlannerContext& ctx, const net::Topology& topo,
                     const std::vector<std::vector<int>>& paths,
                     const std::vector<char>& chosen) {
  std::vector<char> used(topo.num_nodes(), 0);
  double cost = 0.0;
  for (int i = 0; i < topo.num_nodes(); ++i) {
    if (i == topo.root() || !chosen[i]) continue;
    cost += ctx.NodeAcquisitionCost();
    for (int e : paths[i]) {
      cost += ctx.EdgePerValueCost(e);
      if (!used[e]) {
        used[e] = 1;
        cost += ctx.EdgeFixedCost(e);
      }
    }
  }
  return cost;
}

}  // namespace

Result<QueryPlan> LpNoFilterPlanner::Plan(const PlannerContext& ctx,
                                          const sampling::SampleSet& samples,
                                          const PlanRequest& request) {
  PROSPECTOR_SPAN("planner.lp_no_filter.plan");
  last_stats_ = PlannerStats{};
  const net::Topology& topo = *ctx.topology;
  const int n = topo.num_nodes();
  const int root = topo.root();
  if (samples.num_nodes() != n) {
    return Status::InvalidArgument("sample set does not match topology size");
  }
  // Objective weights and repair/fill ordering come off the packed hit
  // matrix (cached across queries when a workspace is attached) — the same
  // integers SampleSet::column_sums() maintains, so plans are identical.
  const auto hits_ptr = GetHitMatrix(ctx.workspace, samples);
  const std::vector<int>& colsum = hits_ptr->column_sums();
  util::ThreadPool* pool = EnsureThreadPool(&pool_, options_.threads);

  // Constraint-matrix ingredients: every node's root path, cached across
  // queries when a workspace is attached. Per-node path computations are
  // independent, so they are produced on the pool; each node's cost sum is
  // accumulated by one thread in path order, keeping the bits identical to
  // the serial loop.
  const auto paths_ptr = GetPathCache(ctx.workspace, topo, pool);
  const std::vector<std::vector<int>>& paths = *paths_ptr;

  // The LP lives in a leased workspace entry (or a throwaway local one —
  // the seed path). Its constraint matrix depends only on the topology and
  // the cost model, so on a hit nothing but the objective (fresh column
  // sums) and the budget RHS needs patching.
  PlanningWorkspace::LpLease lease;
  LpEntry local_entry;
  LpEntry* entry = &local_entry;
  if (ctx.workspace != nullptr) {
    lease = ctx.workspace->AcquireLp(LpKind::kNoFilter, ctx.workspace_lease);
    entry = lease.get();
  }
  const uint64_t fingerprint = PlanningWorkspace::CostFingerprint(ctx);
  if (entry->Stale(topo.epoch(), /*sid=*/0, fingerprint, /*request_k=*/0)) {
    if (ctx.workspace != nullptr) ctx.workspace->NoteLpMiss();
    entry->Reset();

    std::vector<double> path_value_cost(n, 0.0);
    auto accumulate_costs = [&](int begin, int end) {
      for (int i = begin; i < end; ++i) {
        for (int e : paths[i]) path_value_cost[i] += ctx.EdgePerValueCost(e);
      }
    };
    if (pool != nullptr) {
      pool->ParallelFor(n, accumulate_costs);
    } else {
      accumulate_costs(0, n);
    }

    lp::Model& model = entry->model;
    model.SetSense(lp::Sense::kMaximize);
    // x_i: acquire node i and ship to root. z_e: edge e carries a message.
    entry->x.assign(n, -1);
    entry->z.assign(n, -1);
    for (int i = 0; i < n; ++i) {
      if (i == root) continue;
      entry->x[i] = model.AddBinaryRelaxed(static_cast<double>(colsum[i]));
      entry->z[i] = model.AddBinaryRelaxed(0.0);
    }

    std::vector<lp::Term> cost_row;
    for (int i = 0; i < n; ++i) {
      if (i == root) continue;
      for (int e : paths[i]) {
        // Line (2): choosing x_i forces every edge above i into use.
        model.AddRow(lp::RowType::kLessEqual, 0.0,
                     {{entry->x[i], 1.0}, {entry->z[e], -1.0}});
      }
      cost_row.push_back(
          {entry->x[i], path_value_cost[i] + ctx.NodeAcquisitionCost()});
      cost_row.push_back({entry->z[i], ctx.EdgeFixedCost(i)});
    }
    // Line (3): the energy budget.
    entry->budget_row = model.AddRow(lp::RowType::kLessEqual,
                                     request.energy_budget_mj, cost_row);
    entry->built = true;
    entry->topo_epoch = topo.epoch();
    entry->cost_fingerprint = fingerprint;
  } else {
    ctx.workspace->NoteLpHit();
    for (int i = 0; i < n; ++i) {
      if (i == root) continue;
      entry->model.SetObjective(entry->x[i], static_cast<double>(colsum[i]));
    }
    entry->model.SetRhs(entry->budget_row, request.energy_budget_mj);
    ctx.workspace->NoteLpPatch(n);
  }

  Result<lp::Solution> solved =
      lp::SimplexSolver(options_.simplex).Solve(entry->model);
  if (!solved.ok()) return solved.status();
  last_stats_.lp = solved->stats;
  if (solved->status != lp::SolveStatus::kOptimal) {
    return Status::Internal(std::string("LP-LF solve failed: ") +
                            lp::ToString(solved->status));
  }
  last_lp_objective_ = solved->objective;

  // Round x at the threshold (Section 4.1).
  std::vector<char> chosen(n, 0);
  for (int i = 0; i < n; ++i) {
    if (i == root) continue;
    chosen[i] = solved->values[entry->x[i]] > options_.rounding_threshold ? 1 : 0;
  }

  // Repair: rounding can cost up to 2C; drop the cheapest-to-lose choices
  // (lowest column sum) until the plan fits the budget again.
  if (options_.repair_budget) {
    while (SelectionCost(ctx, topo, paths, chosen) > request.energy_budget_mj) {
      int worst = -1;
      for (int i = 0; i < n; ++i) {
        if (i == root) continue;
        if (chosen[i] && (worst < 0 || colsum[i] < colsum[worst])) worst = i;
      }
      if (worst < 0) break;
      chosen[worst] = 0;
      ++last_stats_.repair_rounds;
    }
    PROSPECTOR_COUNTER_ADD("planner.repair_rounds", last_stats_.repair_rounds);
  }

  // Fill: spend leftover budget on the best unchosen nodes that still fit.
  if (options_.fill_budget) {
    std::vector<int> order;
    for (int i = 0; i < n; ++i) {
      if (i != root && !chosen[i] && colsum[i] > 0) order.push_back(i);
    }
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      if (colsum[a] != colsum[b]) return colsum[a] > colsum[b];
      return a < b;
    });
    double cost = SelectionCost(ctx, topo, paths, chosen);
    std::vector<char> used(n, 0);
    for (int i = 0; i < n; ++i) {
      if (i == root || !chosen[i]) continue;
      for (int e : paths[i]) used[e] = 1;
    }
    for (int i : order) {
      double added = ctx.NodeAcquisitionCost();
      for (int e : paths[i]) {
        added += ctx.EdgePerValueCost(e);
        if (!used[e]) added += ctx.EdgeFixedCost(e);
      }
      if (cost + added > request.energy_budget_mj) continue;
      cost += added;
      chosen[i] = 1;
      for (int e : paths[i]) used[e] = 1;
    }
    last_stats_.fill_passes = 1;  // single greedy pass by construction
    PROSPECTOR_COUNTER_ADD("planner.fill_passes", 1);
  }

  QueryPlan plan = QueryPlan::NodeSelection(request.k, std::move(chosen), topo);
  plan.Normalize(topo);
  return plan;
}

}  // namespace core
}  // namespace prospector
