#include "src/core/proof_planner.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/lp/model.h"
#include "src/obs/obs.h"

namespace prospector {
namespace core {
namespace {

// Builds sample j's proof block — the p[i][m] variables plus rows
// (12)/(13)/(14) — into the model. A block is self-contained: it
// references only its own p variables and the shared per-edge bandwidths
// `b` (the LP variable of each edge, -1 at the root).
void AppendProofBlock(lp::Model* model, const std::vector<int>& b,
                      const net::Topology& topo,
                      const sampling::SampleSet& samples, int j) {
  const int n = topo.num_nodes();

  // p maps (i, ancestor-position m) -> LP variable.
  // Objective: top-k entries proven at the root.
  std::vector<std::vector<int>> p(n);
  for (int i = 0; i < n; ++i) {
    const std::vector<int>& anc = topo.AncestorsOf(i);
    p[i].resize(anc.size());
    const bool counts =
        samples.Contributes(j, i);  // in ones(j): proven-at-root scores
    for (size_t m = 0; m < anc.size(); ++m) {
      const bool is_root_level = (m + 1 == anc.size());
      p[i][m] = model->AddBinaryRelaxed(counts && is_root_level ? 1.0 : 0.0);
    }
  }

  // Line (12): proven values at v must fit v's bandwidth.
  for (int v = 0; v < n; ++v) {
    if (v == topo.root()) continue;
    std::vector<lp::Term> row;
    for (int i : topo.DescendantsOf(v)) {
      // position of v in AncestorsOf(i) = depth(i) - depth(v).
      const int m = topo.depth(i) - topo.depth(v);
      row.push_back({p[i][m], 1.0});
    }
    row.push_back({b[v], -1.0});
    model->AddRow(lp::RowType::kLessEqual, 0.0, std::move(row));
  }

  for (int i = 0; i < n; ++i) {
    const std::vector<int>& anc = topo.AncestorsOf(i);
    for (size_t m = 0; m < anc.size(); ++m) {
      const int a = anc[m];
      // Line (13): proven at a requires proven at the previous node on
      // the path from i.
      if (m > 0) {
        model->AddRow(lp::RowType::kLessEqual, 0.0,
                      {{p[i][m], 1.0}, {p[i][m - 1], -1.0}});
      }
      // Line (14): every off-path child of a must prove a smaller value.
      const int path_child = m > 0 ? anc[m - 1] : -1;
      for (int c : topo.children(a)) {
        if (c == path_child) continue;
        std::vector<lp::Term> row{{p[i][m], 1.0}};
        bool any_smaller = false;
        for (int ip : topo.DescendantsOf(c)) {
          if (samples.IsSmaller(j, ip, i)) {
            any_smaller = true;
            const int mc = topo.depth(ip) - topo.depth(c);
            row.push_back({p[ip][mc], -1.0});
          }
        }
        // The (c.3) exception: no smaller value exists in c's subtree;
        // the constraint is omitted (the paper's formulation).
        if (any_smaller) {
          model->AddRow(lp::RowType::kLessEqual, 0.0, std::move(row));
        }
      }
    }
  }
}

}  // namespace

double ProofPlanner::MinimumCost(const PlannerContext& ctx) {
  const net::Topology& topo = *ctx.topology;
  // Every sensing node takes a measurement (the mains-powered base
  // station's sensing is not budgeted).
  double cost = (topo.num_nodes() - 1) * ctx.NodeAcquisitionCost();
  for (int e = 0; e < topo.num_nodes(); ++e) {
    if (e == topo.root()) continue;
    cost += ctx.EdgeMessageCost(e, 1);
    // Reserve for the proven-count byte on non-leaf edges (Section 4.3,
    // step 4: leaves never transmit the count).
    if (!topo.is_leaf(e)) {
      cost += ctx.energy.per_byte_mj * ctx.failures.ExpectedCostFactor(e);
    }
  }
  return cost;
}

Result<QueryPlan> ProofPlanner::Plan(const PlannerContext& ctx,
                                     const sampling::SampleSet& all_samples,
                                     const PlanRequest& request) {
  PROSPECTOR_SPAN("planner.proof.plan");
  last_stats_ = PlannerStats{};
  const net::Topology& topo = *ctx.topology;
  const int n = topo.num_nodes();
  const int root = topo.root();
  if (all_samples.num_nodes() != n) {
    return Status::InvalidArgument("sample set does not match topology size");
  }
  // The proof LP has one variable per (sample, node, ancestor) triple, so a
  // large sample window must be subsampled to keep the program tractable.
  // The window is the trailing `W` rows of all_samples, addressed in place
  // (no Recent() copy): sample rows are self-contained, so index offsets
  // read the same contributions the copy would.
  const int S_all = all_samples.num_samples();
  const bool cap = options_.max_proof_samples > 0 &&
                   S_all > options_.max_proof_samples;
  const int W = cap ? options_.max_proof_samples : S_all;
  const int offset = S_all - W;
  const double floor_cost = MinimumCost(ctx);
  if (request.energy_budget_mj < floor_cost) {
    return Status::FailedPrecondition(
        "budget " + std::to_string(request.energy_budget_mj) +
        " mJ below the proof-carrying floor of " + std::to_string(floor_cost) +
        " mJ (every edge must carry at least one value)");
  }

  // Budget decomposition used by the LP's budget row and the repair loop:
  // per-message costs and count-byte reserves are a constant floor; only
  // the per-value bandwidth mass is the LP's to spend.
  const double fixed_part = floor_cost -
                            [&] {
                              double one_value = 0.0;
                              for (int e = 0; e < n; ++e) {
                                if (e != root) {
                                  one_value += ctx.EdgePerValueCost(e);
                                }
                              }
                              return one_value;
                            }();

  lp::Model model;
  model.SetSense(lp::Sense::kMaximize);

  // Bandwidths: at least one value on every edge.
  std::vector<int> b(n, -1);
  for (int e = 0; e < n; ++e) {
    if (e == root) continue;
    b[e] = model.AddVariable(1.0, topo.subtree_size(e), 0.0);
  }

  for (int w = 0; w < W; ++w) {
    AppendProofBlock(&model, b, topo, all_samples, offset + w);
  }

  // Line (11): budget over the bandwidth-dependent part.
  std::vector<lp::Term> cost_row;
  for (int e = 0; e < n; ++e) {
    if (e == root) continue;
    cost_row.push_back({b[e], ctx.EdgePerValueCost(e)});
  }
  model.AddRow(lp::RowType::kLessEqual, request.energy_budget_mj - fixed_part,
               std::move(cost_row));

  Result<lp::Solution> solved =
      lp::SimplexSolver(options_.simplex).Solve(model);
  if (!solved.ok()) return solved.status();
  last_stats_.lp = solved->stats;
  if (solved->status != lp::SolveStatus::kOptimal) {
    return Status::Internal(std::string("Proof LP solve failed: ") +
                            lp::ToString(solved->status));
  }
  last_lp_objective_ = solved->objective;

  // Round bandwidths half-up within [1, subtree size].
  std::vector<int> bw(n, 0);
  std::vector<double> frac(n, 0.0);
  for (int e = 0; e < n; ++e) {
    if (e == root) continue;
    frac[e] = solved->values[b[e]];
    bw[e] = std::clamp(static_cast<int>(std::floor(frac[e] + 0.5)), 1,
                       topo.subtree_size(e));
  }

  // Repair: trim the edges we rounded up the most until within budget.
  if (options_.repair_budget) {
    auto plan_cost = [&] {
      double cost = fixed_part;
      for (int e = 0; e < n; ++e) {
        if (e != root) cost += bw[e] * ctx.EdgePerValueCost(e);
      }
      return cost;
    };
    while (plan_cost() > request.energy_budget_mj) {
      int worst = -1;
      double worst_gap = -1.0;
      for (int e = 0; e < n; ++e) {
        if (e == root || bw[e] <= 1) continue;
        const double gap = bw[e] - frac[e];
        if (gap > worst_gap) {
          worst_gap = gap;
          worst = e;
        }
      }
      if (worst < 0) break;  // already at the floor everywhere
      --bw[worst];
    }
  }

  return QueryPlan::Bandwidth(request.k, std::move(bw), /*proof_carrying=*/true);
}

}  // namespace core
}  // namespace prospector
