#include "src/core/lp_filter_planner.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/core/plan_eval.h"
#include "src/core/workspace.h"
#include "src/lp/model.h"
#include "src/obs/obs.h"

namespace prospector {
namespace core {
namespace {

// Appends one sample's y-variable block (and any newly relevant edges' z/b
// variables) to an already-built LP+LF model. New z/b join the existing
// budget row via AddRowTerm. Returns the number of patch operations.
int AppendFilterBlock(LpEntry* entry, const PlannerContext& ctx,
                      const net::Topology& topo,
                      const sampling::SampleSet& samples, int j,
                      const std::vector<std::vector<int>>& paths, int k) {
  lp::Model& model = entry->model;
  const int root = topo.root();
  int ops = 0;
  LpSampleBlock block;
  block.stamp = samples.sample_stamp(j);
  std::unordered_map<int, std::vector<lp::Term>> bandwidth_terms;
  for (int i : samples.ones(j)) {
    if (i == root) continue;  // the root's value is free
    for (int e : paths[i]) {
      if (entry->z[e] < 0) {
        // The sliding window surfaced a contributor beneath an edge the
        // built model never needed: grow the model by that edge.
        entry->z[e] = model.AddBinaryRelaxed(0.0);
        const double ub = std::min(k, topo.subtree_size(e));
        entry->b[e] = model.AddVariable(0.0, ub, 0.0);
        model.AddRow(lp::RowType::kLessEqual, 0.0,
                     {{entry->b[e], 1.0}, {entry->z[e], -ub}});
        model.AddRowTerm(entry->budget_row,
                         {entry->z[e],
                          ctx.EdgeFixedCost(e) + ctx.NodeAcquisitionCost()});
        model.AddRowTerm(entry->budget_row,
                         {entry->b[e], ctx.EdgePerValueCost(e)});
        ++ops;
      }
    }
    const int yv = model.AddBinaryRelaxed(1.0);
    block.vars.push_back(yv);
    block.node_vars.push_back({i, yv});
    for (int e : paths[i]) {
      // Line (7): returning i's value uses every edge above i.
      model.AddRow(lp::RowType::kLessEqual, 0.0,
                   {{yv, 1.0}, {entry->z[e], -1.0}});
      bandwidth_terms[e].push_back({yv, 1.0});
    }
  }
  // Line (8): per-sample bandwidth constraint on every edge beneath which
  // this sample has contributing nodes.
  for (auto& [e, terms] : bandwidth_terms) {
    std::vector<lp::Term> row = std::move(terms);
    row.push_back({entry->b[e], -1.0});
    model.AddRow(lp::RowType::kLessEqual, 0.0, std::move(row));
  }
  entry->live_block_vars += static_cast<int>(block.vars.size());
  entry->blocks.push_back(std::move(block));
  return ops + 1;
}

}  // namespace

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
  util::ThreadPool* pool = EnsureThreadPool(&pool_, options_.threads);

  const auto paths_ptr = GetPathCache(ctx.workspace, topo, pool);
  const std::vector<std::vector<int>>& paths = *paths_ptr;

  // The LP lives in a leased workspace entry (or a throwaway local one —
  // the seed path). Its per-sample blocks are keyed by sample stamps:
  // samples that left the window are tombstoned (objective weight zeroed),
  // new samples are appended, and only when tombstones outgrow the live
  // mass is the model rebuilt from scratch.
  PlanningWorkspace::LpLease lease;
  LpEntry local_entry;
  LpEntry* entry = &local_entry;
  if (ctx.workspace != nullptr) {
    lease = ctx.workspace->AcquireLp(LpKind::kFilter, ctx.workspace_lease);
    entry = lease.get();
  }
  const uint64_t fingerprint = PlanningWorkspace::CostFingerprint(ctx);

  bool rebuild =
      entry->Stale(topo.epoch(), samples.id(), fingerprint, request.k);
  int patch_ops = 0;
  if (!rebuild) {
    std::vector<uint64_t> window_stamps(S);
    for (int j = 0; j < S; ++j) window_stamps[j] = samples.sample_stamp(j);
    rebuild = entry->TombstoneOutsideWindow(window_stamps, &patch_ops);
  }

  if (rebuild) {
    if (ctx.workspace != nullptr) ctx.workspace->NoteLpMiss();
    entry->Reset();
    lp::Model& model = entry->model;

    // Only edges that lie beneath some contributing node can ever deliver
    // a hit; restrict the program to those. Samples are scanned
    // independently and their edge masks OR-ed together in sample order.
    std::vector<char> relevant(n, 0);
    if (pool != nullptr) {
      relevant = pool->ParallelReduce<std::vector<char>>(
          S, std::vector<char>(n, 0),
          [&](int j) {
            std::vector<char> mask(n, 0);
            for (int i : samples.ones(j)) {
              for (int e : paths[i]) mask[e] = 1;
            }
            return mask;
          },
          [](std::vector<char> acc, std::vector<char> mask) {
            for (size_t e = 0; e < acc.size(); ++e) acc[e] |= mask[e];
            return acc;
          });
    } else {
      for (int j = 0; j < S; ++j) {
        for (int i : samples.ones(j)) {
          for (int e : paths[i]) relevant[e] = 1;
        }
      }
    }

    model.SetSense(lp::Sense::kMaximize);
    entry->z.assign(n, -1);
    entry->b.assign(n, -1);
    for (int e = 0; e < n; ++e) {
      if (e == root || !relevant[e]) continue;
      entry->z[e] = model.AddBinaryRelaxed(0.0);
      const double ub = std::min(request.k, topo.subtree_size(e));
      entry->b[e] = model.AddVariable(0.0, ub, 0.0);
      // Bandwidth requires the edge to be used (pays per-message cost).
      model.AddRow(lp::RowType::kLessEqual, 0.0,
                   {{entry->b[e], 1.0}, {entry->z[e], -ub}});
    }

    // y variables and their rows, one block per sample.
    for (int j = 0; j < S; ++j) {
      LpSampleBlock block;
      block.stamp = samples.sample_stamp(j);
      std::unordered_map<int, std::vector<lp::Term>> bandwidth_terms;
      for (int i : samples.ones(j)) {
        if (i == root) continue;  // the root's value is free
        const int yv = model.AddBinaryRelaxed(1.0);
        block.vars.push_back(yv);
        block.node_vars.push_back({i, yv});
        for (int e : paths[i]) {
          // Line (7): returning i's value uses every edge above i.
          model.AddRow(lp::RowType::kLessEqual, 0.0,
                       {{yv, 1.0}, {entry->z[e], -1.0}});
          bandwidth_terms[e].push_back({yv, 1.0});
        }
      }
      // Line (8): per-sample bandwidth constraint on every edge beneath
      // which this sample has contributing nodes.
      for (auto& [e, terms] : bandwidth_terms) {
        std::vector<lp::Term> row = std::move(terms);
        row.push_back({entry->b[e], -1.0});
        model.AddRow(lp::RowType::kLessEqual, 0.0, std::move(row));
      }
      entry->live_block_vars += static_cast<int>(block.vars.size());
      entry->blocks.push_back(std::move(block));
    }

    // Line (6): the energy budget.
    std::vector<lp::Term> cost_row;
    for (int e = 0; e < n; ++e) {
      if (e == root || entry->z[e] < 0) continue;
      cost_row.push_back(
          {entry->z[e], ctx.EdgeFixedCost(e) + ctx.NodeAcquisitionCost()});
      cost_row.push_back({entry->b[e], ctx.EdgePerValueCost(e)});
    }
    entry->budget_row = model.AddRow(lp::RowType::kLessEqual,
                                     request.energy_budget_mj, cost_row);
    entry->built = true;
    entry->topo_epoch = topo.epoch();
    entry->set_id = samples.id();
    entry->cost_fingerprint = fingerprint;
    entry->k = request.k;
  } else {
    ctx.workspace->NoteLpHit();
    std::unordered_set<uint64_t> known;
    for (const LpSampleBlock& block : entry->blocks) known.insert(block.stamp);
    for (int j = 0; j < S; ++j) {
      if (known.count(samples.sample_stamp(j))) continue;
      patch_ops +=
          AppendFilterBlock(entry, ctx, topo, samples, j, paths, request.k);
    }
    entry->model.SetRhs(entry->budget_row, request.energy_budget_mj);
    ++patch_ops;
    ctx.workspace->NoteLpPatch(patch_ops);
  }

  Result<lp::Solution> solved =
      lp::SimplexSolver(options_.simplex).Solve(entry->model);
  if (!solved.ok()) return solved.status();
  last_stats_.lp = solved->stats;
  if (solved->status != lp::SolveStatus::kOptimal) {
    return Status::Internal(std::string("LP+LF solve failed: ") +
                            lp::ToString(solved->status));
  }
  last_lp_objective_ = solved->objective;

  // Integral bandwidths: round the y's, then give each edge the largest
  // per-sample count of rounded entries beneath it. Dead blocks are pinned
  // to zero and can never clear the rounding threshold, but skipping them
  // keeps the scan proportional to the live window.
  std::vector<int> bw(n, 0);
  for (const LpSampleBlock& block : entry->blocks) {
    if (!block.live) continue;
    std::unordered_map<int, int> count;
    for (const auto& [i, yv] : block.node_vars) {
      if (solved->values[yv] > options_.rounding_threshold) {
        for (int e : paths[i]) ++count[e];
      }
    }
    for (const auto& [e, c] : count) bw[e] = std::max(bw[e], c);
  }

  QueryPlan plan = QueryPlan::Bandwidth(request.k, std::move(bw));
  plan.Normalize(topo);

  // Repair and fill score every trial plan against the window; the packed
  // hit matrix (cached across queries when a workspace is attached) makes
  // each evaluation proportional to the contributing nodes instead of the
  // network, with identical hit counts.
  const auto hits_ptr = (options_.repair_budget || options_.fill_budget)
                            ? GetHitMatrix(ctx.workspace, samples)
                            : nullptr;

  // Budget repair: drop the bandwidth unit whose loss costs the fewest
  // sample hits per mJ reclaimed, until the plan fits. Candidate trials
  // are independent, so each round scores them on the pool and then picks
  // the winner in ascending edge order — the same argmin the serial loop
  // computes.
  if (options_.repair_budget) {
    net::NetworkSimulator cost_sim(&topo, ctx.energy, ctx.failures);
    int hits = SampleHits(plan, topo, *hits_ptr, pool);
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
      auto score_range = [&](int begin, int end) {
        for (int c = begin; c < end; ++c) {
          QueryPlan trial = plan;
          --trial.bandwidth[candidates[c]];
          trial.Normalize(topo);
          const int trial_hits = SampleHits(trial, topo, *hits_ptr);
          const double saved =
              plan_cost - ExpectedCollectionCost(trial, cost_sim);
          scores[c].score =
              static_cast<double>(hits - trial_hits) / std::max(saved, 1e-12);
          scores[c].hits = trial_hits;
        }
      };
      if (pool != nullptr) {
        pool->ParallelFor(static_cast<int>(candidates.size()), score_range);
      } else {
        score_range(0, static_cast<int>(candidates.size()));
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
    const std::vector<int>& cs = hits_ptr->column_sums();
    std::vector<int> order;
    for (int i = 0; i < n; ++i) {
      if (i != root && cs[i] > 0) order.push_back(i);
    }
    std::sort(order.begin(), order.end(), [&](int a, int bnode) {
      if (cs[a] != cs[bnode]) return cs[a] > cs[bnode];
      return a < bnode;
    });
    int hits = SampleHits(plan, topo, *hits_ptr, pool);
    bool progress = true;
    while (progress) {
      progress = false;
      ++last_stats_.fill_passes;
      for (int i : order) {
        QueryPlan trial = plan;
        for (int e : paths[i]) {
          trial.bandwidth[e] =
              std::min(trial.bandwidth[e] + 1,
                       std::min(request.k, topo.subtree_size(e)));
        }
        if (ExpectedCollectionCost(trial, cost_sim) >
            request.energy_budget_mj) {
          continue;
        }
        const int trial_hits = SampleHits(trial, topo, *hits_ptr, pool);
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
