#ifndef PROSPECTOR_CORE_PLAN_MANAGER_H_
#define PROSPECTOR_CORE_PLAN_MANAGER_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/core/plan.h"
#include "src/core/plan_eval.h"
#include "src/core/planner.h"
#include "src/net/simulator.h"
#include "src/obs/obs.h"
#include "src/util/thread_pool.h"

namespace prospector {
namespace core {

/// Long-running query maintenance (Section 4.4).
///
/// *Plan re-calculation*: disseminating a new plan is expensive, so the
/// base station recomputes the optimal plan as samples drift but only
/// disseminates it when it beats the installed plan's expected sample hits
/// by a configurable margin.
///
/// *Re-sampling*: the confidence in the current model is measured by
/// periodically running a proof-carrying plan (whose proven count reveals
/// true accuracy); when observed accuracy drops below a floor, the
/// exploration (full-sweep sampling) rate is boosted until accuracy
/// recovers.
struct PlanManagerOptions {
  /// Fractional expected-hits improvement required to re-disseminate.
  double improvement_threshold = 0.10;
  /// Observed-accuracy floor below which re-sampling accelerates.
  double min_accuracy = 0.90;
  double base_explore_probability = 0.02;
  double boosted_explore_probability = 0.20;
};

class PlanManager {
 public:
  PlanManager(Planner* planner, PlanRequest request,
              PlanManagerOptions options = {})
      : planner_(planner), request_(request), options_(options) {}

  /// True once a plan is installed in the network.
  bool has_plan() const { return plan_.has_value(); }
  const QueryPlan& plan() const { return *plan_; }

  /// Recomputes the optimal plan against the current samples; installs it
  /// (charging dissemination to `sim`) if there is no plan yet or if it
  /// improves expected sample hits by more than the threshold. Returns
  /// whether a dissemination happened. Callers replan only after the
  /// window, the topology or the installed plan changed.
  ///
  /// With a plan installed, the planner runs only when a candidate could
  /// install. A plan's sample hits count, per sample, contributing nodes
  /// that reach the root, each a distinct 1-entry of the window, so no plan
  /// from any planner scores above `samples.total_ones()`. When even that
  /// ceiling does not beat the installed plan by the margin, no candidate
  /// can, and the call returns false without planning
  /// (`planner.replan_short_circuits`). First plans always plan.
  Result<bool> MaybeReplan(const PlannerContext& ctx,
                           const sampling::SampleSet& samples,
                           net::NetworkSimulator* sim) {
    int cur_hits = 0;
    if (plan_.has_value()) {
      cur_hits = SampleHits(*plan_, *ctx.topology, samples);
      if (!Beats(samples.total_ones(), cur_hits)) {
        UpdatePredictedRecall(cur_hits, samples);
        PROSPECTOR_COUNTER_ADD("planner.replan_short_circuits", 1);
        return false;
      }
    }
    auto candidate = planner_->Plan(ctx, samples, request_);
    if (!candidate.ok()) return candidate.status();
    const int new_hits = SampleHits(*candidate, *ctx.topology, samples);
    if (plan_.has_value()) {
      UpdatePredictedRecall(cur_hits, samples);
      if (!Beats(new_hits, cur_hits)) return false;
    }
    plan_ = std::move(candidate.value());
    UpdatePredictedRecall(new_hits, samples);
    ChargeInstallCost(*plan_, sim);
    planned_cost_mj_ =
        ExpectedTriggerCost(*plan_, *sim) + ExpectedCollectionCost(*plan_, *sim);
    ++disseminations_;
    return true;
  }

  /// Drops the installed plan without touching the network — used when the
  /// topology it indexes no longer exists (self-healing rebuild). The next
  /// MaybeReplan then installs unconditionally.
  void InvalidatePlan() {
    plan_.reset();
    predicted_recall_ = -1.0;
    planned_cost_mj_ = 0.0;
  }

  /// Feeds an accuracy observation (e.g. proven fraction from a periodic
  /// PROSPECTOR Proof run) into the re-sampling policy.
  void ObserveAccuracy(double accuracy) {
    last_accuracy_ = accuracy;
    boosted_ = accuracy < options_.min_accuracy;
  }

  /// Current exploration (full network sweep) probability.
  double explore_probability() const {
    return boosted_ ? options_.boosted_explore_probability
                    : options_.base_explore_probability;
  }

  int disseminations() const { return disseminations_; }
  double last_accuracy() const { return last_accuracy_; }

  /// The installed plan's sample-estimated recall — expected hits over
  /// k*|window| — i.e. the planner's own prediction of what the health
  /// monitor later measures as realized recall. -1 before the first
  /// install (and after InvalidatePlan).
  double predicted_recall() const { return predicted_recall_; }

  /// Expected per-epoch energy (trigger + collection) of the installed
  /// plan, captured at install time — what the fleet service meters tenant
  /// energy quotas against. 0 before the first install.
  double planned_cost_mj() const { return planned_cost_mj_; }

  /// What the query asked for (the service's quota ledger reads the
  /// admitted budget back from here).
  const PlanRequest& request() const { return request_; }

 private:
  /// Whether a plan scoring `hits` on the window is worth disseminating
  /// over the installed plan's `installed_hits`.
  bool Beats(int hits, int installed_hits) const {
    return hits > installed_hits * (1.0 + options_.improvement_threshold);
  }

  void UpdatePredictedRecall(int installed_hits,
                             const sampling::SampleSet& samples) {
    const double denom = static_cast<double>(request_.k) *
                         static_cast<double>(samples.num_samples());
    predicted_recall_ =
        denom > 0.0
            ? std::min(1.0, static_cast<double>(installed_hits) / denom)
            : -1.0;
  }

  Planner* planner_;
  PlanRequest request_;
  PlanManagerOptions options_;
  std::optional<QueryPlan> plan_;
  int disseminations_ = 0;
  double last_accuracy_ = 1.0;
  bool boosted_ = false;
  double predicted_recall_ = -1.0;
  double planned_cost_mj_ = 0.0;
};

/// Creates a fresh planner per sweep point; planners keep per-Plan() state
/// (LP objectives, last_stats()), so instances must not be shared across
/// concurrent requests.
using PlannerFactory = std::function<std::unique_ptr<Planner>()>;

/// Solves many independent planning requests — a budget or k sweep, the
/// workload of the figure benches and of continuous re-planning at the
/// base station. Each request plans with its own planner instance from
/// `factory`; with a pool the requests run concurrently, and the result
/// vector is indexed by request either way, so output is identical for
/// any thread count. Each planner runs serially, and the tree's per-node
/// lists it reads are immutable, so concurrent requests share `ctx`.
inline std::vector<Result<QueryPlan>> PlanSweep(
    const PlannerFactory& factory, const PlannerContext& ctx,
    const sampling::SampleSet& samples,
    const std::vector<PlanRequest>& requests,
    util::ThreadPool* pool = nullptr) {
  std::vector<Result<QueryPlan>> results(
      requests.size(), Result<QueryPlan>(Status::Internal("not planned")));
  auto solve = [&](int i) {
    results[i] = factory()->Plan(ctx, samples, requests[i]);
  };
  const int n = static_cast<int>(requests.size());
  if (pool != nullptr) {
    pool->ParallelFor(n, solve);
  } else {
    for (int i = 0; i < n; ++i) solve(i);
  }
  return results;
}

}  // namespace core
}  // namespace prospector

#endif  // PROSPECTOR_CORE_PLAN_MANAGER_H_
