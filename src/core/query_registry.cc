#include "src/core/query_registry.h"

#include <string>

#include "src/core/greedy_planner.h"
#include "src/core/lp_filter_planner.h"

namespace prospector {
namespace core {
namespace {

std::unique_ptr<Planner> MakePlanner(const QuerySpec& spec) {
  switch (spec.planner) {
    case PlannerChoice::kGreedy:
      return std::make_unique<GreedyPlanner>();
    case PlannerChoice::kLpNoFilter:
      return std::make_unique<LpNoFilterPlanner>(spec.lp);
    case PlannerChoice::kLpFilter:
      return std::make_unique<LpFilterPlanner>(spec.lp);
  }
  return std::make_unique<LpFilterPlanner>(spec.lp);
}

}  // namespace

QueryState::QueryState(int id_in, const QuerySpec& spec_in, int num_nodes,
                       size_t sample_window)
    : id(id_in),
      spec(spec_in),
      samples(sampling::SampleSet::ForTopK(num_nodes, spec_in.k,
                                           sample_window)),
      planner(MakePlanner(spec_in)),
      manager(planner.get(),
              PlanRequest{spec_in.k, spec_in.energy_budget_mj},
              spec_in.manager),
      health(spec_in.slo) {}

int QueryRegistry::Add(const QuerySpec& spec, int num_nodes,
                       size_t sample_window) {
  const int id = burned_.empty() ? 0 : *burned_.rbegin() + 1;
  Admit(id, spec, num_nodes, sample_window);
  return id;
}

Result<int> QueryRegistry::AddWithId(int id, const QuerySpec& spec,
                                     int num_nodes, size_t sample_window) {
  if (id < 0) {
    return Status::InvalidArgument("query ids must be non-negative");
  }
  if (burned_.count(id) != 0) {
    return Status::FailedPrecondition(
        "query id " + std::to_string(id) +
        " was already admitted; ids are never reused");
  }
  Admit(id, spec, num_nodes, sample_window);
  return id;
}

void QueryRegistry::Admit(int id, const QuerySpec& spec, int num_nodes,
                          size_t sample_window) {
  burned_.insert(id);
  live_.emplace(
      id, std::make_unique<QueryState>(id, spec, num_nodes, sample_window));
  RebuildOrdered();
}

bool QueryRegistry::Remove(int id) {
  if (live_.erase(id) == 0) return false;
  RebuildOrdered();
  return true;
}

QueryState* QueryRegistry::Find(int id) {
  auto it = live_.find(id);
  return it == live_.end() ? nullptr : it->second.get();
}

const QueryState* QueryRegistry::Find(int id) const {
  return const_cast<QueryRegistry*>(this)->Find(id);
}

std::vector<int> QueryRegistry::ids() const {
  std::vector<int> out;
  out.reserve(live_.size());
  for (const auto& [id, q] : live_) out.push_back(id);
  return out;
}

void QueryRegistry::RebuildOrdered() {
  ordered_.clear();
  for (const auto& [id, q] : live_) ordered_.push_back(q.get());
}

}  // namespace core
}  // namespace prospector
