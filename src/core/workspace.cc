#include "src/core/workspace.h"

#include "src/core/plan_eval.h"
#include "src/obs/obs.h"

namespace prospector {
namespace core {

std::shared_ptr<const PlanningWorkspace::IntLists> PlanningWorkspace::TopoCache(
    const net::Topology& topology, TopoCacheSlot* slot, util::ThreadPool* pool,
    int which) {
  std::lock_guard<std::mutex> lock(mu_);
  if (slot->data != nullptr && slot->epoch == topology.epoch()) {
    ++counters_.topo_hits;
    PROSPECTOR_COUNTER_ADD("workspace.topo.hit", 1);
    return slot->data;
  }
  ++counters_.topo_misses;
  PROSPECTOR_COUNTER_ADD("workspace.topo.miss", 1);
  auto fresh = std::make_shared<IntLists>();
  const int n = topology.num_nodes();
  switch (which) {
    case 0:
      *fresh = ComputePathCache(topology, pool);
      break;
    case 1:
      fresh->resize(n);
      for (int i = 0; i < n; ++i) (*fresh)[i] = topology.AncestorsOf(i);
      break;
    default:
      fresh->resize(n);
      for (int i = 0; i < n; ++i) (*fresh)[i] = topology.DescendantsOf(i);
      break;
  }
  slot->epoch = topology.epoch();
  slot->data = std::move(fresh);
  return slot->data;
}

std::shared_ptr<const PlanningWorkspace::IntLists> PlanningWorkspace::Paths(
    const net::Topology& topology, util::ThreadPool* pool) {
  return TopoCache(topology, &paths_, pool, 0);
}

std::shared_ptr<const PlanningWorkspace::IntLists> PlanningWorkspace::Ancestors(
    const net::Topology& topology) {
  return TopoCache(topology, &ancestors_, nullptr, 1);
}

std::shared_ptr<const PlanningWorkspace::IntLists>
PlanningWorkspace::Descendants(const net::Topology& topology) {
  return TopoCache(topology, &descendants_, nullptr, 2);
}

void PlanningWorkspace::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  paths_ = TopoCacheSlot{};
  ancestors_ = TopoCacheSlot{};
  descendants_ = TopoCacheSlot{};
}

WorkspaceCounters PlanningWorkspace::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

std::shared_ptr<const PlanningWorkspace::IntLists> GetPathCache(
    PlanningWorkspace* workspace, const net::Topology& topology,
    util::ThreadPool* pool) {
  if (workspace != nullptr) return workspace->Paths(topology, pool);
  auto fresh = std::make_shared<PlanningWorkspace::IntLists>(
      ComputePathCache(topology, pool));
  return fresh;
}

std::shared_ptr<const PlanningWorkspace::IntLists> GetAncestors(
    PlanningWorkspace* workspace, const net::Topology& topology) {
  if (workspace != nullptr) return workspace->Ancestors(topology);
  auto fresh = std::make_shared<PlanningWorkspace::IntLists>();
  fresh->resize(topology.num_nodes());
  for (int i = 0; i < topology.num_nodes(); ++i) {
    (*fresh)[i] = topology.AncestorsOf(i);
  }
  return fresh;
}

std::shared_ptr<const PlanningWorkspace::IntLists> GetDescendants(
    PlanningWorkspace* workspace, const net::Topology& topology) {
  if (workspace != nullptr) return workspace->Descendants(topology);
  auto fresh = std::make_shared<PlanningWorkspace::IntLists>();
  fresh->resize(topology.num_nodes());
  for (int i = 0; i < topology.num_nodes(); ++i) {
    (*fresh)[i] = topology.DescendantsOf(i);
  }
  return fresh;
}

}  // namespace core
}  // namespace prospector
