#include "src/core/workspace.h"

#include "src/core/plan_eval.h"
#include "src/obs/obs.h"

namespace prospector {
namespace core {
namespace {

// FNV-1a over raw bytes; good enough to distinguish drifted cost models
// (the goal is invalidation, not cryptography).
uint64_t HashBytes(uint64_t h, const void* data, size_t len) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t HashDouble(uint64_t h, double v) {
  return HashBytes(h, &v, sizeof(v));
}

}  // namespace

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

std::shared_ptr<const HitMatrix> PlanningWorkspace::Hits(
    const sampling::SampleSet& samples) {
  std::lock_guard<std::mutex> lock(mu_);
  if (hits_cache_ != nullptr && hits_cache_->InSyncWith(samples)) {
    ++counters_.hit_matrix_hits;
    PROSPECTOR_COUNTER_ADD("workspace.hits.hit", 1);
    return hits_cache_;
  }
  ++counters_.hit_matrix_misses;
  PROSPECTOR_COUNTER_ADD("workspace.hits.miss", 1);
  // Clone-on-write: earlier shared_ptr holders keep reading their frozen
  // copy; the clone applies the delta (same lineage) or rebuilds.
  auto fresh = hits_cache_ != nullptr ? std::make_shared<HitMatrix>(*hits_cache_)
                                      : std::make_shared<HitMatrix>();
  fresh->Sync(samples);
  hits_cache_ = std::move(fresh);
  return hits_cache_;
}

void PlanningWorkspace::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  paths_ = TopoCacheSlot{};
  ancestors_ = TopoCacheSlot{};
  descendants_ = TopoCacheSlot{};
  hits_cache_.reset();
}

WorkspaceCounters PlanningWorkspace::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

uint64_t PlanningWorkspace::CostFingerprint(const PlannerContext& ctx) {
  uint64_t h = 1469598103934665603ull;  // FNV offset basis
  h = HashDouble(h, ctx.energy.per_message_mj);
  h = HashDouble(h, ctx.energy.per_byte_mj);
  h = HashDouble(h, static_cast<double>(ctx.energy.bytes_per_value));
  h = HashDouble(h, ctx.energy.acquisition_mj);
  h = HashDouble(h, ctx.failures.reroute_cost_factor);
  if (ctx.topology != nullptr) {
    const int n = ctx.topology->num_nodes();
    for (int e = 0; e < n; ++e) {
      h = HashDouble(h, ctx.failures.ExpectedCostFactor(e));
    }
  }
  return h;
}

std::shared_ptr<const PlanningWorkspace::IntLists> GetPathCache(
    PlanningWorkspace* workspace, const net::Topology& topology,
    util::ThreadPool* pool) {
  if (workspace != nullptr) return workspace->Paths(topology, pool);
  auto fresh = std::make_shared<PlanningWorkspace::IntLists>(
      ComputePathCache(topology, pool));
  return fresh;
}

std::shared_ptr<const HitMatrix> GetHitMatrix(
    PlanningWorkspace* workspace, const sampling::SampleSet& samples) {
  if (workspace != nullptr) return workspace->Hits(samples);
  auto fresh = std::make_shared<HitMatrix>();
  fresh->Sync(samples);
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
