#include "src/core/workspace.h"

#include <algorithm>
#include <unordered_set>

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

bool LpEntry::TombstoneOutsideWindow(
    const std::vector<uint64_t>& window_stamps, int* patch_ops) {
  std::unordered_set<uint64_t> window(window_stamps.begin(),
                                      window_stamps.end());
  std::unordered_set<uint64_t> known;
  known.reserve(blocks.size());
  for (const LpSampleBlock& block : blocks) known.insert(block.stamp);
  for (LpSampleBlock& block : blocks) {
    if (!block.live || window.count(block.stamp)) continue;
    for (int v : block.vars) model.SetObjective(v, 0.0);
    block.live = false;
    live_block_vars -= static_cast<int>(block.vars.size());
    dead_block_vars += static_cast<int>(block.vars.size());
    ++*patch_ops;
  }
  int pending = 0;
  for (uint64_t s : window_stamps) {
    if (!known.count(s)) ++pending;
  }
  const double mean_block_vars =
      blocks.empty() ? 0.0
                     : static_cast<double>(live_block_vars + dead_block_vars) /
                           static_cast<double>(blocks.size());
  const double prospective_live = live_block_vars + pending * mean_block_vars;
  return dead_block_vars > kMaxDeadRatio * std::max(1.0, prospective_live);
}

PlanningWorkspace::LpLease& PlanningWorkspace::LpLease::operator=(
    LpLease&& other) noexcept {
  if (this != &other) {
    Release();
    workspace_ = other.workspace_;
    kind_ = other.kind_;
    key_ = other.key_;
    entry_ = std::move(other.entry_);
    cached_ = other.cached_;
    other.workspace_ = nullptr;
    other.cached_ = false;
  }
  return *this;
}

void PlanningWorkspace::LpLease::Release() {
  if (workspace_ != nullptr && entry_ != nullptr && cached_) {
    workspace_->ReleaseLp(kind_, key_, std::move(entry_));
  }
  entry_.reset();
  workspace_ = nullptr;
  cached_ = false;
}

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

PlanningWorkspace::LpLease PlanningWorkspace::AcquireLp(LpKind kind,
                                                        int lease_key) {
  LpLease lease;
  lease.workspace_ = this;
  lease.kind_ = kind;
  lease.key_ = lease_key;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const std::pair<int, int> key{static_cast<int>(kind), lease_key};
    auto it = lp_entries_.find(key);
    if (it == lp_entries_.end()) {
      // Brand-new key: reserve the slot (empty = leased out) and hand out
      // a fresh entry that will be cached on release.
      lp_entries_[key] = nullptr;
      lease.cached_ = true;
    } else if (it->second != nullptr) {
      lease.entry_ = std::move(it->second);  // slot empties = leased out
      lease.cached_ = true;
      return lease;
    } else {
      // Key currently leased out — a caller bug; hand out a throwaway
      // entry so the collision degrades to correct cold planning.
      lease.cached_ = false;
    }
  }
  lease.entry_ = std::make_unique<LpEntry>();
  return lease;
}

void PlanningWorkspace::ReleaseLp(LpKind kind, int key,
                                  std::unique_ptr<LpEntry> entry) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = lp_entries_.find({static_cast<int>(kind), key});
  if (it != lp_entries_.end() && it->second == nullptr) {
    it->second = std::move(entry);
  }
}

std::shared_ptr<const HitMatrix> PlanningWorkspace::Hits(
    const sampling::SampleSet& samples) {
  std::lock_guard<std::mutex> lock(mu_);
  if (hits_cache_ != nullptr && hits_cache_->InSyncWith(samples)) {
    PROSPECTOR_COUNTER_ADD("workspace.hits.hit", 1);
    return hits_cache_;
  }
  PROSPECTOR_COUNTER_ADD("workspace.hits.miss", 1);
  // Clone-on-write: earlier shared_ptr holders keep reading their frozen
  // copy; the clone applies the delta (same lineage) or rebuilds.
  auto fresh = hits_cache_ != nullptr ? std::make_shared<HitMatrix>(*hits_cache_)
                                      : std::make_shared<HitMatrix>();
  fresh->Sync(samples);
  hits_cache_ = std::move(fresh);
  return hits_cache_;
}

void PlanningWorkspace::NoteLpHit() {
  PROSPECTOR_COUNTER_ADD("workspace.lp.hit", 1);
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.lp_hits;
}

void PlanningWorkspace::NoteLpMiss() {
  PROSPECTOR_COUNTER_ADD("workspace.lp.miss", 1);
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.lp_misses;
}

void PlanningWorkspace::NoteLpPatch(int ops) {
  PROSPECTOR_COUNTER_ADD("workspace.lp.patch", ops);
  std::lock_guard<std::mutex> lock(mu_);
  counters_.lp_patches += ops;
}

void PlanningWorkspace::DropLps(int lease_key) {
  std::lock_guard<std::mutex> lock(mu_);
  // A slot leased out right now goes too; ReleaseLp then finds no slot and
  // discards the returning entry, as after Clear.
  std::erase_if(lp_entries_, [&](const auto& slot) {
    return slot.first.second == lease_key;
  });
}

size_t PlanningWorkspace::num_lp_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lp_entries_.size();
}

void PlanningWorkspace::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  paths_ = TopoCacheSlot{};
  ancestors_ = TopoCacheSlot{};
  descendants_ = TopoCacheSlot{};
  // Leased-out slots (nullptr values) are dropped too: their leases were
  // flagged cached_, but ReleaseLp finds no slot and discards the entry —
  // exactly right, it predates the Clear.
  lp_entries_.clear();
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
