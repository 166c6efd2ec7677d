#ifndef PROSPECTOR_CORE_WORKSPACE_H_
#define PROSPECTOR_CORE_WORKSPACE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/core/hit_matrix.h"
#include "src/core/planner.h"
#include "src/net/topology.h"
#include "src/sampling/sample_set.h"
#include "src/util/thread_pool.h"

namespace prospector {
namespace core {

/// Cache-effectiveness counters (also mirrored into the global metrics
/// registry as workspace.* counters). Snapshot via
/// PlanningWorkspace::counters().
struct WorkspaceCounters {
  long long topo_hits = 0;          ///< path/ancestor/descendant cache hits
  long long topo_misses = 0;        ///< ... and rebuilds
  long long hit_matrix_hits = 0;    ///< packed hit matrix already in sync
  long long hit_matrix_misses = 0;  ///< ... and syncs (delta or rebuild)
};

/// Memo of SampleHits(plan, topology, samples) for one *fixed* plan:
/// valid while the (topology epoch, sample lineage, sample version)
/// triple is unchanged. PlanManager keeps one for the installed plan so
/// steady-state MaybeReplan calls stop rescoring an unchanged window.
struct SampleHitsCache {
  int hits = 0;
  uint64_t topo_epoch = 0;
  uint64_t set_id = 0;
  uint64_t set_version = 0;
  bool valid = false;

  bool Matches(const net::Topology& topo,
               const sampling::SampleSet& samples) const {
    return valid && topo_epoch == topo.epoch() && set_id == samples.id() &&
           set_version == samples.version();
  }
  void Store(int h, const net::Topology& topo,
             const sampling::SampleSet& samples) {
    hits = h;
    topo_epoch = topo.epoch();
    set_id = samples.id();
    set_version = samples.version();
    valid = true;
  }
  void Invalidate() { valid = false; }
};

/// Versioned cross-query planning state shared by all four planners, the
/// plan manager, and plan sweeps: topology-derived caches keyed on
/// net::Topology::epoch() and the packed hit matrix of the current sample
/// window. Every LP is built from the current window on each Plan(), so a
/// plan depends only on topology, window, cost model and request — never
/// on cache history — and a null workspace (the seed behavior) plans
/// bit-identically; the workspace only saves recomputing the caches.
/// Thread-safe: every cached value is a shared immutable snapshot.
class PlanningWorkspace {
 public:
  using IntLists = std::vector<std::vector<int>>;

  PlanningWorkspace() = default;
  PlanningWorkspace(const PlanningWorkspace&) = delete;
  PlanningWorkspace& operator=(const PlanningWorkspace&) = delete;

  /// ComputePathCache(topology), cached per topology epoch.
  std::shared_ptr<const IntLists> Paths(const net::Topology& topology,
                                        util::ThreadPool* pool = nullptr);
  /// AncestorsOf(i) for every node, cached per topology epoch.
  std::shared_ptr<const IntLists> Ancestors(const net::Topology& topology);
  /// DescendantsOf(i) for every node, cached per topology epoch.
  std::shared_ptr<const IntLists> Descendants(const net::Topology& topology);

  /// The packed hit matrix for `samples`, cached across queries. In-sync
  /// hits are free; a slid window of the same lineage clones the cached
  /// matrix and applies the delta (append-only rows, tombstones as mask
  /// words — readers of the previous shared_ptr are never mutated under);
  /// other changes rebuild. The returned matrix is bit-exact with
  /// `samples`, so plans are identical with or without the cache.
  std::shared_ptr<const HitMatrix> Hits(const sampling::SampleSet& samples);

  /// Drops every cache (topology snapshots and hit matrix; counters stay).
  /// Sessions call this after a self-healing rebuild: the new epoch would
  /// miss anyway, Clear just releases the stale memory promptly.
  void Clear();

  WorkspaceCounters counters() const;

  /// Order-insensitive digest of every cost the planners read off the
  /// context (energy scalars plus each edge's expected failure inflation).
  /// PlanManager keys its steady-state short-circuit on it, so a drifted
  /// cost model forces a replan.
  static uint64_t CostFingerprint(const PlannerContext& ctx);

 private:
  struct TopoCacheSlot {
    uint64_t epoch = 0;
    std::shared_ptr<const IntLists> data;
  };

  std::shared_ptr<const IntLists> TopoCache(const net::Topology& topology,
                                            TopoCacheSlot* slot,
                                            util::ThreadPool* pool,
                                            int which);

  mutable std::mutex mu_;
  TopoCacheSlot paths_, ancestors_, descendants_;
  /// Most recent packed hit matrix (see Hits()).
  std::shared_ptr<const HitMatrix> hits_cache_;
  WorkspaceCounters counters_;
};

/// The single ComputePathCache front door for planners: serves the cached
/// per-epoch copy when a workspace is available, computes a fresh one
/// otherwise (the seed path). The returned lists are identical either way.
std::shared_ptr<const PlanningWorkspace::IntLists> GetPathCache(
    PlanningWorkspace* workspace, const net::Topology& topology,
    util::ThreadPool* pool = nullptr);

/// AncestorsOf(i) for every node, through the workspace when present.
std::shared_ptr<const PlanningWorkspace::IntLists> GetAncestors(
    PlanningWorkspace* workspace, const net::Topology& topology);

/// DescendantsOf(i) for every node, through the workspace when present.
std::shared_ptr<const PlanningWorkspace::IntLists> GetDescendants(
    PlanningWorkspace* workspace, const net::Topology& topology);

/// The packed hit matrix front door for planners and the plan manager:
/// the workspace's cached copy when one is attached, a freshly packed
/// matrix otherwise (the seed path). Bit-exact with `samples` either way.
std::shared_ptr<const HitMatrix> GetHitMatrix(
    PlanningWorkspace* workspace, const sampling::SampleSet& samples);

}  // namespace core
}  // namespace prospector

#endif  // PROSPECTOR_CORE_WORKSPACE_H_
