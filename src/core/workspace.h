#ifndef PROSPECTOR_CORE_WORKSPACE_H_
#define PROSPECTOR_CORE_WORKSPACE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/net/topology.h"
#include "src/util/thread_pool.h"

namespace prospector {
namespace core {

/// Cache-effectiveness counters (also mirrored into the global metrics
/// registry as workspace.topo.* counters). Snapshot via
/// PlanningWorkspace::counters().
struct WorkspaceCounters {
  long long topo_hits = 0;    ///< path/ancestor/descendant cache hits
  long long topo_misses = 0;  ///< ... and rebuilds
};

/// Versioned cross-query planning state shared by all four planners and
/// plan sweeps: the topology-derived path, ancestor and descendant lists,
/// keyed on net::Topology::epoch(). Plans are scored from the sample
/// window itself, and every LP is built from the current window on each
/// Plan(), so a plan depends only on topology, window, cost model and
/// request — never on cache history — and a null workspace (the seed
/// behavior) plans bit-identically; the workspace only saves recomputing
/// the lists. Thread-safe: every cached value is a shared immutable
/// snapshot.
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

  /// Drops every cached list (counters stay). Sessions call this after a
  /// self-healing rebuild: the new epoch would miss anyway, Clear just
  /// releases the stale memory promptly.
  void Clear();

  WorkspaceCounters counters() const;

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

}  // namespace core
}  // namespace prospector

#endif  // PROSPECTOR_CORE_WORKSPACE_H_
