#ifndef PROSPECTOR_CORE_WORKSPACE_H_
#define PROSPECTOR_CORE_WORKSPACE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "src/core/hit_matrix.h"
#include "src/core/planner.h"
#include "src/lp/model.h"
#include "src/net/topology.h"
#include "src/sampling/sample_set.h"
#include "src/util/thread_pool.h"

namespace prospector {
namespace core {

/// Rebuild a cached LP from scratch once its tombstoned (dead) sample
/// variables exceed this many times the live ones. Dead blocks keep their
/// rows and columns in the model, so every solve pays for them; a rebuild
/// drops them.
inline constexpr double kMaxDeadRatio = 0.25;

/// Cache-effectiveness counters (also mirrored into the global metrics
/// registry as workspace.* counters). Snapshot via
/// PlanningWorkspace::counters().
struct WorkspaceCounters {
  long long topo_hits = 0;    ///< path/ancestor/descendant cache hits
  long long topo_misses = 0;  ///< ... and rebuilds
  long long lp_hits = 0;      ///< cached LP reused (delta-patched)
  long long lp_misses = 0;    ///< cached LP rebuilt from scratch
  long long lp_patches = 0;   ///< individual patch ops (obj/rhs/blocks)
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

/// Which planner family a cached LP belongs to (part of the lease key —
/// the model shapes are incompatible across planners).
enum class LpKind { kNoFilter = 0, kFilter = 1, kProof = 2 };

/// Variables a single sample contributed to a cached LP. When the window
/// slides the block is tombstoned (its variables' objective weights are
/// zeroed) rather than removed, so the cached model is patched instead of
/// rebuilt. Dead variables keep their bounds; they only appear on the
/// small side of <= rows whose large side is a shared (live) variable, so
/// every optimum can drive them to zero at no objective cost and the
/// optimal value equals a from-scratch rebuild's.
struct LpSampleBlock {
  uint64_t stamp = 0;  ///< SampleSet::sample_stamp of the owning sample
  bool live = true;
  std::vector<int> vars;  ///< every LP variable owned by this block
  /// LP+LF only: (node, y-variable) pairs in ones(j) order, consumed by
  /// the rounding step.
  std::vector<std::pair<int, int>> node_vars;
};

/// One cached LP: the model, the keys that decide staleness, and the
/// per-sample block ledger. The planners own the model semantics (what
/// x/z/b mean, how blocks are appended) and solve the model themselves;
/// the workspace owns storage and leasing.
struct LpEntry {
  bool built = false;
  uint64_t topo_epoch = 0;
  uint64_t set_id = 0;
  uint64_t cost_fingerprint = 0;
  int k = 0;
  lp::Model model;
  std::vector<LpSampleBlock> blocks;
  int live_block_vars = 0;
  int dead_block_vars = 0;
  int budget_row = -1;
  /// Planner-specific variable maps, indexed by node/edge id (-1 = no
  /// variable). LP-LF: x (acquire) and z (edge use). LP+LF: z and b
  /// (bandwidth). Proof: b.
  std::vector<int> x, z, b;

  /// Wipes everything back to the unbuilt state (used before a rebuild).
  void Reset() { *this = LpEntry{}; }

  /// Slides the cached model's window: every live block whose stamp is not
  /// in `window_stamps` is tombstoned (objective weights zeroed, bounds
  /// kept; a weightless variable only appears on the small side of <= rows
  /// whose large side is a shared live variable, so the optimal value
  /// still equals a from-scratch rebuild's). One patch op is charged per
  /// tombstoned block. Returns true when the entry should be rebuilt
  /// instead: dead mass above kMaxDeadRatio times the *prospective* live
  /// mass — the surviving blocks plus the window samples about to be
  /// appended (valued at the historical mean block size). Counting the
  /// pending appends matters: at high window churn the pre-append live
  /// mass alone understates the solved model and forces rebuilds every
  /// epoch.
  bool TombstoneOutsideWindow(const std::vector<uint64_t>& window_stamps,
                              int* patch_ops);

  /// True when the base keys no longer describe the planning inputs and
  /// the model must be rebuilt from scratch.
  bool Stale(uint64_t epoch, uint64_t sid, uint64_t fingerprint,
             int request_k) const {
    return !built || topo_epoch != epoch || set_id != sid ||
           cost_fingerprint != fingerprint || k != request_k;
  }
};

/// Versioned cross-query planning state shared by all four planners, the
/// plan manager, and plan sweeps: topology-derived caches keyed on
/// net::Topology::epoch(), and incremental LP models keyed additionally on
/// the sample window's (id, version) and a cost-model fingerprint. A null
/// workspace everywhere means planners recompute from scratch — the exact
/// seed behavior; with a workspace, planners patch the cached model and
/// solve it once, and the resulting plans are gated bit-identical to the
/// from-scratch ones (core_workspace_test, bench_incremental_replan).
/// Thread-safe: topology caches are shared immutable snapshots, LP entries
/// are handed out under exclusive leases.
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

  /// Exclusive lease on the cached LP for (kind, lease_key). The same key
  /// always yields the same entry, so a deterministic caller sees a
  /// deterministic cache history — PlanSweep keys by request index, the
  /// query engine by query id. If the slot is (erroneously) already
  /// leased, a fresh throwaway entry is returned instead: the caller plans
  /// cold, which is always correct.
  class LpLease {
   public:
    LpLease() = default;
    LpLease(LpLease&& other) noexcept { *this = std::move(other); }
    LpLease& operator=(LpLease&& other) noexcept;
    LpLease(const LpLease&) = delete;
    LpLease& operator=(const LpLease&) = delete;
    ~LpLease() { Release(); }

    LpEntry* get() { return entry_.get(); }
    LpEntry* operator->() { return entry_.get(); }
    explicit operator bool() const { return entry_ != nullptr; }
    void Release();

   private:
    friend class PlanningWorkspace;
    PlanningWorkspace* workspace_ = nullptr;
    LpKind kind_ = LpKind::kNoFilter;
    int key_ = 0;
    std::unique_ptr<LpEntry> entry_;
    bool cached_ = false;  ///< false = throwaway, dropped on release
  };

  LpLease AcquireLp(LpKind kind, int lease_key);

  /// The packed hit matrix for `samples`, cached across queries. In-sync
  /// hits are free; a slid window of the same lineage clones the cached
  /// matrix and applies the delta (append-only rows, tombstones as mask
  /// words — readers of the previous shared_ptr are never mutated under);
  /// other changes rebuild. The returned matrix is bit-exact with
  /// `samples`, so plans are identical with or without the cache.
  std::shared_ptr<const HitMatrix> Hits(const sampling::SampleSet& samples);

  /// Counter hooks for the planners (mirrored to global metrics).
  void NoteLpHit();
  void NoteLpMiss();
  void NoteLpPatch(int ops = 1);

  /// Drops every LP entry cached under `lease_key`, of every kind. The
  /// engine calls this when it retires a query (the key is the query id,
  /// never reissued), so retired queries stop holding their models.
  void DropLps(int lease_key);
  /// LP entries currently cached, leased-out slots included.
  size_t num_lp_entries() const;

  /// Drops every cache (topology snapshots, LP entries, counters stay).
  /// Sessions call this after a self-healing rebuild: the new epoch would
  /// miss anyway, Clear just releases the stale memory promptly.
  void Clear();

  WorkspaceCounters counters() const;

  /// Order-insensitive digest of every cost the planners read off the
  /// context (energy scalars plus each edge's expected failure inflation).
  /// Cached LP coefficients bake these in, so a drifted cost model must
  /// force a rebuild.
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

  void ReleaseLp(LpKind kind, int key, std::unique_ptr<LpEntry> entry);

  mutable std::mutex mu_;
  TopoCacheSlot paths_, ancestors_, descendants_;
  /// (kind, lease key) -> entry; a leased slot maps to nullptr until the
  /// lease returns it.
  std::map<std::pair<int, int>, std::unique_ptr<LpEntry>> lp_entries_;
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
