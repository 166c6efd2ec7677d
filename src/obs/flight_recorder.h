#ifndef PROSPECTOR_OBS_FLIGHT_RECORDER_H_
#define PROSPECTOR_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/util/json.h"

namespace prospector {
namespace obs {

/// What a flight event witnessed. Keep this list in sync with
/// FlightKindName(); new kinds go at the end (the numeric value is part of
/// dumped artifacts only via its name, never its integer).
enum class FlightKind : uint8_t {
  kPlanInstall = 0,  ///< a plan was disseminated and charged
  kReplan,           ///< PlanManager swapped the installed plan
  kHeal,             ///< watchdog rebuilt the topology around dead subtrees
  kGuardReject,      ///< TransportGuard refused an arrival (stale/corrupt)
  kFold,             ///< TransportGuard folded/deferred/dropped a duplicate
  kAudit,            ///< energy-ledger cross-check ran
  kFaultInject,      ///< injector applied a scripted fault / adversary fired
  kNote,             ///< engine lifecycle breadcrumbs (admit, retire, health)
};

const char* FlightKindName(FlightKind kind);

/// One structured black-box event. No wall-clock anywhere: ordering is
/// (epoch, site, seq), all deterministic, so a replayed run dumps a
/// byte-identical stream.
struct FlightEvent {
  FlightKind kind = FlightKind::kNote;
  int epoch = -1;          ///< ambient engine epoch (-1 = before first tick)
  const char* site = "";   ///< call-site id; must be a string literal
  int query_id = -1;       ///< -1 when the event is not query-scoped
  double a = 0.0;          ///< site-specific payload (documented per site)
  double b = 0.0;
  int64_t seq = 0;         ///< per-thread-buffer monotonic sequence
};

/// Fixed-capacity per-thread ring buffers of FlightEvents — the engine's
/// black box. Recording is wait-free with respect to other threads (each
/// thread appends to its own buffer under an uncontended mutex, same
/// pattern as Tracer); when a buffer is full the oldest event is dropped,
/// so the recorder always holds the most recent window.
///
/// Determinism contract (DESIGN.md, "Flight recorder & health model"):
/// record only from serial engine code — never inside a ParallelFor body —
/// and Snapshot() is merged by (epoch, site, seq), never by wall-clock, so
/// dumps are bit-identical across thread counts and across replays.
class FlightRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 4096;  ///< events per thread

  /// The process-wide recorder used by the PROSPECTOR_FLIGHT_* macros.
  static FlightRecorder& Global();

  /// Sets the ambient epoch stamped onto subsequent events. The engine
  /// calls this once at the top of each Tick (serial).
  void SetEpoch(int epoch) { epoch_.store(epoch, std::memory_order_relaxed); }
  int epoch() const { return epoch_.load(std::memory_order_relaxed); }

  /// Appends one event to the calling thread's ring. `site` must be a
  /// string literal (stored by pointer, not copied).
  void Record(FlightKind kind, const char* site, int query_id, double a,
              double b);

  /// Merged view of every thread's ring, ordered by (epoch, site, seq).
  std::vector<FlightEvent> Snapshot() const;

  /// Drops all buffered events AND resets every per-thread sequence
  /// counter and the ambient epoch to their initial state — required so a
  /// replay inside the same process reproduces the original stream
  /// byte-for-byte.
  void Clear();

  /// Total events overwritten by ring wrap since the last Clear().
  int64_t dropped() const;

  size_t capacity() const { return capacity_.load(std::memory_order_relaxed); }
  /// Applies to events recorded after the call; existing rings are trimmed.
  void SetCapacity(size_t per_thread_events);

  /// Deterministic one-line JSON dump of Snapshot(): {"schema_version",
  /// "dropped"} followed by FlightTimelineJson()'s "columns" and "events".
  std::string DumpJson() const;
  /// DumpJson() to a file (trailing newline added). False + stderr note on
  /// IO failure.
  bool DumpToFile(const std::string& path) const;

  /// Public only so the implementation's thread_local cache can name it.
  struct ThreadBuffer {
    std::mutex mu;  // taken by the owning thread and by Snapshot()/Clear()
    std::deque<FlightEvent> events;
    int64_t next_seq = 0;
    int64_t dropped = 0;
  };

 private:
  ThreadBuffer* BufferForThisThread();

  mutable std::mutex mu_;  // guards buffers_
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::atomic<int> epoch_{-1};
  std::atomic<size_t> capacity_{kDefaultCapacity};
};

/// Columnar JSON for a merged flight timeline: {"columns": ["epoch",
/// "site", "kind", "seq", "query", "a", "b"], "events": [[...], ...]}, one
/// row per event in the given order. Chaos artifacts embed this object and
/// replay compares it byte for byte, so it is byte-stable across replays.
util::Json FlightTimelineJson(const std::vector<FlightEvent>& events);

}  // namespace obs
}  // namespace prospector

#endif  // PROSPECTOR_OBS_FLIGHT_RECORDER_H_
