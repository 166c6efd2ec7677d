#include "src/obs/flight_recorder.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace prospector {
namespace obs {
namespace {

thread_local FlightRecorder::ThreadBuffer* tl_flight_buffer = nullptr;

}  // namespace

const char* FlightKindName(FlightKind kind) {
  switch (kind) {
    case FlightKind::kPlanInstall:
      return "plan_install";
    case FlightKind::kReplan:
      return "replan";
    case FlightKind::kHeal:
      return "heal";
    case FlightKind::kGuardReject:
      return "guard_reject";
    case FlightKind::kFold:
      return "fold";
    case FlightKind::kAudit:
      return "audit";
    case FlightKind::kFaultInject:
      return "fault_inject";
    case FlightKind::kNote:
      return "note";
  }
  return "unknown";
}

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

FlightRecorder::ThreadBuffer* FlightRecorder::BufferForThisThread() {
  if (tl_flight_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    // Buffers are never deallocated (Clear() empties them in place), so
    // the cached pointer stays valid for the thread's lifetime.
    tl_flight_buffer = buffers_.back().get();
  }
  return tl_flight_buffer;
}

void FlightRecorder::Record(FlightKind kind, const char* site, int query_id,
                            double a, double b) {
  ThreadBuffer* buf = BufferForThisThread();
  const size_t cap = capacity();
  std::lock_guard<std::mutex> lock(buf->mu);
  FlightEvent ev;
  ev.kind = kind;
  ev.epoch = epoch();
  ev.site = site;
  ev.query_id = query_id;
  ev.a = a;
  ev.b = b;
  ev.seq = buf->next_seq++;
  buf->events.push_back(ev);
  while (buf->events.size() > cap) {
    buf->events.pop_front();
    ++buf->dropped;
  }
}

std::vector<FlightEvent> FlightRecorder::Snapshot() const {
  std::vector<FlightEvent> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& buf : buffers_) {
      std::lock_guard<std::mutex> buf_lock(buf->mu);
      out.insert(out.end(), buf->events.begin(), buf->events.end());
    }
  }
  std::sort(out.begin(), out.end(),
            [](const FlightEvent& x, const FlightEvent& y) {
              if (x.epoch != y.epoch) return x.epoch < y.epoch;
              const int c = std::strcmp(x.site, y.site);
              if (c != 0) return c < 0;
              return x.seq < y.seq;
            });
  return out;
}

void FlightRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buf : buffers_) {
    std::lock_guard<std::mutex> buf_lock(buf->mu);
    buf->events.clear();
    buf->next_seq = 0;
    buf->dropped = 0;
  }
  epoch_.store(-1, std::memory_order_relaxed);
}

int64_t FlightRecorder::dropped() const {
  int64_t total = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buf : buffers_) {
    std::lock_guard<std::mutex> buf_lock(buf->mu);
    total += buf->dropped;
  }
  return total;
}

void FlightRecorder::SetCapacity(size_t per_thread_events) {
  if (per_thread_events == 0) per_thread_events = 1;
  capacity_.store(per_thread_events, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buf : buffers_) {
    std::lock_guard<std::mutex> buf_lock(buf->mu);
    while (buf->events.size() > per_thread_events) {
      buf->events.pop_front();
      ++buf->dropped;
    }
  }
}

std::string FlightRecorder::DumpJson() const {
  // A local: a range-for over a temporary's members() would dangle.
  const util::Json timeline = FlightTimelineJson(Snapshot());
  util::Json out = util::Json::Object();
  out.Set("schema_version", 1);
  out.Set("dropped", dropped());
  for (const auto& [key, value] : timeline.members()) out.Set(key, value);
  return out.Dump(-1);
}

bool FlightRecorder::DumpToFile(const std::string& path) const {
  const Status st = util::WriteFile(path, DumpJson() + "\n");
  if (!st.ok()) {
    std::fprintf(stderr, "flight recorder: %s\n", st.ToString().c_str());
  }
  return st.ok();
}

util::Json FlightTimelineJson(const std::vector<FlightEvent>& events) {
  util::Json columns = util::Json::Array();
  for (const char* c : {"epoch", "site", "kind", "seq", "query", "a", "b"}) {
    columns.Append(c);
  }
  util::Json rows = util::Json::Array();
  for (const FlightEvent& ev : events) {
    util::Json row = util::Json::Array();
    row.Append(ev.epoch);
    row.Append(ev.site);
    row.Append(FlightKindName(ev.kind));
    row.Append(ev.seq);
    row.Append(ev.query_id);
    row.Append(ev.a);
    row.Append(ev.b);
    rows.Append(std::move(row));
  }
  util::Json out = util::Json::Object();
  out.Set("columns", std::move(columns));
  out.Set("events", std::move(rows));
  return out;
}

}  // namespace obs
}  // namespace prospector
