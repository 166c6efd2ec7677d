#include "src/obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "src/util/json.h"

namespace prospector {
namespace obs {
namespace {

thread_local Tracer::ThreadBuffer* tl_buffer = nullptr;
thread_local int tl_depth = 0;

}  // namespace

int64_t MonotonicNowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

Tracer::ThreadBuffer* Tracer::BufferForThisThread() {
  if (tl_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    buffers_.back()->tid = next_tid_++;
    // Buffers are never deallocated (only their events move out), so the
    // cached pointer stays valid for the thread's lifetime.
    tl_buffer = buffers_.back().get();
  }
  return tl_buffer;
}

void Tracer::Record(const TraceEvent& event) {
  ThreadBuffer* buf = BufferForThisThread();
  TraceEvent e = event;
  e.tid = buf->tid;
  std::lock_guard<std::mutex> lock(buf->mu);
  buf->events.push_back(e);
}

std::vector<TraceEvent> Tracer::Drain() {
  std::vector<TraceEvent> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& buf : buffers_) {
    std::lock_guard<std::mutex> buf_lock(buf->mu);
    out.insert(out.end(), buf->events.begin(), buf->events.end());
    buf->events.clear();
  }
  std::sort(out.begin(), out.end(), [](const TraceEvent& a, const TraceEvent& b) {
    if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
    if (a.tid != b.tid) return a.tid < b.tid;
    return a.depth < b.depth;
  });
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) {
  util::Json trace_events = util::Json::Array();
  for (const TraceEvent& e : Drain()) {
    util::Json event = util::Json::Object();
    event.Set("name", e.name);
    event.Set("cat", e.category);
    event.Set("ph", "X");
    event.Set("pid", 1);
    event.Set("tid", e.tid);
    event.Set("ts", e.ts_us);
    event.Set("dur", e.dur_us);
    trace_events.Append(std::move(event));
  }
  util::Json out = util::Json::Object();
  out.Set("traceEvents", std::move(trace_events));
  const Status st = util::WriteFile(path, out.Dump(-1) + "\n");
  if (!st.ok()) std::fprintf(stderr, "%s\n", st.ToString().c_str());
  return st.ok();
}

ScopedSpan::ScopedSpan(const char* name, const char* category)
    : name_(name), category_(category) {
  // Enablement is latched at open so a span straddling Enable()/Disable()
  // cannot record a half-defined duration.
  if (!Tracer::Global().enabled()) return;
  active_ = true;
  depth_ = tl_depth++;
  start_us_ = MonotonicNowUs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  --tl_depth;
  TraceEvent e;
  e.name = name_;
  e.category = category_;
  e.depth = depth_;
  e.ts_us = start_us_;
  e.dur_us = MonotonicNowUs() - start_us_;
  Tracer::Global().Record(e);
}

int ScopedSpan::CurrentDepth() { return tl_depth; }

}  // namespace obs
}  // namespace prospector
