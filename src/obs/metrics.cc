#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "src/obs/flight_recorder.h"
#include "src/obs/trace.h"
#include "src/util/json.h"

namespace prospector {
namespace obs {
namespace {

int BucketFor(double v) {
  if (!(v > 1.0)) return 0;  // <= 1, zero, negative, NaN
  const int b = static_cast<int>(std::ceil(std::log2(v)));
  return std::min(b, Histogram::kNumBuckets - 1);
}

}  // namespace

void Histogram::Record(double v) {
  std::lock_guard<std::mutex> lock(mu_);
  if (data_.buckets.empty()) data_.buckets.assign(kNumBuckets, 0);
  if (data_.count == 0) {
    data_.min = v;
    data_.max = v;
  } else {
    data_.min = std::min(data_.min, v);
    data_.max = std::max(data_.max, v);
  }
  ++data_.count;
  // Neumaier-compensated summation: the branch keeps the low-order bits
  // of whichever operand is smaller, so long soaks (millions of records)
  // report the same sum regardless of how the run was chunked.
  const double t = data_.sum + v;
  if (std::abs(data_.sum) >= std::abs(v)) {
    sum_compensation_ += (data_.sum - t) + v;
  } else {
    sum_compensation_ += (v - t) + data_.sum;
  }
  data_.sum = t;
  ++data_.buckets[BucketFor(v)];
}

Histogram::Data Histogram::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Data out = data_;
  out.sum = data_.sum + sum_compensation_;
  if (out.buckets.empty()) out.buckets.assign(kNumBuckets, 0);
  return out;
}

void Histogram::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  data_ = Data{};
  sum_compensation_ = 0.0;
}

std::string MetricsSnapshot::ToJson() const {
  util::Json counters_json = util::Json::Object();
  for (const auto& [name, value] : counters) counters_json.Set(name, value);
  util::Json gauges_json = util::Json::Object();
  for (const auto& [name, value] : gauges) gauges_json.Set(name, value);
  util::Json histograms_json = util::Json::Object();
  for (const auto& [name, h] : histograms) {
    util::Json entry = util::Json::Object();
    entry.Set("count", h.count);
    entry.Set("sum", h.sum);
    entry.Set("min", h.count > 0 ? h.min : 0.0);
    entry.Set("max", h.count > 0 ? h.max : 0.0);
    histograms_json.Set(name, std::move(entry));
  }
  util::Json out = util::Json::Object();
  out.Set("counters", std::move(counters_json));
  out.Set("gauges", std::move(gauges_json));
  out.Set("histograms", std::move(histograms_json));
  return out.Dump(-1);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot out;
  for (const auto& [name, c] : counters_) out.counters.emplace_back(name, c->value());
  for (const auto& [name, g] : gauges_) out.gauges.emplace_back(name, g->value());
  for (const auto& [name, h] : histograms_) {
    out.histograms.emplace_back(name, h->Snapshot());
  }
  return out;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

void MetricsRegistry::ResetAll() {
  Reset();
  // Only the global registry owns the global flight recorder / tracer;
  // resetting a test-local registry must not wipe another component's
  // black box.
  if (this == &Global()) {
    FlightRecorder::Global().Clear();
    Tracer::Global().Clear();
  }
}

}  // namespace obs
}  // namespace prospector
