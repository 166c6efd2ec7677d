#include "src/obs/openmetrics.h"

#include <cmath>
#include <cstdio>

namespace prospector {
namespace obs {
namespace {

bool NameChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

}  // namespace

std::string FormatDouble(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

void AppendFamily(std::string* out, const std::string& name,
                  const char* type) {
  out->append("# TYPE ");
  out->append(name);
  out->push_back(' ');
  out->append(type);
  out->push_back('\n');
}

std::string OpenMetricsName(const std::string& dotted) {
  std::string out = "prospector_";
  out.reserve(out.size() + dotted.size());
  for (char c : dotted) out.push_back(NameChar(c) ? c : '_');
  return out;
}

std::string ToOpenMetricsBody(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& [dotted, value] : snapshot.counters) {
    const std::string name = OpenMetricsName(dotted);
    AppendFamily(&out, name, "counter");
    out += name + "_total " + std::to_string(value) + "\n";
  }
  for (const auto& [dotted, value] : snapshot.gauges) {
    const std::string name = OpenMetricsName(dotted);
    AppendFamily(&out, name, "gauge");
    out += name + " " + FormatDouble(value) + "\n";
  }
  for (const auto& [dotted, h] : snapshot.histograms) {
    const std::string name = OpenMetricsName(dotted);
    AppendFamily(&out, name, "histogram");
    int highest = -1;
    for (int b = 0; b < static_cast<int>(h.buckets.size()); ++b) {
      if (h.buckets[b] != 0) highest = b;
    }
    int64_t cumulative = 0;
    for (int b = 0; b <= highest; ++b) {
      cumulative += h.buckets[b];
      // Bucket b holds values in (2^(b-1), 2^b]; the le boundary is 2^b.
      out += name + "_bucket{le=\"" + FormatDouble(std::ldexp(1.0, b)) +
             "\"} " + std::to_string(cumulative) + "\n";
    }
    out += name + "_bucket{le=\"+Inf\"} " + std::to_string(h.count) + "\n";
    out += name + "_count " + std::to_string(h.count) + "\n";
    out += name + "_sum " + FormatDouble(h.sum) + "\n";
  }
  return out;
}

std::string ToOpenMetrics(const MetricsSnapshot& snapshot) {
  return ToOpenMetricsBody(snapshot) + "# EOF\n";
}

}  // namespace obs
}  // namespace prospector
