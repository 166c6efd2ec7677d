#ifndef PROSPECTOR_OBS_OPENMETRICS_H_
#define PROSPECTOR_OBS_OPENMETRICS_H_

#include <string>

#include "src/obs/metrics.h"

namespace prospector {
namespace obs {

/// Rewrites a dotted metric name ("session.replans") into an OpenMetrics
/// metric name with the exporter prefix ("prospector_session_replans").
/// Any character outside [a-zA-Z0-9_] becomes '_'.
std::string OpenMetricsName(const std::string& dotted);

/// Spells a sample value the way every exposition in this repo does
/// ("%.9g"; non-finite values as OpenMetrics' "NaN", "+Inf" and "-Inf"),
/// so equal values render byte-identically across families.
std::string FormatDouble(double v);

/// Appends a family's "# TYPE <name> <type>" line.
void AppendFamily(std::string* out, const std::string& name,
                  const char* type);

/// Renders a snapshot as OpenMetrics text WITHOUT the trailing "# EOF"
/// terminator, so callers can append more metric families (e.g. the
/// per-query health series) before closing the exposition. Counters
/// render as `<name>_total`, gauges as gauges, histograms as cumulative
/// `<name>_bucket{le="..."}` series (base-2 boundaries, up to the highest
/// non-empty bucket, then `+Inf`) plus `_count` and `_sum`. Families are
/// emitted in name order — the snapshot is already sorted — so equal
/// metric state renders byte-identically.
std::string ToOpenMetricsBody(const MetricsSnapshot& snapshot);

/// ToOpenMetricsBody() plus the "# EOF\n" terminator: a complete,
/// parseable OpenMetrics exposition.
std::string ToOpenMetrics(const MetricsSnapshot& snapshot);

}  // namespace obs
}  // namespace prospector

#endif  // PROSPECTOR_OBS_OPENMETRICS_H_
