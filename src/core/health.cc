#include "src/core/health.h"

#include <algorithm>
#include <map>
#include <numeric>

#include "src/obs/openmetrics.h"
#include "src/util/json.h"

namespace prospector {
namespace core {
namespace {

using obs::AppendFamily;
using obs::FormatDouble;

double WindowMean(const std::deque<double>& window, double empty_value) {
  if (window.empty()) return empty_value;
  const double sum = std::accumulate(window.begin(), window.end(), 0.0);
  return sum / static_cast<double>(window.size());
}

void AppendBreach(std::string* breached, const char* name) {
  if (!breached->empty()) breached->push_back(',');
  breached->append(name);
}

}  // namespace

const char* HealthStatusName(HealthStatus status) {
  switch (status) {
    case HealthStatus::kUnknown:
      return "unknown";
    case HealthStatus::kHealthy:
      return "healthy";
    case HealthStatus::kDegraded:
      return "degraded";
    case HealthStatus::kUnhealthy:
      return "unhealthy";
  }
  return "unknown";
}

void QueryHealthTracker::PushWindow(std::deque<double>* window, double v) {
  window->push_back(v);
  const size_t cap = slo_.window > 0 ? static_cast<size_t>(slo_.window) : 1;
  while (window->size() > cap) window->pop_front();
}

void QueryHealthTracker::Observe(const EpochSignals& s) {
  const bool has_recall = s.recall >= 0.0;
  const bool has_latency = s.replan_latency_ms >= 0.0;
  if (has_recall) PushWindow(&recall_window_, s.recall);
  PushWindow(&energy_window_, s.energy_mj);
  if (has_latency) PushWindow(&latency_window_, s.replan_latency_ms);
  PushWindow(&guard_window_, s.guard_rejects);

  health_.last_recall = has_recall ? s.recall : health_.last_recall;
  health_.mean_recall = WindowMean(recall_window_, -1.0);
  health_.mean_energy_mj = WindowMean(energy_window_, 0.0);
  health_.mean_replan_latency_ms = WindowMean(latency_window_, 0.0);
  health_.mean_guard_rejects = WindowMean(guard_window_, 0.0);
  if (s.predicted_recall >= 0.0) {
    health_.predicted_recall = s.predicted_recall;
  }
  health_.recall_residual =
      (health_.predicted_recall >= 0.0 && has_recall)
          ? health_.predicted_recall - s.recall
          : 0.0;

  // Score each armed SLO whose signal is present this epoch.
  std::string breached;
  bool scored = false;
  if (slo_.min_recall >= 0.0 && has_recall) {
    scored = true;
    if (s.recall < slo_.min_recall) AppendBreach(&breached, "recall");
  }
  if (slo_.max_energy_mj >= 0.0) {
    scored = true;
    if (s.energy_mj > slo_.max_energy_mj) AppendBreach(&breached, "energy");
  }
  if (slo_.max_replan_latency_ms >= 0.0 && has_latency) {
    scored = true;
    if (s.replan_latency_ms > slo_.max_replan_latency_ms) {
      AppendBreach(&breached, "replan_latency");
    }
  }
  if (slo_.max_guard_rejects >= 0.0) {
    scored = true;
    if (s.guard_rejects > slo_.max_guard_rejects) {
      AppendBreach(&breached, "guard_rejects");
    }
  }
  if (slo_.max_recall_residual >= 0.0 && has_recall &&
      health_.predicted_recall >= 0.0) {
    scored = true;
    if (health_.recall_residual > slo_.max_recall_residual) {
      AppendBreach(&breached, "recall_residual");
    }
  }

  // Epochs without any scoreable signal (e.g. explore sweeps under the
  // default recall-only SLO) leave the breach streak untouched — a sweep
  // between two bad query epochs must not silence the alarm.
  if (!scored) return;
  ++health_.scored_epochs;
  health_.breached = breached;
  if (breached.empty()) {
    health_.consecutive_breaches = 0;
    health_.status = HealthStatus::kHealthy;
  } else {
    ++health_.consecutive_breaches;
    health_.status = health_.consecutive_breaches >= slo_.breach_epochs
                         ? HealthStatus::kUnhealthy
                         : HealthStatus::kDegraded;
  }
}

namespace {

/// Shared by every per-query series: the query label plus the fleet tags
/// when present, so one exposition covers many deployments and tenants
/// without colliding series. Tag order is fixed (query, deployment,
/// tenant) — equal reports render byte-identically.
std::string QueryLabels(const QueryHealth& q) {
  std::string out = "{query=\"" + std::to_string(q.query_id) + "\"";
  if (q.deployment_id >= 0) {
    out += ",deployment=\"" + std::to_string(q.deployment_id) + "\"";
  }
  if (q.tenant_id >= 0) {
    out += ",tenant=\"" + std::to_string(q.tenant_id) + "\"";
  }
  out += "}";
  return out;
}

std::vector<HealthRollup> RollupBy(const std::vector<QueryHealth>& report,
                                   int QueryHealth::* tag) {
  std::map<int, HealthRollup> buckets;  // ordered: output ascending by id
  std::map<int, std::pair<double, int>> recall;  // id -> (sum, count)
  for (const QueryHealth& q : report) {
    const int id = q.*tag;
    HealthRollup& r = buckets[id];
    r.id = id;
    ++r.queries;
    switch (q.status) {
      case HealthStatus::kUnknown: ++r.unknown; break;
      case HealthStatus::kHealthy: ++r.healthy; break;
      case HealthStatus::kDegraded: ++r.degraded; break;
      case HealthStatus::kUnhealthy: ++r.unhealthy; break;
    }
    if (q.mean_recall >= 0.0) {
      auto& [sum, count] = recall[id];
      sum += q.mean_recall;
      ++count;
    }
    r.energy_mj += q.mean_energy_mj;
    r.max_consecutive_breaches =
        std::max(r.max_consecutive_breaches, q.consecutive_breaches);
  }
  std::vector<HealthRollup> out;
  out.reserve(buckets.size());
  for (auto& [id, r] : buckets) {
    const auto it = recall.find(id);
    if (it != recall.end() && it->second.second > 0) {
      r.mean_recall =
          it->second.first / static_cast<double>(it->second.second);
    }
    out.push_back(r);
  }
  return out;
}

util::Json RollupJson(const std::vector<HealthRollup>& rollups) {
  util::Json out = util::Json::Array();
  for (const HealthRollup& r : rollups) {
    util::Json j = util::Json::Object();
    j.Set("id", r.id);
    j.Set("queries", r.queries);
    j.Set("unknown", r.unknown);
    j.Set("healthy", r.healthy);
    j.Set("degraded", r.degraded);
    j.Set("unhealthy", r.unhealthy);
    j.Set("mean_recall", r.mean_recall);
    j.Set("energy_mj", r.energy_mj);
    j.Set("max_consecutive_breaches", r.max_consecutive_breaches);
    out.Append(std::move(j));
  }
  return out;
}

util::Json QueryHealthJson(const std::vector<QueryHealth>& report) {
  util::Json out = util::Json::Array();
  for (const QueryHealth& q : report) {
    util::Json j = util::Json::Object();
    j.Set("query", q.query_id);
    j.Set("deployment", q.deployment_id);
    j.Set("tenant", q.tenant_id);
    j.Set("status", HealthStatusName(q.status));
    j.Set("scored_epochs", q.scored_epochs);
    j.Set("consecutive_breaches", q.consecutive_breaches);
    j.Set("last_recall", q.last_recall);
    j.Set("mean_recall", q.mean_recall);
    j.Set("mean_energy_mj", q.mean_energy_mj);
    j.Set("mean_replan_latency_ms", q.mean_replan_latency_ms);
    j.Set("mean_guard_rejects", q.mean_guard_rejects);
    j.Set("predicted_recall", q.predicted_recall);
    j.Set("recall_residual", q.recall_residual);
    j.Set("breached", q.breached);
    out.Append(std::move(j));
  }
  return out;
}

}  // namespace

std::vector<HealthRollup> RollupByTenant(
    const std::vector<QueryHealth>& report) {
  return RollupBy(report, &QueryHealth::tenant_id);
}

std::vector<HealthRollup> RollupByDeployment(
    const std::vector<QueryHealth>& report) {
  return RollupBy(report, &QueryHealth::deployment_id);
}

std::string HealthRollupOpenMetricsBody(
    const char* label, const std::vector<HealthRollup>& rollups) {
  std::string out;
  const std::string prefix = std::string("prospector_") + label + "_";
  auto series = [&](const char* name, int id, const std::string& v) {
    out += prefix + name + "{" + label + "=\"" + std::to_string(id) +
           "\"} " + v + "\n";
  };
  AppendFamily(&out, prefix + "queries", "gauge");
  for (const HealthRollup& r : rollups) {
    series("queries", r.id, std::to_string(r.queries));
  }
  AppendFamily(&out, prefix + "degraded", "gauge");
  for (const HealthRollup& r : rollups) {
    series("degraded", r.id, std::to_string(r.degraded));
  }
  AppendFamily(&out, prefix + "unhealthy", "gauge");
  for (const HealthRollup& r : rollups) {
    series("unhealthy", r.id, std::to_string(r.unhealthy));
  }
  AppendFamily(&out, prefix + "recall", "gauge");
  for (const HealthRollup& r : rollups) {
    series("recall", r.id, FormatDouble(r.mean_recall));
  }
  AppendFamily(&out, prefix + "energy_mj", "gauge");
  for (const HealthRollup& r : rollups) {
    series("energy_mj", r.id, FormatDouble(r.energy_mj));
  }
  return out;
}

std::string FleetHealthJson(const std::vector<QueryHealth>& report) {
  util::Json out = util::Json::Object();
  out.Set("queries", QueryHealthJson(report));
  out.Set("tenants", RollupJson(RollupByTenant(report)));
  out.Set("deployments", RollupJson(RollupByDeployment(report)));
  return out.Dump(-1);
}

std::string HealthOpenMetricsBody(const std::vector<QueryHealth>& report) {
  std::string out;
  auto series = [&out](const char* name, const QueryHealth& q,
                       const std::string& v) {
    out += "prospector_query_";
    out += name;
    out += QueryLabels(q) + " " + v + "\n";
  };
  AppendFamily(&out, "prospector_query_health", "gauge");
  for (const QueryHealth& q : report) {
    series("health", q, std::to_string(static_cast<int>(q.status)));
  }
  AppendFamily(&out, "prospector_query_recall", "gauge");
  for (const QueryHealth& q : report) {
    series("recall", q, FormatDouble(q.mean_recall));
  }
  AppendFamily(&out, "prospector_query_energy_mj", "gauge");
  for (const QueryHealth& q : report) {
    series("energy_mj", q, FormatDouble(q.mean_energy_mj));
  }
  AppendFamily(&out, "prospector_query_guard_rejects", "gauge");
  for (const QueryHealth& q : report) {
    series("guard_rejects", q, FormatDouble(q.mean_guard_rejects));
  }
  AppendFamily(&out, "prospector_query_recall_residual", "gauge");
  for (const QueryHealth& q : report) {
    series("recall_residual", q, FormatDouble(q.recall_residual));
  }
  AppendFamily(&out, "prospector_query_consecutive_breaches", "gauge");
  for (const QueryHealth& q : report) {
    series("consecutive_breaches", q,
           std::to_string(q.consecutive_breaches));
  }
  return out;
}

std::string HealthReportJson(const std::vector<QueryHealth>& report) {
  return QueryHealthJson(report).Dump(-1);
}

}  // namespace core
}  // namespace prospector
