#include "src/data/contention.h"

#include <cmath>
#include <deque>

namespace prospector {
namespace data {
namespace {

constexpr double kPi = 3.14159265358979323846;

// BFS min-hop tree over the radio graph of `pos`; empty result on
// disconnection. (Same construction as net::BuildGeometricNetwork, but we
// control placement here, so the BFS is repeated locally.)
std::vector<int> MinHopParents(const std::vector<net::Point>& pos,
                               double range) {
  const int n = static_cast<int>(pos.size());
  std::vector<int> parents(n, net::Topology::kNoParent);
  std::vector<bool> seen(n, false);
  seen[0] = true;
  std::deque<int> queue{0};
  int reached = 1;
  while (!queue.empty()) {
    const int u = queue.front();
    queue.pop_front();
    for (int v = 1; v < n; ++v) {
      if (seen[v]) continue;
      if (net::Distance(pos[u], pos[v]) <= range) {
        seen[v] = true;
        parents[v] = u;
        queue.push_back(v);
        ++reached;
      }
    }
  }
  if (reached != n) return {};
  return parents;
}

}  // namespace

Result<ContentionScenario> BuildContentionScenario(
    const ContentionZoneOptions& options, Rng* rng, int max_tries) {
  if (options.num_zones <= 0 || options.nodes_per_zone <= 0) {
    return Status::InvalidArgument("need at least one zone with nodes");
  }
  const int n =
      1 + options.num_zones * options.nodes_per_zone + options.num_background;
  const double half = options.field_size / 2.0;
  const double ring_radius = half - options.zone_radius;
  const double p = options.exceed_probability > 0
                       ? options.exceed_probability
                       : 1.0 / options.num_zones;
  // sigma such that P(N(mean-offset, sigma^2) > mean) = p.
  const double quantile = InverseNormalCdf(1.0 - p);
  if (quantile <= 0) {
    return Status::InvalidArgument(
        "exceed_probability must be < 0.5 so zone means stay below the "
        "background mean");
  }
  const double zone_sigma = options.zone_mean_offset / quantile;
  const double zone_mean = options.background_mean - options.zone_mean_offset;

  for (int attempt = 0; attempt < max_tries; ++attempt) {
    std::vector<net::Point> pos(n);
    std::vector<int> zone_of(n, -1);
    pos[0] = {half, half};  // root at the center (Figure 6)
    int id = 1;
    for (int z = 0; z < options.num_zones; ++z) {
      const double angle = 2.0 * kPi * z / options.num_zones;
      const net::Point center{half + ring_radius * std::cos(angle),
                              half + ring_radius * std::sin(angle)};
      for (int j = 0; j < options.nodes_per_zone; ++j, ++id) {
        const double r = options.zone_radius * std::sqrt(rng->NextDouble());
        const double a = rng->Uniform(0.0, 2.0 * kPi);
        pos[id] = {center.x + r * std::cos(a), center.y + r * std::sin(a)};
        zone_of[id] = z;
      }
    }
    for (; id < n; ++id) {
      pos[id] = {rng->Uniform(0.0, options.field_size),
                 rng->Uniform(0.0, options.field_size)};
    }

    std::vector<int> parents = MinHopParents(pos, options.radio_range);
    if (parents.empty()) continue;  // disconnected; retry placement
    auto topo = net::Topology::FromParents(std::move(parents));
    if (!topo.ok()) return topo.status();
    PROSPECTOR_RETURN_IF_ERROR(topo.value().set_positions(std::move(pos)));

    std::vector<double> means(n), stddevs(n);
    for (int i = 0; i < n; ++i) {
      if (zone_of[i] >= 0) {
        means[i] = zone_mean;
        stddevs[i] = zone_sigma;
      } else {
        means[i] = options.background_mean;
        stddevs[i] = options.background_stddev;
      }
    }
    return ContentionScenario{std::move(topo.value()),
                              GaussianField(std::move(means), std::move(stddevs)),
                              std::move(zone_of)};
  }
  return Status::FailedPrecondition(
      "no connected contention placement found; increase radio_range");
}

}  // namespace data
}  // namespace prospector
