#include "src/core/cluster_query.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace prospector {
namespace core {

Clustering ClusterByGrid(const net::Topology& topology, int cells_x,
                         int cells_y) {
  Clustering c;
  const int n = topology.num_nodes();
  c.cluster_of_node.assign(n, -1);
  const std::vector<net::Point>& pos = topology.positions();
  if (pos.empty() || cells_x <= 0 || cells_y <= 0) return c;

  double min_x = pos[0].x, max_x = pos[0].x;
  double min_y = pos[0].y, max_y = pos[0].y;
  for (const net::Point& p : pos) {
    min_x = std::min(min_x, p.x);
    max_x = std::max(max_x, p.x);
    min_y = std::min(min_y, p.y);
    max_y = std::max(max_y, p.y);
  }
  const double w = std::max(max_x - min_x, 1e-9);
  const double h = std::max(max_y - min_y, 1e-9);

  // First pass: raw cell ids; second pass: densify over non-empty cells.
  std::map<int, int> dense_id;
  for (int i = 0; i < n; ++i) {
    if (i == topology.root()) continue;  // the root stays unclustered
    int cx = std::min(cells_x - 1,
                      static_cast<int>((pos[i].x - min_x) / w * cells_x));
    int cy = std::min(cells_y - 1,
                      static_cast<int>((pos[i].y - min_y) / h * cells_y));
    const int raw = cy * cells_x + cx;
    auto [it, inserted] = dense_id.try_emplace(raw, c.num_clusters);
    if (inserted) ++c.num_clusters;
    c.cluster_of_node[i] = it->second;
  }
  return c;
}

std::vector<double> ClusterAverages(const Clustering& clustering,
                                    const std::vector<double>& values) {
  std::vector<double> sum(clustering.num_clusters, 0.0);
  std::vector<int> count(clustering.num_clusters, 0);
  for (size_t i = 0; i < values.size(); ++i) {
    const int cl = clustering.cluster_of_node[i];
    if (cl < 0) continue;
    sum[cl] += values[i];
    ++count[cl];
  }
  std::vector<double> avg(clustering.num_clusters);
  for (int cl = 0; cl < clustering.num_clusters; ++cl) {
    avg[cl] = count[cl] > 0 ? sum[cl] / count[cl] : std::nan("");
  }
  return avg;
}

std::vector<int> TopClusters(const std::vector<double>& averages, int k) {
  std::vector<int> ids;
  for (size_t cl = 0; cl < averages.size(); ++cl) {
    if (!std::isnan(averages[cl])) ids.push_back(static_cast<int>(cl));
  }
  std::sort(ids.begin(), ids.end(), [&](int a, int b) {
    if (averages[a] != averages[b]) return averages[a] > averages[b];
    return a < b;
  });
  if (static_cast<int>(ids.size()) > k) ids.resize(k);
  return ids;
}

sampling::ContributorFn ClusterTopKContributor(Clustering clustering, int k) {
  return [clustering = std::move(clustering),
          k](const std::vector<double>& values) {
    const std::vector<double> avg = ClusterAverages(clustering, values);
    const std::vector<int> top = TopClusters(avg, k);
    std::vector<char> winning(clustering.num_clusters, 0);
    for (int cl : top) winning[cl] = 1;
    std::vector<int> contributors;
    for (size_t i = 0; i < values.size(); ++i) {
      const int cl = clustering.cluster_of_node[i];
      if (cl >= 0 && winning[cl]) contributors.push_back(static_cast<int>(i));
    }
    return contributors;
  };
}

ClusterAggregateResult ExecuteClusterAggregate(const Clustering& clustering,
                                               const std::vector<double>& truth,
                                               int k,
                                               net::NetworkSimulator* sim) {
  const net::Topology& topo = sim->topology();
  const int n = topo.num_nodes();
  ClusterAggregateResult result;

  struct Partial {
    double sum = 0.0;
    int count = 0;
  };
  // Sparse per-node partial maps, merged bottom-up (TAG-style).
  std::vector<std::map<int, Partial>> partials(n);
  for (int u : topo.PostOrder()) {
    const int cl = clustering.cluster_of_node[u];
    if (cl >= 0) {
      Partial& p = partials[u][cl];
      p.sum += truth[u];
      p.count += 1;
    }
    if (u == topo.root()) break;
    for (auto& [c, p] : partials[u]) {
      Partial& up = partials[topo.parent(u)][c];
      up.sum += p.sum;
      up.count += p.count;
    }
    // One message per edge carrying one value slot per cluster partial.
    result.energy_mj +=
        sim->Unicast(u, static_cast<int>(partials[u].size()));
    ++result.messages;
  }

  result.cluster_avg.assign(clustering.num_clusters, std::nan(""));
  for (const auto& [cl, p] : partials[topo.root()]) {
    result.cluster_avg[cl] = p.sum / p.count;
  }
  result.top_clusters = TopClusters(result.cluster_avg, k);
  return result;
}

std::vector<int> EstimateTopClusters(const Clustering& clustering,
                                     const std::vector<Reading>& arrived,
                                     int k) {
  std::vector<double> sum(clustering.num_clusters, 0.0);
  std::vector<int> count(clustering.num_clusters, 0);
  for (const Reading& r : arrived) {
    const int cl = clustering.cluster_of_node[r.node];
    if (cl < 0) continue;
    sum[cl] += r.value;
    ++count[cl];
  }
  std::vector<double> avg(clustering.num_clusters);
  for (int cl = 0; cl < clustering.num_clusters; ++cl) {
    avg[cl] = count[cl] > 0 ? sum[cl] / count[cl] : std::nan("");
  }
  return TopClusters(avg, k);
}

double ClusterRecall(const std::vector<int>& estimated,
                     const std::vector<int>& truth) {
  if (truth.empty()) return 1.0;
  int hit = 0;
  for (int t : truth) {
    for (int e : estimated) {
      if (e == t) {
        ++hit;
        break;
      }
    }
  }
  return static_cast<double>(hit) / static_cast<double>(truth.size());
}

}  // namespace core
}  // namespace prospector
