#include "src/core/lifetime.h"

#include <cmath>

#include <gtest/gtest.h>

#include "src/core/lp_filter_planner.h"
#include "src/core/naive.h"
#include "src/data/gaussian_field.h"
#include "src/util/rng.h"

namespace prospector {
namespace core {
namespace {

TEST(LifetimeTest, PerNodeEnergyMatchesLedgerAttribution) {
  net::Topology topo = net::BuildChain(3);
  net::NetworkSimulator sim(&topo, net::EnergyModel{});
  QueryPlan p = QueryPlan::Bandwidth(2, {0, 2, 1});
  const std::vector<double> load = ExpectedPerNodeEnergy(p, sim);
  const net::EnergyModel e;
  // Node 2 sends 1 value; node 1 sends 2 values and broadcasts the
  // trigger to node 2; the root broadcasts to node 1.
  EXPECT_NEAR(load[2], e.MessageCost(1), 1e-12);
  EXPECT_NEAR(load[1], e.MessageCost(2) + e.BroadcastCost(), 1e-12);
  EXPECT_NEAR(load[0], e.BroadcastCost(), 1e-12);
}

TEST(LifetimeTest, FirstDeathArithmetic) {
  net::Topology topo = net::BuildChain(3);
  BatteryModel batteries = BatteryModel::Uniform(topo, 100.0);
  LifetimeEstimate est = EstimateLifetime(topo, batteries, {0.0, 4.0, 2.0});
  EXPECT_NEAR(est.queries_until_first_death, 25.0, 1e-12);
  EXPECT_EQ(est.first_casualty, 1);
  // Node 1 shields node 2's demand: its death partitions the network.
  EXPECT_NEAR(est.queries_until_partition, 25.0, 1e-12);
}

TEST(LifetimeTest, LeafDeathsDoNotPartition) {
  net::Topology topo = net::BuildStar(4);
  BatteryModel batteries = BatteryModel::Uniform(topo, 10.0);
  LifetimeEstimate est = EstimateLifetime(topo, batteries, {0, 1.0, 2.0, 0.5});
  EXPECT_NEAR(est.queries_until_first_death, 5.0, 1e-12);
  EXPECT_EQ(est.first_casualty, 2);
  EXPECT_TRUE(std::isinf(est.queries_until_partition));
}

TEST(LifetimeTest, IdleNetworkLivesForever) {
  net::Topology topo = net::BuildChain(3);
  BatteryModel batteries = BatteryModel::Uniform(topo, 10.0);
  LifetimeEstimate est = EstimateLifetime(topo, batteries, {0.0, 0.0, 0.0});
  EXPECT_TRUE(std::isinf(est.queries_until_first_death));
  EXPECT_EQ(est.first_casualty, -1);
}

TEST(LifetimeTest, BudgetedPlansOutliveNaiveK) {
  Rng rng(31);
  net::GeometricNetworkOptions geo;
  geo.num_nodes = 70;
  geo.radio_range = 24.0;
  auto topo = net::BuildConnectedGeometricNetwork(geo, &rng).value();
  data::GaussianField field =
      data::GaussianField::Random(70, 40, 60, 1, 16, &rng);
  sampling::SampleSet samples = sampling::SampleSet::ForTopK(70, 10);
  for (int s = 0; s < 15; ++s) samples.Add(field.Sample(&rng));

  PlannerContext ctx;
  ctx.topology = &topo;
  net::NetworkSimulator sim(&topo, ctx.energy);
  const BatteryModel batteries = BatteryModel::Uniform(topo, 50000.0);

  LpFilterPlanner planner;
  auto plan = planner.Plan(ctx, samples, PlanRequest{10, 8.0});
  ASSERT_TRUE(plan.ok());
  const LifetimeEstimate approx =
      EstimatePlanLifetime(*plan, sim, batteries);
  const LifetimeEstimate naive =
      EstimatePlanLifetime(MakeNaiveKPlan(topo, 10), sim, batteries);
  EXPECT_GT(approx.queries_until_first_death,
            naive.queries_until_first_death);
}

// ---- Root placement: the root need not be node 0 (topology.h). ----

TEST(RootPlacementTest, LifetimeMatchesAcrossRootRelabelling) {
  // The chain leaf -> mid -> root labelled {mid, leaf, root} and root-first
  // {root, mid, leaf}: node i of the first is node relabel[i] of the
  // second, so every per-node result must match after relabelling it.
  auto mid_first = net::Topology::FromParents({2, 0, net::Topology::kNoParent});
  auto root_first =
      net::Topology::FromParents({net::Topology::kNoParent, 0, 1});
  ASSERT_TRUE(mid_first.ok() && root_first.ok());
  const std::vector<int> relabel = {1, 2, 0};
  auto relabelled = [&](const std::vector<double>& v) {
    std::vector<double> out(v.size());
    for (size_t i = 0; i < v.size(); ++i) out[relabel[i]] = v[i];
    return out;
  };

  // Both edges carry one value.
  net::NetworkSimulator sim_mid(&mid_first.value(), net::EnergyModel{});
  net::NetworkSimulator sim_root(&root_first.value(), net::EnergyModel{});
  EXPECT_EQ(relabelled(ExpectedPerNodeEnergy(
                QueryPlan::Bandwidth(1, {1, 1, 0}), sim_mid)),
            ExpectedPerNodeEnergy(QueryPlan::Bandwidth(1, {0, 1, 1}),
                                  sim_root));

  const BatteryModel batteries_mid = BatteryModel::Uniform(*mid_first, 100.0);
  const BatteryModel batteries_root =
      BatteryModel::Uniform(*root_first, 100.0);
  EXPECT_EQ(relabelled(batteries_mid.capacity_mj), batteries_root.capacity_mj);

  // The mid node relays the leaf's demand: its death at 100 / 4 = 25
  // queries partitions the network, whatever its id.
  const std::vector<double> load_mid = {4.0, 1.0, 0.5};
  const LifetimeEstimate mid =
      EstimateLifetime(*mid_first, batteries_mid, load_mid);
  const LifetimeEstimate root =
      EstimateLifetime(*root_first, batteries_root, relabelled(load_mid));
  EXPECT_DOUBLE_EQ(mid.queries_until_partition, 25.0);
  EXPECT_DOUBLE_EQ(root.queries_until_partition, 25.0);
  EXPECT_DOUBLE_EQ(mid.queries_until_first_death,
                   root.queries_until_first_death);
  EXPECT_EQ(relabel[mid.first_casualty], root.first_casualty);
}

}  // namespace
}  // namespace core
}  // namespace prospector
