#include "src/core/event_sim.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "src/util/rng.h"

namespace prospector {
namespace core {
namespace {

const net::EnergyModel kEnergy{};
const RadioTiming kTiming{};

double Tx(int values) {
  return kTiming.TransmissionSeconds(values * kEnergy.bytes_per_value);
}

TEST(EventSimTest, ChainMatchesHandComputation) {
  net::Topology topo = net::BuildChain(4);
  QueryPlan p = QueryPlan::Bandwidth(1, {0, 1, 1, 1});
  EventSimResult r = SimulateCollectionPhase(p, topo, kEnergy, kTiming);
  EXPECT_NEAR(r.completion_s, 3 * Tx(1), 1e-12);
  EXPECT_EQ(r.transmissions, 3);
  EXPECT_EQ(r.retransmissions, 0);
  // Middle nodes both send and receive once.
  EXPECT_NEAR(r.node_airtime_s[1], 2 * Tx(1), 1e-12);
  EXPECT_NEAR(r.node_airtime_s[3], Tx(1), 1e-12);
  EXPECT_NEAR(r.node_airtime_s[0], Tx(1), 1e-12);
}

TEST(EventSimTest, StarBlocksSiblings) {
  net::Topology topo = net::BuildStar(4);
  QueryPlan p = QueryPlan::Bandwidth(1, {0, 1, 1, 1});
  EventSimResult r = SimulateCollectionPhase(p, topo, kEnergy, kTiming);
  EXPECT_NEAR(r.completion_s, 3 * Tx(1), 1e-12);
  // All three are ready at t=0; the 2nd and 3rd wait 1 resp. 2 slots.
  double blocked = 0.0;
  for (double b : r.node_blocked_s) blocked += b;
  EXPECT_NEAR(blocked, 3 * Tx(1), 1e-12);
}

class EventSimAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(EventSimAgreementTest, MatchesAnalyticLatencyModel) {
  Rng rng(800 + GetParam());
  const int n = 10 + static_cast<int>(rng.UniformInt(uint64_t{40}));
  net::Topology topo = net::BuildRandomTree(n, 4, &rng);
  std::vector<int> bw(n, 0);
  for (int e = 1; e < n; ++e) {
    bw[e] = static_cast<int>(rng.UniformInt(uint64_t{4}));  // 0..3
  }
  QueryPlan p = QueryPlan::Bandwidth(3, std::move(bw));
  p.Normalize(topo);

  const double analytic = EstimateCollectionLatency(p, topo, kEnergy, kTiming);
  EventSimResult sim = SimulateCollectionPhase(p, topo, kEnergy, kTiming);
  EXPECT_NEAR(sim.completion_s, analytic, 1e-9) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventSimAgreementTest, ::testing::Range(1, 40));

TEST(EventSimTest, FailuresStretchLatencyByExpectedFactor) {
  net::Topology topo = net::BuildChain(2);
  QueryPlan p = QueryPlan::Bandwidth(1, {0, 1});
  net::FailureModel f;
  f.edge_failure_prob = {0.0, 0.5};
  Rng rng(9);
  double total = 0.0;
  int retx = 0;
  const int trials = 4000;
  for (int i = 0; i < trials; ++i) {
    EventSimResult r = SimulateCollectionPhase(p, topo, kEnergy, kTiming, f,
                                               &rng);
    total += r.completion_s;
    retx += r.retransmissions;
  }
  // E[attempts] = 1/(1-p) = 2 -> mean latency ~ 2 * Tx.
  EXPECT_NEAR(total / trials, 2 * Tx(1), 0.1 * Tx(1));
  EXPECT_GT(retx, 0);
}

TEST(EventSimTest, EmptyPlanCompletesInstantly) {
  net::Topology topo = net::BuildStar(5);
  QueryPlan p = QueryPlan::Bandwidth(1, {0, 0, 0, 0, 0});
  EventSimResult r = SimulateCollectionPhase(p, topo, kEnergy, kTiming);
  EXPECT_DOUBLE_EQ(r.completion_s, 0.0);
  EXPECT_EQ(r.transmissions, 0);
}

// ---- Root placement: the root need not be node 0 (topology.h). ----

TEST(RootPlacementTest, EventSimMatchesAcrossRootRelabelling) {
  // The chain leaf -> mid -> root labelled root-last ({1, 2, root}) and
  // root-first ({root, 0, 1}): node i of one is node 2 - i of the other.
  auto root_last = net::Topology::FromParents({1, 2, net::Topology::kNoParent});
  auto root_first =
      net::Topology::FromParents({net::Topology::kNoParent, 0, 1});
  ASSERT_TRUE(root_last.ok() && root_first.ok());
  auto reversed = [](auto v) {
    std::reverse(v.begin(), v.end());
    return v;
  };

  // Both edges carry one value: two transmissions back to back.
  const EventSimResult last = SimulateCollectionPhase(
      QueryPlan::Bandwidth(1, {1, 1, 0}), *root_last, kEnergy, kTiming);
  const EventSimResult first = SimulateCollectionPhase(
      QueryPlan::Bandwidth(1, {0, 1, 1}), *root_first, kEnergy, kTiming);
  EXPECT_EQ(last.transmissions, 2);
  EXPECT_EQ(first.transmissions, 2);
  EXPECT_NEAR(last.completion_s, 2 * Tx(1), 1e-12);
  EXPECT_EQ(last.completion_s, first.completion_s);
  EXPECT_EQ(last.node_airtime_s, reversed(first.node_airtime_s));
  EXPECT_EQ(last.node_blocked_s, reversed(first.node_blocked_s));
}

}  // namespace
}  // namespace core
}  // namespace prospector
