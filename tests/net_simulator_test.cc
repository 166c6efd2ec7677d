#include "src/net/simulator.h"

#include <gtest/gtest.h>

#include "src/net/energy_model.h"
#include "src/net/failure.h"
#include "src/net/topology.h"

namespace prospector {
namespace net {
namespace {

TEST(EnergyModelTest, MessageCostIsAffineInValues) {
  EnergyModel e;
  e.per_message_mj = 0.4;
  e.per_byte_mj = 0.0015;
  e.bytes_per_value = 4;
  EXPECT_DOUBLE_EQ(e.MessageCost(0), 0.4);
  EXPECT_DOUBLE_EQ(e.MessageCost(10), 0.4 + 0.0015 * 40);
  EXPECT_DOUBLE_EQ(e.MessageCostWithExtra(2, 3),
                   e.MessageCost(2) + 3 * 0.0015);
  EXPECT_DOUBLE_EQ(e.PerValueCost(), 0.006);
  EXPECT_DOUBLE_EQ(e.BroadcastCost(), 0.4);
}

TEST(EnergyModelTest, PerMessageDominatesSmallMessages) {
  // The property motivating approximation: contacting a node at all is
  // clearly more expensive than adding a value to an existing message
  // (c_m several times c_v), yet value transport stays non-negligible
  // (which is what makes local filtering worthwhile).
  EnergyModel e;
  EXPECT_GT(e.MessageCost(1), 5 * e.PerValueCost());
  EXPECT_GT(100 * e.PerValueCost(), e.per_message_mj);
}

TEST(FailureModelTest, ExpectedCostFactor) {
  FailureModel f;
  f.edge_failure_prob = {0.0, 0.5, 0.1};
  f.reroute_cost_factor = 3.0;
  EXPECT_DOUBLE_EQ(f.ExpectedCostFactor(1), 2.0);   // 0.5*3 + 0.5*1
  EXPECT_DOUBLE_EQ(f.ExpectedCostFactor(2), 1.2);
  EXPECT_DOUBLE_EQ(f.ExpectedCostFactor(0), 1.0);
  EXPECT_DOUBLE_EQ(f.ExpectedCostFactor(99), 1.0);  // out of range -> 0
}

TEST(SimulatorTest, LedgerAccounting) {
  Topology topo = BuildChain(3);
  NetworkSimulator sim(&topo, EnergyModel{});
  sim.Unicast(1, 2);
  sim.Unicast(2, 0, 5);
  sim.Broadcast(0);
  const TransmissionStats& st = sim.stats();
  EXPECT_EQ(st.unicast_messages, 2);
  EXPECT_EQ(st.broadcast_messages, 1);
  EXPECT_EQ(st.values_transmitted, 2);
  EnergyModel e;
  EXPECT_NEAR(st.total_energy_mj,
              e.MessageCost(2) + e.MessageCostWithExtra(0, 5) + e.BroadcastCost(),
              1e-12);

  TransmissionStats taken = sim.TakeStats();
  EXPECT_EQ(taken.unicast_messages, 2);
  EXPECT_EQ(sim.stats().unicast_messages, 0);
  EXPECT_DOUBLE_EQ(sim.stats().total_energy_mj, 0.0);
}

TEST(SimulatorTest, BroadcastPayloadChargesBytes) {
  Topology topo = BuildChain(2);
  NetworkSimulator sim(&topo, EnergyModel{});
  const double plain = sim.BroadcastPayload(0, 0);
  const double loaded = sim.BroadcastPayload(0, 10);
  EnergyModel e;
  EXPECT_DOUBLE_EQ(plain, e.BroadcastCost());
  EXPECT_DOUBLE_EQ(loaded, e.BroadcastCost() + 10 * e.per_byte_mj);
  EXPECT_EQ(sim.stats().broadcast_messages, 2);
}

TEST(SimulatorTest, ExpectedUnicastCostMatchesModelTimesFactor) {
  Topology topo = BuildChain(2);
  FailureModel f;
  f.edge_failure_prob = {0.0, 0.25};
  f.reroute_cost_factor = 3.0;
  NetworkSimulator sim(&topo, EnergyModel{}, f);
  EnergyModel e;
  EXPECT_DOUBLE_EQ(sim.ExpectedUnicastCost(1, 4),
                   e.MessageCost(4) * 1.5);  // 1 + 0.25 * (3 - 1)
}

TEST(SimulatorTest, AcquisitionLedger) {
  Topology topo = BuildChain(2);
  EnergyModel e;
  e.acquisition_mj = 0.7;
  NetworkSimulator sim(&topo, e);
  EXPECT_DOUBLE_EQ(sim.ChargeAcquisition(1), 0.7);
  EXPECT_EQ(sim.stats().acquisitions, 1);
  EXPECT_DOUBLE_EQ(sim.stats().total_energy_mj, 0.7);
}

TEST(SimulatorTest, StatsAccumulate) {
  Topology topo = BuildChain(2);
  NetworkSimulator sim(&topo, EnergyModel{});
  sim.Unicast(1, 1);
  TransmissionStats a = sim.TakeStats();
  sim.Unicast(1, 2);
  TransmissionStats b = sim.TakeStats();
  a.Accumulate(b);
  EXPECT_EQ(a.unicast_messages, 2);
  EXPECT_EQ(a.values_transmitted, 3);
}

TEST(SimulatorTest, FailureInjectionChargesReroutes) {
  Topology topo = BuildChain(2);
  FailureModel f;
  f.edge_failure_prob = {0.0, 0.5};
  f.reroute_cost_factor = 2.0;
  NetworkSimulator sim(&topo, EnergyModel{}, f, /*seed=*/7);
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) sim.Unicast(1, 1);
  const double frac =
      static_cast<double>(sim.stats().reroutes) / static_cast<double>(trials);
  EXPECT_NEAR(frac, 0.5, 0.02);
  // Mean observed cost approaches the planner's expectation.
  EXPECT_NEAR(sim.stats().total_energy_mj / trials,
              sim.ExpectedUnicastCost(1, 1), 0.01);
}

TEST(SimulatorTest, NoFailuresByDefault) {
  Topology topo = BuildChain(2);
  NetworkSimulator sim(&topo, EnergyModel{});
  for (int i = 0; i < 100; ++i) sim.Unicast(1, 1);
  EXPECT_EQ(sim.stats().reroutes, 0);
}

TEST(SimulatorTest, ReliableModeReroutesAndCountsThem) {
  Topology topo = BuildChain(2);
  NetworkSimulator sim(&topo, EnergyModel{}, FailureModel::Uniform(1.0, 2.5));
  const double base = sim.energy_model().MessageCost(3);
  const DeliveryResult r = sim.TryUnicast(1, 3);
  EXPECT_TRUE(r.delivered);
  EXPECT_DOUBLE_EQ(r.energy_mj, base * 2.5);
  EXPECT_EQ(sim.stats().reroutes, 1);
  EXPECT_EQ(sim.stats().drops, 0);
  EXPECT_EQ(sim.stats().values_transmitted, 3);
}

TEST(SimulatorTest, LossyTransportRetriesWithBackoffThenDrops) {
  Topology topo = BuildChain(2);
  NetworkSimulator sim(&topo, EnergyModel{}, FailureModel::Uniform(1.0));
  LossyTransport lossy;
  lossy.enabled = true;
  lossy.max_retries = 2;
  lossy.backoff_cost_growth = 1.5;
  sim.set_lossy_transport(lossy);
  const double base = sim.energy_model().MessageCost(4);
  const DeliveryResult r = sim.TryUnicast(1, 4);
  EXPECT_FALSE(r.delivered);
  EXPECT_EQ(r.attempts, 3);
  EXPECT_NEAR(r.energy_mj, base * (1.0 + 1.5 + 2.25), 1e-12);
  EXPECT_EQ(sim.stats().retries, 2);
  EXPECT_EQ(sim.stats().drops, 1);
  EXPECT_EQ(sim.stats().values_lost, 4);
  EXPECT_EQ(sim.stats().values_transmitted, 0);
  EXPECT_EQ(sim.stats().unicast_messages, 3);  // every attempt hit the air
}

TEST(SimulatorTest, LossyTransportDeliversFirstTryOnCleanEdge) {
  Topology topo = BuildChain(2);
  NetworkSimulator sim(&topo, EnergyModel{});  // failure-free network
  LossyTransport lossy;
  lossy.enabled = true;
  sim.set_lossy_transport(lossy);
  const DeliveryResult r = sim.TryUnicast(1, 2);
  EXPECT_TRUE(r.delivered);
  EXPECT_EQ(r.attempts, 1);
  EXPECT_EQ(sim.stats().retries, 0);
  EXPECT_EQ(sim.stats().drops, 0);
  EXPECT_EQ(sim.stats().values_transmitted, 2);
}

TEST(SimulatorTest, DeadEndpointDropsEvenInReliableMode) {
  Topology topo = BuildChain(3);
  FaultInjector injector(3, FaultSchedule{}.KillNode(0, 2));
  injector.AdvanceTo(0);
  NetworkSimulator sim(&topo, EnergyModel{});
  sim.set_fault_injector(&injector);
  EXPECT_FALSE(sim.node_alive(2));
  EXPECT_FALSE(sim.edge_usable(2));
  EXPECT_TRUE(sim.edge_usable(1));
  const DeliveryResult r = sim.TryUnicast(2, 5);
  EXPECT_FALSE(r.delivered);
  EXPECT_GT(r.energy_mj, 0.0);  // the sender still paid for the attempt
  EXPECT_EQ(sim.stats().drops, 1);
  EXPECT_EQ(sim.stats().values_lost, 5);
  EXPECT_EQ(sim.stats().values_transmitted, 0);
}

TEST(SimulatorTest, InjectorOverrideTrumpsBaseProbability) {
  Topology topo = BuildChain(2);
  FaultInjector injector(2, FaultSchedule{}.DegradeEdge(0, 1, 1.0));
  injector.AdvanceTo(0);
  NetworkSimulator sim(&topo, EnergyModel{},
                       FailureModel::Uniform(0.0, 3.0));
  sim.set_fault_injector(&injector);
  const DeliveryResult r = sim.TryUnicast(1, 1);
  EXPECT_TRUE(r.delivered);  // reliable mode re-routes
  EXPECT_EQ(sim.stats().reroutes, 1);
  EXPECT_DOUBLE_EQ(r.energy_mj, sim.energy_model().MessageCost(1) * 3.0);
}

TEST(SimulatorDeathTest, RejectsPartialFailureVectorAtConstruction) {
  Topology topo = BuildChain(4);
  FailureModel partial;
  partial.edge_failure_prob = {0.1, 0.2};  // covers 2 of 4 nodes
  EXPECT_DEATH(NetworkSimulator(&topo, EnergyModel{}, partial),
               "FailureModel covers");
}

TEST(SimulatorDeathTest, RejectsInvalidLossyTransportAtSetTime) {
  Topology topo = BuildChain(2);
  NetworkSimulator sim(&topo, EnergyModel{});
  LossyTransport negative_retries;
  negative_retries.enabled = true;
  negative_retries.max_retries = -1;
  EXPECT_DEATH(sim.set_lossy_transport(negative_retries), "max_retries");
  LossyTransport shrinking_backoff;
  shrinking_backoff.enabled = true;
  shrinking_backoff.backoff_cost_growth = 0.5;
  EXPECT_DEATH(sim.set_lossy_transport(shrinking_backoff),
               "backoff_cost_growth");
}

TEST(SimulatorDeathTest, RejectsInvalidAdversarialTransportAtSetTime) {
  Topology topo = BuildChain(2);
  NetworkSimulator sim(&topo, EnergyModel{});
  AdversarialTransport out_of_range;
  out_of_range.enabled = true;
  out_of_range.corrupt_prob = 1.5;
  EXPECT_DEATH(sim.set_adversarial_transport(out_of_range), "probability");
  AdversarialTransport zero_copies;
  zero_copies.enabled = true;
  zero_copies.duplicate_copies = 0;
  EXPECT_DEATH(sim.set_adversarial_transport(zero_copies),
               "duplicate_copies");
  AdversarialTransport zero_delay;
  zero_delay.enabled = true;
  zero_delay.delay_epochs = 0;
  EXPECT_DEATH(sim.set_adversarial_transport(zero_delay), "delay_epochs");
  // A disabled config is never validated — defaults stay settable.
  sim.set_adversarial_transport(AdversarialTransport{});
}

TEST(SimulatorTest, ScriptedDuplicationChargesTheSenderPerCopy) {
  Topology topo = BuildChain(2);
  FaultInjector injector(2, FaultSchedule{}.DuplicateEdge(0, 1, 1.0, 2));
  injector.AdvanceTo(0);
  NetworkSimulator sim(&topo, EnergyModel{});
  sim.set_fault_injector(&injector);
  const DeliveryResult r = sim.TryUnicast(1, 3);
  EnergyModel e;
  EXPECT_TRUE(r.delivered);
  EXPECT_TRUE(r.arrived_now());
  EXPECT_EQ(r.delivered_copies, 3);
  // A duplicate is a retransmission after a lost ACK: the sender pays
  // the base message cost once per extra copy.
  EXPECT_NEAR(r.energy_mj, e.MessageCost(3) * 3.0, 1e-12);
  EXPECT_EQ(sim.stats().duplicates, 2);
  EXPECT_EQ(sim.stats().unicast_messages, 3);
  EXPECT_EQ(sim.stats().values_transmitted, 3);
  EXPECT_EQ(sim.stats().drops, 0);
}

TEST(SimulatorTest, ScriptedCorruptionAccountsLikeADrop) {
  Topology topo = BuildChain(2);
  FaultInjector injector(2, FaultSchedule{}.CorruptEdge(0, 1, 1.0));
  injector.AdvanceTo(0);
  NetworkSimulator sim(&topo, EnergyModel{});
  sim.set_fault_injector(&injector);
  const DeliveryResult r = sim.TryUnicast(1, 2);
  EXPECT_TRUE(r.delivered);
  EXPECT_TRUE(r.corrupted);
  EXPECT_FALSE(r.arrived_now());
  EXPECT_EQ(r.delivered_copies, 0);
  // The sender still paid for the transmission...
  EXPECT_NEAR(r.energy_mj, EnergyModel{}.MessageCost(2), 1e-12);
  // ...but the readings count as lost: the protocol layer must reject
  // the mangled payload.
  EXPECT_EQ(sim.stats().corrupted, 1);
  EXPECT_EQ(sim.stats().drops, 1);
  EXPECT_EQ(sim.stats().values_lost, 2);
  EXPECT_EQ(sim.stats().values_transmitted, 0);
}

TEST(SimulatorTest, ScriptedDelayDefersDeliveryRelativeToTheEpochClock) {
  Topology topo = BuildChain(2);
  FaultInjector injector(2, FaultSchedule{}.DelayEdge(0, 1, 1.0, 3));
  injector.AdvanceTo(0);
  NetworkSimulator sim(&topo, EnergyModel{});
  sim.set_fault_injector(&injector);
  sim.set_epoch(5);
  const DeliveryResult r = sim.TryUnicast(1, 1);
  EXPECT_TRUE(r.delivered);
  EXPECT_FALSE(r.arrived_now());
  EXPECT_EQ(r.delayed_until_epoch, 8);
  EXPECT_EQ(r.delivered_copies, 0);
  EXPECT_EQ(sim.stats().delayed, 1);
  EXPECT_EQ(sim.stats().values_lost, 1);
  EXPECT_EQ(sim.stats().values_transmitted, 0);
}

TEST(SimulatorTest, CorruptionTakesPrecedenceOverDelayAndDuplication) {
  Topology topo = BuildChain(2);
  FaultInjector injector(2, FaultSchedule{}
                                .CorruptEdge(0, 1, 1.0)
                                .DelayEdge(0, 1, 1.0, 2)
                                .DuplicateEdge(0, 1, 1.0, 4));
  injector.AdvanceTo(0);
  NetworkSimulator sim(&topo, EnergyModel{});
  sim.set_fault_injector(&injector);
  const DeliveryResult r = sim.TryUnicast(1, 1);
  EXPECT_TRUE(r.corrupted);
  EXPECT_EQ(r.delayed_until_epoch, -1);
  EXPECT_EQ(r.delivered_copies, 0);
  EXPECT_EQ(sim.stats().duplicates, 0);
  EXPECT_EQ(sim.stats().delayed, 0);
}

TEST(SimulatorTest, ConfigRateDuplicationAppliesWithoutAScript) {
  Topology topo = BuildChain(2);
  NetworkSimulator sim(&topo, EnergyModel{});
  AdversarialTransport adversarial;
  adversarial.enabled = true;
  adversarial.duplicate_prob = 1.0;
  adversarial.duplicate_copies = 1;
  sim.set_adversarial_transport(adversarial);
  const DeliveryResult r = sim.TryUnicast(1, 1);
  EXPECT_EQ(r.delivered_copies, 2);
  EXPECT_EQ(sim.stats().duplicates, 1);
  EXPECT_EQ(sim.stats().unicast_messages, 2);
}

TEST(SimulatorTest, DeadNodeBroadcastIsSuppressedAndFree) {
  Topology topo = BuildChain(3);
  FaultInjector injector(3, FaultSchedule{}.KillNode(0, 1));
  injector.AdvanceTo(0);
  NetworkSimulator sim(&topo, EnergyModel{});
  sim.set_fault_injector(&injector);
  // A dead node cannot key its radio: no charge, no broadcast, one drop.
  EXPECT_DOUBLE_EQ(sim.BroadcastPayload(1, 4), 0.0);
  EXPECT_EQ(sim.stats().broadcast_messages, 0);
  EXPECT_EQ(sim.stats().drops, 1);
  EXPECT_DOUBLE_EQ(sim.stats().total_energy_mj, 0.0);
  // Its live sibling still broadcasts normally.
  EXPECT_GT(sim.BroadcastPayload(2, 0), 0.0);
  EXPECT_EQ(sim.stats().broadcast_messages, 1);
}

}  // namespace
}  // namespace net
}  // namespace prospector
