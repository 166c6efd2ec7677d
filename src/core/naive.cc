#include "src/core/naive.h"

#include <algorithm>
#include <optional>

namespace prospector {
namespace core {

QueryPlan MakeNaiveKPlan(const net::Topology& topology, int k) {
  std::vector<int> bw(topology.num_nodes(), 0);
  for (int u = 0; u < topology.num_nodes(); ++u) {
    if (u == topology.root()) continue;
    bw[u] = std::min(k, topology.subtree_size(u));
  }
  QueryPlan plan = QueryPlan::Bandwidth(k, std::move(bw));
  plan.Normalize(topology);
  return plan;
}

namespace {

// Per-node streaming state for the NAIVE-1 pipeline.
struct NodeState {
  bool initialized = false;
  std::vector<Reading> heap;           // kept sorted best-first (small)
  std::vector<char> child_exhausted;   // parallel to topology children
};

class Naive1Engine {
 public:
  Naive1Engine(const std::vector<double>& truth, net::NetworkSimulator* sim)
      : truth_(truth), sim_(sim), topo_(sim->topology()) {
    state_.resize(topo_.num_nodes());
  }

  // Next-largest value of the subtree rooted at u, in descending order;
  // nullopt once exhausted. Charges all request/response messages below u
  // (the messages on u's own edge are charged by the caller).
  std::optional<Reading> Pop(int u) {
    NodeState& st = state_[u];
    if (!st.initialized) {
      st.initialized = true;
      st.child_exhausted.assign(topo_.children(u).size(), 0);
      if (u != topo_.root()) energy_ += sim_->ChargeAcquisition(u);
      st.heap.push_back({u, truth_[u]});
      for (size_t ci = 0; ci < topo_.children(u).size(); ++ci) {
        Refill(u, ci);
      }
      std::sort(st.heap.begin(), st.heap.end(), ReadingRanksHigher);
    }
    if (st.heap.empty()) return std::nullopt;
    Reading top = st.heap.front();
    st.heap.erase(st.heap.begin());
    // Refill from the child that supplied the popped value before the next
    // request (the paper's "ensure the heap has a value from each child").
    for (size_t ci = 0; ci < topo_.children(u).size(); ++ci) {
      const int c = topo_.children(u)[ci];
      if (!st.child_exhausted[ci] && topo_.IsAncestorOf(c, top.node)) {
        Refill(u, ci);
        std::sort(st.heap.begin(), st.heap.end(), ReadingRanksHigher);
        break;
      }
    }
    return top;
  }

  double energy() const { return energy_; }
  int messages() const { return messages_; }

 private:
  // Requests one value from child index ci of node u and pushes it into
  // u's heap; marks the child exhausted on an empty response.
  void Refill(int u, size_t ci) {
    NodeState& st = state_[u];
    const int c = topo_.children(u)[ci];
    // Request: empty-body unicast down the edge.
    energy_ += sim_->Unicast(c, 0);
    ++messages_;
    std::optional<Reading> r = Pop(c);
    // Response: one value, or an empty exhausted-reply.
    energy_ += sim_->Unicast(c, r.has_value() ? 1 : 0);
    ++messages_;
    if (r.has_value()) {
      st.heap.push_back(*r);
    } else {
      st.child_exhausted[ci] = 1;
    }
  }

  const std::vector<double>& truth_;
  net::NetworkSimulator* sim_;
  const net::Topology& topo_;
  std::vector<NodeState> state_;
  double energy_ = 0.0;
  int messages_ = 0;
};

}  // namespace

Naive1Result Naive1Executor::Execute(const std::vector<double>& truth, int k,
                                     net::NetworkSimulator* sim) {
  Naive1Engine engine(truth, sim);
  Naive1Result result;
  const int root = sim->topology().root();
  for (int i = 0; i < k; ++i) {
    std::optional<Reading> r = engine.Pop(root);
    if (!r.has_value()) break;
    result.answer.push_back(*r);
  }
  result.energy_mj = engine.energy();
  result.messages = engine.messages();
  return result;
}

}  // namespace core
}  // namespace prospector
