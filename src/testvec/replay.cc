#include "src/testvec/replay.h"

#include <cmath>
#include <string>
#include <vector>

#include "src/core/executor.h"
#include "src/core/plan.h"
#include "src/core/plan_merge.h"
#include "src/lp/kkt.h"
#include "src/lp/simplex.h"
#include "src/net/fault_injector.h"
#include "src/net/simulator.h"
#include "src/net/topology.h"
#include "src/testvec/chaos.h"
#include "src/testvec/vector_emit.h"

namespace prospector {
namespace testvec {

using util::Json;

namespace {

Status CaseError(const std::string& what) {
  return Status::FailedPrecondition(what);
}

/// Did `st` fail with the status code the vector names? Codes are matched
/// by their ToString() prefix ("InvalidArgument: ..."), so vectors stay
/// readable and no separate code registry is needed.
Status ExpectError(const Status& st, const Json& c) {
  if (st.ok()) return CaseError("expected an error, got OK");
  const Json& code = c.at("error_code");
  if (code.is_string()) {
    const std::string prefix = code.str() + ":";
    if (st.ToString().rfind(prefix, 0) != 0) {
      return CaseError("expected error code " + code.str() + ", got " +
                       st.ToString());
    }
  }
  const Json& substr = c.at("error_substr");
  if (substr.is_string() &&
      st.message().find(substr.str()) == std::string::npos) {
    return CaseError("error message '" + st.message() +
                     "' lacks expected substring '" + substr.str() + "'");
  }
  return Status::OK();
}

Result<std::vector<int>> IntArray(const Json& j, const char* what) {
  if (!j.is_array()) {
    return Status::InvalidArgument(std::string(what) + " is not an array");
  }
  std::vector<int> out;
  out.reserve(j.size());
  for (size_t i = 0; i < j.size(); ++i) {
    if (!j[i].is_number()) {
      return Status::InvalidArgument(std::string(what) +
                                     " holds a non-number");
    }
    out.push_back(j[i].AsInt());
  }
  return out;
}

Result<core::QueryPlan> PlanFromJson(const Json& j,
                                     const net::Topology& topology) {
  if (!j.is_object() || !j.at("k").is_number()) {
    return Status::InvalidArgument("bad plan object");
  }
  const Json* kind = j.Find("kind");
  if (kind != nullptr && kind->is_string() &&
      kind->str() == "node_selection") {
    auto chosen = IntArray(j.at("chosen"), "plan chosen");
    if (!chosen.ok()) return chosen.status();
    std::vector<char> mask(chosen->begin(), chosen->end());
    return core::QueryPlan::NodeSelection(j.at("k").AsInt(), std::move(mask),
                                          topology);
  }
  auto bw = IntArray(j.at("bandwidth"), "plan bandwidth");
  if (!bw.ok()) return bw.status();
  const Json* pc = j.Find("proof_carrying");
  return core::QueryPlan::Bandwidth(
      j.at("k").AsInt(), std::move(*bw),
      pc != nullptr && pc->is_bool() && pc->boolean());
}

std::string AnswerString(const std::vector<core::Reading>& answer) {
  std::string out = "[";
  for (const core::Reading& r : answer) {
    out += "(" + std::to_string(r.node) + "," + std::to_string(r.value) + ")";
  }
  return out + "]";
}

}  // namespace

Json SubplanToJson(const core::Subplan& sp) {
  Json j = Json::Object();
  j.Set("proof_carrying", sp.proof_carrying);
  j.Set("node_selection", sp.node_selection);
  j.Set("chosen", sp.chosen);
  j.Set("k", sp.k);
  j.Set("outgoing_bandwidth", sp.outgoing_bandwidth);
  Json children = Json::Array();
  for (const auto& [child, bw] : sp.child_bandwidth) {
    Json pair = Json::Array();
    pair.Append(child);
    pair.Append(bw);
    children.Append(std::move(pair));
  }
  j.Set("children", std::move(children));
  Json entries = Json::Array();
  for (const core::SubplanQueryEntry& e : sp.query_entries) {
    Json triple = Json::Array();
    triple.Append(e.query_id);
    triple.Append(e.k);
    triple.Append(e.bandwidth);
    entries.Append(std::move(triple));
  }
  j.Set("query_entries", std::move(entries));
  return j;
}

Result<core::Subplan> SubplanFromJson(const Json& j) {
  if (!j.is_object() || !j.at("k").is_number() ||
      !j.at("outgoing_bandwidth").is_number()) {
    return Status::InvalidArgument("bad subplan object");
  }
  core::Subplan sp;
  sp.proof_carrying = j.at("proof_carrying").boolean();
  sp.node_selection = j.at("node_selection").boolean();
  sp.chosen = j.at("chosen").boolean();
  sp.k = j.at("k").AsInt();
  sp.outgoing_bandwidth = j.at("outgoing_bandwidth").AsInt();
  const Json& children = j.at("children");
  if (!children.is_array()) {
    return Status::InvalidArgument("subplan children is not an array");
  }
  for (size_t i = 0; i < children.size(); ++i) {
    const Json& pair = children[i];
    if (!pair.is_array() || pair.size() != 2) {
      return Status::InvalidArgument("bad subplan child entry");
    }
    sp.child_bandwidth.emplace_back(pair[0].AsInt(), pair[1].AsInt());
  }
  const Json& entries = j.at("query_entries");
  if (!entries.is_array()) {
    return Status::InvalidArgument("subplan query_entries is not an array");
  }
  for (size_t i = 0; i < entries.size(); ++i) {
    const Json& triple = entries[i];
    if (!triple.is_array() || triple.size() != 3) {
      return Status::InvalidArgument("bad subplan query entry");
    }
    core::SubplanQueryEntry e;
    e.query_id = triple[0].AsInt();
    e.k = triple[1].AsInt();
    e.bandwidth = triple[2].AsInt();
    sp.query_entries.push_back(e);
  }
  return sp;
}

Status ReplayPlanWireCase(const Json& c) {
  const std::string& kind = c.at("kind").str();
  if (kind == "roundtrip") {
    auto sp = SubplanFromJson(c.at("subplan"));
    if (!sp.ok()) return sp.status();
    auto bytes = core::EncodeSubplan(*sp);
    if (!bytes.ok()) {
      return CaseError("encode failed: " + bytes.status().ToString());
    }
    const std::string hex = BytesToHex(*bytes);
    if (!c.at("wire_hex").is_string() || hex != c.at("wire_hex").str()) {
      return CaseError("encoded bytes " + hex + " != vector wire_hex " +
                       c.at("wire_hex").str());
    }
    const int version = core::SubplanWireVersion(*bytes);
    if (c.at("wire_version").is_number() &&
        version != c.at("wire_version").AsInt()) {
      return CaseError("wire version " + std::to_string(version) +
                       " != vector wire_version " +
                       std::to_string(c.at("wire_version").AsInt()));
    }
    auto decoded = core::DecodeSubplan(*bytes);
    if (!decoded.ok()) {
      return CaseError("decode of own encoding failed: " +
                       decoded.status().ToString());
    }
    if (!(*decoded == *sp)) {
      return CaseError("decode(encode(subplan)) differs from subplan");
    }
    return Status::OK();
  }
  if (kind == "decode_error") {
    auto bytes = HexToBytes(c.at("wire_hex").str());
    if (!bytes.ok()) return bytes.status();
    return ExpectError(core::DecodeSubplan(*bytes).status(), c);
  }
  if (kind == "encode_error") {
    auto sp = SubplanFromJson(c.at("subplan"));
    if (!sp.ok()) return sp.status();
    return ExpectError(core::EncodeSubplan(*sp).status(), c);
  }
  return CaseError("unknown plan_wire case kind '" + kind + "'");
}

Status ReplayLpCase(const Json& c) {
  if (c.at("kind").str() != "solve") {
    return CaseError("unknown lp case kind '" + c.at("kind").str() + "'");
  }
  auto model = ModelFromJson(c.at("model"));
  if (!model.ok()) return model.status();
  auto stored = SolutionFromJson(c.at("solution"));
  if (!stored.ok()) return stored.status();
  const double kkt_tol =
      c.at("kkt_tol").is_number() ? c.at("kkt_tol").number() : 1e-6;
  const double objective_tol = c.at("objective_tol").is_number()
                                   ? c.at("objective_tol").number()
                                   : 1e-7;
  // The stored certificate must hold on its own — the vector is the truth
  // and VerifyKkt checks it without trusting any solver.
  if (stored->status == lp::SolveStatus::kOptimal) {
    if (const Status cert = lp::VerifyKkt(*model, *stored, kkt_tol);
        !cert.ok()) {
      return CaseError("stored KKT certificate is invalid: " +
                       cert.ToString());
    }
  }
  // Every vector is replayed through BOTH engines — the dense tableau
  // oracle and the sparse revised simplex — and each must reproduce the
  // stored status and objective and certify its own optimum. Optima may be
  // non-unique, so primal points are not compared across engines; KKT is
  // the engine-independent proof of optimality.
  for (const lp::SimplexAlgorithm algo :
       {lp::SimplexAlgorithm::kDense, lp::SimplexAlgorithm::kRevised}) {
    lp::SimplexOptions opts;
    opts.algorithm = algo;
    const char* engine =
        algo == lp::SimplexAlgorithm::kDense ? "dense" : "revised";
    auto solved = lp::SimplexSolver(opts).Solve(*model);
    if (!solved.ok()) {
      return CaseError(std::string(engine) + " simplex rejected the model: " +
                       solved.status().ToString());
    }
    if (solved->status != stored->status) {
      return CaseError(std::string(engine) + " solver status " +
                       lp::ToString(solved->status) + " != vector status " +
                       lp::ToString(stored->status));
    }
    if (stored->status != lp::SolveStatus::kOptimal) continue;
    if (std::abs(solved->objective - stored->objective) > objective_tol) {
      return CaseError(std::string(engine) + " solver objective " +
                       std::to_string(solved->objective) +
                       " != vector objective " +
                       std::to_string(stored->objective));
    }
    if (const Status cert = lp::VerifyKkt(*model, *solved, kkt_tol);
        !cert.ok()) {
      return CaseError(std::string(engine) + " fresh solve fails KKT: " +
                       cert.ToString());
    }
  }
  return Status::OK();
}

Status ReplaySuperplanCase(const Json& c) {
  if (c.at("kind").str() != "merge") {
    return CaseError("unknown superplan case kind '" + c.at("kind").str() +
                     "'");
  }
  auto parents = IntArray(c.at("parents"), "parents");
  if (!parents.ok()) return parents.status();
  auto topo = net::Topology::FromParents(*parents);
  if (!topo.ok()) return topo.status();
  const Json& jplans = c.at("plans");
  if (!jplans.is_array() || jplans.size() == 0) {
    return CaseError("merge case needs a non-empty plans array");
  }
  std::vector<core::QueryPlan> plans;
  for (size_t i = 0; i < jplans.size(); ++i) {
    auto plan = PlanFromJson(jplans[i], *topo);
    if (!plan.ok()) return plan.status();
    plans.push_back(std::move(*plan));
  }
  std::vector<int> query_ids;
  if (c.contains("query_ids")) {
    auto ids = IntArray(c.at("query_ids"), "query_ids");
    if (!ids.ok()) return ids.status();
    query_ids = std::move(*ids);
  }
  const core::Superplan sp = core::MergePlans(plans, *topo, query_ids);
  if (c.at("merged_k").is_number() &&
      sp.merged.k != c.at("merged_k").AsInt()) {
    return CaseError("merged k " + std::to_string(sp.merged.k) +
                     " != vector merged_k");
  }
  auto merged_bw = IntArray(c.at("merged_bandwidth"), "merged_bandwidth");
  if (!merged_bw.ok()) return merged_bw.status();
  if (sp.merged.bandwidth != *merged_bw) {
    return CaseError("merged bandwidth differs from vector");
  }
  // Wire round trip of each pinned node subplan.
  const Json& subplans = c.at("subplans");
  for (size_t i = 0; subplans.is_array() && i < subplans.size(); ++i) {
    const Json& entry = subplans[i];
    const int node = entry.at("node").AsInt();
    const core::Subplan node_sp = core::MergedSubplanFor(sp, *topo, node);
    auto bytes = core::EncodeSubplan(node_sp);
    if (!bytes.ok()) {
      return CaseError("node " + std::to_string(node) +
                       " subplan does not encode: " +
                       bytes.status().ToString());
    }
    const std::string hex = BytesToHex(*bytes);
    if (hex != entry.at("wire_hex").str()) {
      return CaseError("node " + std::to_string(node) + " wire bytes " + hex +
                       " != vector " + entry.at("wire_hex").str());
    }
    if (entry.at("wire_version").is_number() &&
        core::SubplanWireVersion(*bytes) != entry.at("wire_version").AsInt()) {
      return CaseError("node " + std::to_string(node) +
                       " has unexpected wire version");
    }
    auto decoded = core::DecodeSubplan(*bytes);
    if (!decoded.ok() || !(*decoded == node_sp)) {
      return CaseError("node " + std::to_string(node) +
                       " subplan does not round-trip");
    }
  }
  // Demux round trip: the merged execution's per-query answers must equal
  // both the vector and a standalone execution of each constituent plan.
  const Json& jtruth = c.at("truth");
  if (jtruth.is_array()) {
    std::vector<double> truth;
    for (size_t i = 0; i < jtruth.size(); ++i) {
      truth.push_back(jtruth[i].number());
    }
    net::NetworkSimulator sim(&*topo, net::EnergyModel{});
    const core::SuperplanResult result =
        core::SuperplanExecutor::Execute(sp, truth, &sim);
    if (result.degraded) {
      return CaseError("loss-free merged execution reported degradation");
    }
    const Json& expected = c.at("per_query_answers");
    if (!expected.is_array() || expected.size() != result.per_query.size()) {
      return CaseError("per_query_answers shape mismatch");
    }
    for (size_t q = 0; q < expected.size(); ++q) {
      std::vector<core::Reading> want;
      for (size_t i = 0; i < expected[q].size(); ++i) {
        const Json& pair = expected[q][i];
        if (!pair.is_array() || pair.size() != 2) {
          return CaseError("bad per_query_answers entry");
        }
        want.push_back(core::Reading{pair[0].AsInt(), pair[1].number()});
      }
      if (result.per_query[q].answer != want) {
        return CaseError("query " + std::to_string(q) + " demuxed answer " +
                         AnswerString(result.per_query[q].answer) +
                         " != vector " + AnswerString(want));
      }
      net::NetworkSimulator standalone_sim(&*topo, net::EnergyModel{});
      const core::ExecutionResult standalone = core::CollectionExecutor::Execute(
          sp.plans[q], truth, &standalone_sim);
      if (standalone.answer != result.per_query[q].answer) {
        return CaseError("query " + std::to_string(q) +
                         " demuxed answer differs from standalone execution");
      }
    }
    // Attribution must reconcile with the audited total.
    double attributed = 0.0;
    for (const double mj : result.attributed_mj) attributed += mj;
    if (std::abs(attributed - result.total_energy_mj()) > 1e-6) {
      return CaseError("energy attribution does not sum to the total");
    }
  }
  return Status::OK();
}

Status ReplayFaultScheduleCase(const Json& c) {
  const std::string& kind = c.at("kind").str();
  if (kind == "chaos_replay") {
    // A persisted chaos artifact: re-run the config and fail if any
    // invariant violation reproduces — one-command repro of a CI soak
    // failure.
    auto config = ChaosConfigFromJson(c.at("config"));
    if (!config.ok()) return config.status();
    const ChaosReport report = RunChaos(*config);
    if (c.contains("schedule")) {
      // Integrity: the schedule the config regenerates must match the
      // recorded one, or the artifact no longer reproduces what it saw.
      if (FaultScheduleToJson(report.schedule).Dump(-1) !=
          c.at("schedule").Dump(-1)) {
        return CaseError(
            "regenerated schedule differs from the recorded one "
            "(schedule generator drifted)");
      }
    }
#ifndef PROSPECTOR_OBS_DISABLED
    if (c.contains("flight_recorder")) {
      // The flight timeline is deterministic (serial recording, no
      // wall-clock values), so a replay must reproduce it byte-for-byte.
      // Skipped when the artifact predates the recorder or was written
      // by an obs-disabled build.
      const std::string got = obs::FlightTimelineJson(report.flight).Dump(-1);
      const std::string want = c.at("flight_recorder").Dump(-1);
      if (got != want) {
        return CaseError(
            "replayed flight-recorder timeline differs from the recorded "
            "one (recorder instrumentation drifted)");
      }
    }
#endif
    if (!report.ok()) {
      std::string all = "chaos run violated invariants:";
      for (const std::string& v : report.violations) all += "\n    " + v;
      return CaseError(all);
    }
    return Status::OK();
  }
  if (kind != "timeline") {
    return CaseError("unknown fault_schedule case kind '" + kind + "'");
  }

  // A scripted timeline: drive a FaultInjector through advance/remap
  // steps and compare the materialized state against the stored golden
  // snapshots.
  auto schedule = FaultScheduleFromJson(c.at("schedule"));
  if (!schedule.ok()) return schedule.status();
  if (!c.at("num_nodes").is_number()) {
    return CaseError("timeline case lacks num_nodes");
  }
  net::FaultInjector injector(c.at("num_nodes").AsInt(), *schedule);
  const Json& steps = c.at("steps");
  if (!steps.is_array() || steps.size() == 0) {
    return CaseError("timeline case lacks steps");
  }
  for (size_t i = 0; i < steps.size(); ++i) {
    const Json& step = steps[i];
    const std::string tag = "step " + std::to_string(i);
    if (step.contains("remap")) {
      auto new_id = IntArray(step.at("remap"), "remap");
      if (!new_id.ok()) return new_id.status();
      injector.Remap(*new_id, step.at("num_nodes").AsInt());
    } else if (step.contains("advance_to")) {
      injector.AdvanceTo(step.at("advance_to").AsInt());
    } else {
      return CaseError(tag + ": step has neither advance_to nor remap");
    }
    const std::string got = InjectorStateToJson(injector).Dump(-1);
    const std::string want = step.at("state").Dump(-1);
    if (got != want) {
      return CaseError(tag + ": injector state " + got +
                       " != golden state " + want);
    }
  }
  return Status::OK();
}

Status ReplayVectorFile(const std::string& path, ReplayStats* stats) {
  auto doc = LoadVectorFile(path);
  if (!doc.ok()) return doc.status();
  const std::string& module = doc->at("module").str();
  const Json& cases = doc->at("cases");
  for (size_t i = 0; i < cases.size(); ++i) {
    const Json& c = cases[i];
    Status st;
    if (module == "plan_wire") {
      st = ReplayPlanWireCase(c);
    } else if (module == "lp") {
      st = ReplayLpCase(c);
    } else if (module == "superplan") {
      st = ReplaySuperplanCase(c);
    } else if (module == "fault_schedule") {
      st = ReplayFaultScheduleCase(c);
    } else {
      st = CaseError("unknown module '" + module + "'");
    }
    if (!st.ok()) {
      return Status(st.code(), path + ": case '" + c.at("name").str() +
                                   "': " + st.message());
    }
    if (stats != nullptr) ++stats->cases;
  }
  if (stats != nullptr) ++stats->files;
  return Status::OK();
}

Status ReplayCorpus(const std::string& dir, ReplayStats* stats) {
  auto files = ListVectorFiles(dir);
  if (!files.ok()) return files.status();
  for (const std::string& path : *files) {
    PROSPECTOR_RETURN_IF_ERROR(ReplayVectorFile(path, stats));
  }
  return Status::OK();
}

}  // namespace testvec
}  // namespace prospector
