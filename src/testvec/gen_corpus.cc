// Generates the golden test-vector corpus under spec/test-vectors/.
//
//   testvec_gen [output-dir]      (default: spec/test-vectors)
//
// The checked-in vectors are the single source of truth for the wire
// format, LP optima, and superplan merge/demux: this tool exists to
// (re)generate them when the format is *deliberately* revised, never as
// part of a build. Every generated case is replayed through the live
// harness before anything is written, so an inconsistent corpus cannot be
// produced; the diff against the previous corpus is the reviewable
// artifact of a format change.

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "src/core/executor.h"
#include "src/core/plan_merge.h"
#include "src/core/plan_wire.h"
#include "src/lp/kkt.h"
#include "src/lp/simplex.h"
#include "src/net/fault_injector.h"
#include "src/net/simulator.h"
#include "src/net/topology.h"
#include "src/testvec/chaos.h"
#include "src/testvec/replay.h"
#include "src/testvec/testvec.h"
#include "src/testvec/vector_emit.h"

namespace prospector {
namespace testvec {

using util::Json;

namespace {

using core::Subplan;
using core::SubplanQueryEntry;

void Die(const std::string& msg) {
  std::fprintf(stderr, "testvec_gen: %s\n", msg.c_str());
  std::exit(1);
}

// --------------------------------------------------------------------------
// plan_wire vectors

/// Builds a roundtrip case from a subplan, encoding with the live encoder
/// (the point of a golden vector: freeze today's bytes against tomorrow's
/// edits).
Json RoundtripCase(const std::string& name, const Subplan& sp) {
  auto bytes = core::EncodeSubplan(sp);
  if (!bytes.ok()) Die(name + ": " + bytes.status().ToString());
  Json c = Json::Object();
  c.Set("name", name);
  c.Set("kind", "roundtrip");
  c.Set("subplan", SubplanToJson(sp));
  c.Set("wire_hex", BytesToHex(*bytes));
  c.Set("wire_version", core::SubplanWireVersion(*bytes));
  return c;
}

Json DecodeErrorCase(const std::string& name, const std::vector<uint8_t>& bytes,
                     const std::string& substr) {
  Json c = Json::Object();
  c.Set("name", name);
  c.Set("kind", "decode_error");
  c.Set("wire_hex", BytesToHex(bytes));
  c.Set("error_code", "InvalidArgument");
  if (!substr.empty()) c.Set("error_substr", substr);
  return c;
}

Json EncodeErrorCase(const std::string& name, const Subplan& sp) {
  Json c = Json::Object();
  c.Set("name", name);
  c.Set("kind", "encode_error");
  c.Set("subplan", SubplanToJson(sp));
  c.Set("error_code", "InvalidArgument");
  return c;
}

Json PlanWireV0File() {
  Json doc = Json::Object();
  doc.Set("module", "plan_wire");
  doc.Set("description",
          "Version-0 (legacy untagged) subplan encodings: byte-exact "
          "round trips incl. varint child-id boundaries.");
  Json cases = Json::Array();

  cases.Append(RoundtripCase("empty_default", Subplan{}));

  {
    Subplan sp;
    sp.proof_carrying = true;
    sp.k = 7;
    sp.outgoing_bandwidth = 3;
    sp.child_bandwidth = {{5, 2}};
    cases.Append(RoundtripCase("legacy_proof_carrying_one_child", sp));
  }
  {
    Subplan sp;
    sp.node_selection = true;
    sp.chosen = true;
    sp.k = 2;
    sp.outgoing_bandwidth = 1;
    cases.Append(RoundtripCase("node_selection_chosen_leaf", sp));
  }
  {
    Subplan sp;
    sp.k = 4;
    sp.outgoing_bandwidth = 3;
    sp.child_bandwidth = {{2, 2}, {3, 1}};
    cases.Append(RoundtripCase("interior_node_two_children", sp));
  }
  {
    Subplan sp;
    sp.k = 5;
    sp.child_bandwidth = {{127, 1}, {128, 2}, {300, 3}};
    cases.Append(RoundtripCase("varint_width_boundary_child_ids", sp));
  }
  {
    Subplan sp;
    sp.k = 1;
    sp.child_bandwidth = {{core::kSubplanMaxFieldValue, 9}};
    cases.Append(RoundtripCase("five_byte_varint_child_id_int32_max", sp));
  }
  {
    Subplan sp;
    sp.proof_carrying = true;
    sp.node_selection = true;
    sp.chosen = true;
    sp.k = 255;
    sp.outgoing_bandwidth = 255;
    sp.child_bandwidth = {{1, 255}};
    cases.Append(RoundtripCase("all_fields_at_uint8_ceiling", sp));
  }
  {
    // Exactly 255 children: the largest fan-out the byte-counted layout
    // can spell; one more child must flip the encoding to version 2.
    Subplan sp;
    sp.k = 10;
    sp.outgoing_bandwidth = 10;
    for (int c = 1; c <= 255; ++c) sp.child_bandwidth.emplace_back(c, 1);
    cases.Append(RoundtripCase("boundary_255_children_still_v0", sp));
  }

  doc.Set("cases", std::move(cases));
  return doc;
}

Json PlanWireV1File() {
  Json doc = Json::Object();
  doc.Set("module", "plan_wire");
  doc.Set("description",
          "Version-1 (0xC1-tagged) superplan subplans with per-query demux "
          "entries.");
  Json cases = Json::Array();

  {
    Subplan sp;
    sp.k = 4;
    sp.outgoing_bandwidth = 2;
    sp.query_entries = {{0, 4, 2}};
    cases.Append(RoundtripCase("single_query_entry", sp));
  }
  {
    Subplan sp;
    sp.proof_carrying = true;
    sp.k = 17;
    sp.outgoing_bandwidth = 9;
    sp.child_bandwidth = {{5, 3}, {200, 1}};
    sp.query_entries = {{0, 5, 2}, {3, 10, 9}, {300, 1, 1}};
    cases.Append(RoundtripCase("three_queries_sparse_ids", sp));
  }
  {
    Subplan sp;
    sp.k = 255;
    sp.outgoing_bandwidth = 255;
    sp.query_entries = {{core::kSubplanMaxFieldValue, 255, 255}};
    cases.Append(RoundtripCase("entry_values_at_uint8_ceiling", sp));
  }

  doc.Set("cases", std::move(cases));
  return doc;
}

Json PlanWireV2File() {
  Json doc = Json::Object();
  doc.Set("module", "plan_wire");
  doc.Set("description",
          "Version-2 (0xC2-tagged) varint-widened subplans. The first two "
          "cases pin the former encode bugs: >255 children used to emit a "
          "self-rejecting blob (count byte clamped, entries not), and "
          "k/bandwidth > 255 were silently rewritten to 255 on the wire.");
  Json cases = Json::Array();

  {
    Subplan sp;
    sp.k = 10;
    sp.outgoing_bandwidth = 10;
    for (int c = 1; c <= 300; ++c) sp.child_bandwidth.emplace_back(c, 1);
    cases.Append(RoundtripCase("bug_count_truncation_300_children", sp));
  }
  {
    Subplan sp;
    sp.k = 1000;
    sp.outgoing_bandwidth = 400;
    sp.child_bandwidth = {{1, 400}};
    cases.Append(RoundtripCase("bug_silent_clamp_k_1000_bw_400", sp));
  }
  {
    Subplan sp;
    sp.k = 256;
    cases.Append(RoundtripCase("k_just_past_uint8", sp));
  }
  {
    Subplan sp;
    sp.k = 3;
    sp.query_entries = {{7, 300, 280}};
    cases.Append(RoundtripCase("query_entry_overflow_widens_all", sp));
  }
  {
    Subplan sp;
    sp.proof_carrying = true;
    sp.k = core::kSubplanMaxFieldValue;
    sp.outgoing_bandwidth = core::kSubplanMaxFieldValue;
    sp.child_bandwidth = {{core::kSubplanMaxFieldValue,
                           core::kSubplanMaxFieldValue}};
    sp.query_entries = {{core::kSubplanMaxFieldValue,
                         core::kSubplanMaxFieldValue,
                         core::kSubplanMaxFieldValue}};
    cases.Append(RoundtripCase("all_fields_int32_max", sp));
  }

  doc.Set("cases", std::move(cases));
  return doc;
}

Json PlanWireErrorFile() {
  Json doc = Json::Object();
  doc.Set("module", "plan_wire");
  doc.Set("description",
          "Hostile and malformed inputs DecodeSubplan must reject, plus "
          "subplans EncodeSubplan must refuse. Includes systematic "
          "truncation sweeps of reference v1/v2 blobs.");
  Json cases = Json::Array();

  cases.Append(DecodeErrorCase("empty_input", {}, "too short"));
  cases.Append(DecodeErrorCase("three_byte_header", {0, 1, 2}, "too short"));
  cases.Append(
      DecodeErrorCase("missing_child_entry", {0, 1, 2, 1}, "child id"));
  cases.Append(DecodeErrorCase("truncated_child_varint",
                               {0, 1, 2, 1, 0x85}, "child id"));
  cases.Append(DecodeErrorCase("overlong_varint_child_id",
                               {0, 1, 2, 1, 0x85, 0x00, 3}, "child id"));
  cases.Append(DecodeErrorCase(
      "five_byte_varint_past_32_bits",
      {0, 1, 2, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0x10, 3}, "child id"));
  cases.Append(DecodeErrorCase("varint_past_int32_max",
                               {0, 1, 2, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 3},
                               "out of range"));
  cases.Append(
      DecodeErrorCase("trailing_bytes", {0, 1, 2, 0, 7}, "trailing"));
  cases.Append(
      DecodeErrorCase("reserved_flag_bits", {0x08, 1, 2, 0}, "flag"));
  cases.Append(DecodeErrorCase("hostile_count_no_entries",
                               {0, 1, 2, 0xFF}, "child id"));
  cases.Append(DecodeErrorCase("version_tag_alone", {0xC1}, "too short"));
  cases.Append(DecodeErrorCase("v1_with_v0_length_body",
                               {0xC1, 0x01, 7, 3, 0}, "query count"));
  cases.Append(DecodeErrorCase("v1_zero_query_entries_non_canonical",
                               {0xC1, 0x01, 7, 3, 0, 0}, "non-canonical"));
  cases.Append(DecodeErrorCase("v2_fits_byte_layout_non_canonical",
                               {0xC2, 0x01, 7, 3, 0, 0}, "non-canonical"));
  cases.Append(DecodeErrorCase("unknown_future_version",
                               {0xC3, 0x01, 7, 3, 0, 0}, "unsupported"));
  cases.Append(DecodeErrorCase("max_version_tag",
                               {0xFF, 0x01, 7, 3, 0, 0}, "unsupported"));

  // Truncation sweep over a reference v1 blob (every cut must fail).
  {
    Subplan sp;
    sp.k = 4;
    sp.outgoing_bandwidth = 2;
    sp.child_bandwidth = {{1, 2}};
    sp.query_entries = {{1, 4, 2}, {300, 3, 1}};
    auto bytes = core::EncodeSubplan(sp);
    if (!bytes.ok()) Die("reference v1 blob does not encode");
    if (core::SubplanWireVersion(*bytes) != 1) Die("reference blob not v1");
    for (size_t cut = 0; cut < bytes->size(); ++cut) {
      cases.Append(DecodeErrorCase(
          "trunc_v1_at_" + std::to_string(cut),
          {bytes->begin(), bytes->begin() + cut}, ""));
    }
  }
  // Truncation sweep over a reference v2 blob.
  {
    Subplan sp;
    sp.k = 1000;
    sp.outgoing_bandwidth = 300;
    sp.child_bandwidth = {{5, 256}, {600, 2}};
    sp.query_entries = {{12, 1000, 700}};
    auto bytes = core::EncodeSubplan(sp);
    if (!bytes.ok()) Die("reference v2 blob does not encode");
    if (core::SubplanWireVersion(*bytes) != 2) Die("reference blob not v2");
    for (size_t cut = 0; cut < bytes->size(); ++cut) {
      cases.Append(DecodeErrorCase(
          "trunc_v2_at_" + std::to_string(cut),
          {bytes->begin(), bytes->begin() + cut}, ""));
    }
  }

  // Encode refusals: negative fields must never be truncated onto the wire.
  {
    Subplan sp;
    sp.k = -1;
    cases.Append(EncodeErrorCase("encode_negative_k", sp));
  }
  {
    Subplan sp;
    sp.k = 3;
    sp.child_bandwidth = {{-2, 1}};
    cases.Append(EncodeErrorCase("encode_negative_child_id", sp));
  }
  {
    Subplan sp;
    sp.k = 3;
    sp.child_bandwidth = {{2, -1}};
    cases.Append(EncodeErrorCase("encode_negative_child_bandwidth", sp));
  }
  {
    Subplan sp;
    sp.k = 3;
    sp.query_entries = {{1, -4, 0}};
    cases.Append(EncodeErrorCase("encode_negative_query_k", sp));
  }

  doc.Set("cases", std::move(cases));
  return doc;
}

// --------------------------------------------------------------------------
// LP vectors

Json LpCase(const std::string& name, const lp::Model& model,
            const std::string& note = "") {
  auto solved = lp::SimplexSolver().Solve(model);
  if (!solved.ok()) Die(name + ": " + solved.status().ToString());
  if (solved->status == lp::SolveStatus::kOptimal) {
    if (const Status cert = lp::VerifyKkt(model, *solved); !cert.ok()) {
      Die(name + ": generated optimum fails KKT: " + cert.ToString());
    }
  }
  // Both engines must already agree at generation time; the replay
  // harness re-checks this on every run, but a vector that only one
  // engine reproduces should never be written in the first place.
  for (const lp::SimplexAlgorithm algo :
       {lp::SimplexAlgorithm::kDense, lp::SimplexAlgorithm::kRevised}) {
    lp::SimplexOptions opts;
    opts.algorithm = algo;
    auto check = lp::SimplexSolver(opts).Solve(model);
    if (!check.ok()) Die(name + ": " + check.status().ToString());
    if (check->status != solved->status) {
      Die(name + ": engine status disagreement");
    }
    if (solved->status == lp::SolveStatus::kOptimal &&
        std::abs(check->objective - solved->objective) >
            1e-7 * (1.0 + std::abs(solved->objective))) {
      Die(name + ": engine objective disagreement");
    }
  }
  Json c = Json::Object();
  c.Set("name", name);
  c.Set("kind", "solve");
  if (!note.empty()) c.Set("note", note);
  c.Set("model", ModelToJson(model));
  c.Set("solution", SolutionToJson(*solved));
  return c;
}

Json LpFile() {
  Json doc = Json::Object();
  doc.Set("module", "lp");
  doc.Set("description",
          "Simplex optima with KKT certificates (duals + reduced costs). "
          "The stored certificate must verify against the model on its "
          "own, and a fresh solve by each engine (dense tableau and "
          "sparse revised simplex) must reproduce status and objective "
          "and certify its own optimum.");
  Json cases = Json::Array();

  {
    lp::Model m;
    m.SetSense(lp::Sense::kMaximize);
    const int x = m.AddVariable(0, lp::kInfinity, 3, "x");
    const int y = m.AddVariable(0, lp::kInfinity, 5, "y");
    m.AddRow(lp::RowType::kLessEqual, 4, {{x, 1}}, "cap_x");
    m.AddRow(lp::RowType::kLessEqual, 12, {{y, 2}}, "cap_y");
    m.AddRow(lp::RowType::kLessEqual, 18, {{x, 3}, {y, 2}}, "shared");
    cases.Append(LpCase("textbook_max_two_vars", m,
                        "optimum 36 at (2, 6)"));
  }
  {
    lp::Model m;
    m.SetSense(lp::Sense::kMinimize);
    const int x = m.AddVariable(0, 8, 2, "x");
    const int y = m.AddVariable(0, lp::kInfinity, 3, "y");
    m.AddRow(lp::RowType::kGreaterEqual, 10, {{x, 1}, {y, 1}}, "demand");
    cases.Append(LpCase("min_cost_cover_ge_row", m,
                        "cheap variable saturates its bound first"));
  }
  {
    // The planner shape: per-edge value variables with subtree-size upper
    // bounds maximizing expected hits under one shared bandwidth budget.
    lp::Model m;
    m.SetSense(lp::Sense::kMaximize);
    const double gain[] = {5, 4, 3, 2};
    std::vector<lp::Term> budget;
    for (int e = 0; e < 4; ++e) {
      const int v = m.AddVariable(0, 2, gain[e], "edge" + std::to_string(e));
      budget.push_back({v, 1});
    }
    m.AddRow(lp::RowType::kLessEqual, 5, budget, "bandwidth_budget");
    cases.Append(LpCase("bandwidth_budget_bounded_vars", m,
                        "LP+NF shape: bounded edge values, one budget"));
  }
  {
    lp::Model m;
    m.SetSense(lp::Sense::kMinimize);
    const int x = m.AddVariable(0, 3, 1, "x");
    const int y = m.AddVariable(0, lp::kInfinity, 2, "y");
    m.AddRow(lp::RowType::kEqual, 5, {{x, 1}, {y, 1}}, "exact");
    cases.Append(LpCase("equality_row", m));
  }
  {
    lp::Model m;
    m.SetSense(lp::Sense::kMinimize);
    const int x = m.AddVariable(-lp::kInfinity, lp::kInfinity, 1, "x");
    m.AddRow(lp::RowType::kGreaterEqual, -5, {{x, 1}}, "floor");
    cases.Append(LpCase("free_variable_negative_optimum", m));
  }
  {
    lp::Model m;
    m.SetSense(lp::Sense::kMaximize);
    const int x = m.AddVariable(0, 1, 1, "x");
    const int y = m.AddVariable(0, 1, 1, "y");
    m.AddRow(lp::RowType::kLessEqual, 1, {{x, 1}, {y, 1}}, "tie");
    cases.Append(LpCase("degenerate_multiple_optima", m,
                        "objective pinned; primal point may vary"));
  }
  {
    lp::Model m;
    m.SetSense(lp::Sense::kMinimize);
    const int x = m.AddVariable(0, lp::kInfinity, 1, "x");
    m.AddRow(lp::RowType::kLessEqual, -1, {{x, 1}}, "impossible");
    cases.Append(LpCase("infeasible_negative_cap", m));
  }
  {
    lp::Model m;
    m.SetSense(lp::Sense::kMaximize);
    m.AddVariable(0, lp::kInfinity, 1, "x");
    cases.Append(LpCase("unbounded_ray", m));
  }
  {
    // Beale's cycling example: every vertex of the first two rows is
    // degenerate and Dantzig pricing alone cycles. Both engines must
    // escape via their Bland fallback and land on -0.05.
    lp::Model m;
    const int x1 = m.AddVariable(0, lp::kInfinity, -0.75, "x1");
    const int x2 = m.AddVariable(0, lp::kInfinity, 150, "x2");
    const int x3 = m.AddVariable(0, lp::kInfinity, -0.02, "x3");
    const int x4 = m.AddVariable(0, lp::kInfinity, 6, "x4");
    m.AddRow(lp::RowType::kLessEqual, 0,
             {{x1, 0.25}, {x2, -60}, {x3, -0.04}, {x4, 9}}, "degen_a");
    m.AddRow(lp::RowType::kLessEqual, 0,
             {{x1, 0.5}, {x2, -90}, {x3, -0.02}, {x4, 3}}, "degen_b");
    m.AddRow(lp::RowType::kLessEqual, 1, {{x3, 1}}, "cap");
    cases.Append(LpCase("degenerate_cycling_beale", m,
                        "anti-cycling required; optimum -0.05"));
  }
  {
    // Sparse planner-shaped LP, the shape the revised engine serves: 48
    // bounded variables, 62 three-term coupling rows, one dense budget
    // row. Coefficients are small deterministic integers.
    lp::Model m;
    m.SetSense(lp::Sense::kMaximize);
    std::vector<int> xs;
    std::vector<lp::Term> budget;
    for (int j = 0; j < 48; ++j) {
      const double gain = 1 + (j * 7) % 13;
      const double ub = 1 + j % 3;
      xs.push_back(m.AddVariable(0, ub, gain, "x" + std::to_string(j)));
      budget.push_back({xs.back(), 1.0});
    }
    for (int r = 0; r < 62; ++r) {
      std::vector<lp::Term> terms;
      for (int t = 0; t < 3; ++t) {
        terms.push_back({xs[(r * 3 + t * 5) % 48], 1.0 + (r + t) % 4});
      }
      m.AddRow(lp::RowType::kLessEqual, 4 + r % 5, terms,
               "couple" + std::to_string(r));
    }
    m.AddRow(lp::RowType::kLessEqual, 30, budget, "budget");
    cases.Append(LpCase("sparse_revised_dispatch", m,
                        "planner-shaped sparse LP"));
  }

  doc.Set("cases", std::move(cases));
  return doc;
}

// --------------------------------------------------------------------------
// Superplan merge/demux vectors

/// Generator-side twin of the replay harness's plan parser (kept trivial
/// on purpose: build the JSON first, derive the QueryPlan from it, so the
/// vector and the generated expectations can never disagree).
core::QueryPlan PlanFromJsonForGen(const Json& pj, const net::Topology& topo);

Json MergeCase(const std::string& name, const std::vector<int>& parents,
               std::vector<Json> plan_jsons, const std::vector<int>& query_ids,
               const std::vector<double>& truth,
               const std::vector<int>& pin_nodes) {
  auto topo = net::Topology::FromParents(parents);
  if (!topo.ok()) Die(name + ": " + topo.status().ToString());

  Json c = Json::Object();
  c.Set("name", name);
  c.Set("kind", "merge");
  Json jparents = Json::Array();
  for (const int p : parents) jparents.Append(p);
  c.Set("parents", std::move(jparents));
  Json jplans = Json::Array();
  std::vector<core::QueryPlan> plans;
  for (Json& pj : plan_jsons) {
    auto plan = PlanFromJsonForGen(pj, *topo);
    plans.push_back(plan);
    jplans.Append(std::move(pj));
  }
  c.Set("plans", std::move(jplans));
  if (!query_ids.empty()) {
    Json jids = Json::Array();
    for (const int id : query_ids) jids.Append(id);
    c.Set("query_ids", std::move(jids));
  }

  const core::Superplan sp = core::MergePlans(plans, *topo, query_ids);
  c.Set("merged_k", sp.merged.k);
  Json jbw = Json::Array();
  for (const int b : sp.merged.bandwidth) jbw.Append(b);
  c.Set("merged_bandwidth", std::move(jbw));

  Json jsubplans = Json::Array();
  for (const int node : pin_nodes) {
    const Subplan node_sp = core::MergedSubplanFor(sp, *topo, node);
    auto bytes = core::EncodeSubplan(node_sp);
    if (!bytes.ok()) Die(name + ": node subplan does not encode");
    Json entry = Json::Object();
    entry.Set("node", node);
    entry.Set("wire_hex", BytesToHex(*bytes));
    entry.Set("wire_version", core::SubplanWireVersion(*bytes));
    jsubplans.Append(std::move(entry));
  }
  c.Set("subplans", std::move(jsubplans));

  Json jtruth = Json::Array();
  for (const double t : truth) jtruth.Append(t);
  c.Set("truth", std::move(jtruth));

  net::NetworkSimulator sim(&*topo, net::EnergyModel{});
  const core::SuperplanResult result =
      core::SuperplanExecutor::Execute(sp, truth, &sim);
  Json janswers = Json::Array();
  for (size_t q = 0; q < result.per_query.size(); ++q) {
    // Generator-side certification: the demuxed answer must already be
    // bit-identical to standalone execution, or the vector is wrong.
    net::NetworkSimulator solo(&*topo, net::EnergyModel{});
    const core::ExecutionResult standalone =
        core::CollectionExecutor::Execute(sp.plans[q], truth, &solo);
    if (standalone.answer != result.per_query[q].answer) {
      Die(name + ": demux is not bit-identical to standalone execution");
    }
    Json janswer = Json::Array();
    for (const core::Reading& r : result.per_query[q].answer) {
      Json pair = Json::Array();
      pair.Append(r.node);
      pair.Append(r.value);
      janswer.Append(std::move(pair));
    }
    janswers.Append(std::move(janswer));
  }
  c.Set("per_query_answers", std::move(janswers));
  return c;
}

Json BandwidthPlanJson(int k, const std::vector<int>& bw,
                       bool proof_carrying = false) {
  Json j = Json::Object();
  j.Set("k", k);
  Json jbw = Json::Array();
  for (const int b : bw) jbw.Append(b);
  j.Set("bandwidth", std::move(jbw));
  if (proof_carrying) j.Set("proof_carrying", true);
  return j;
}

Json NodeSelectionPlanJson(int k, const std::vector<int>& chosen) {
  Json j = Json::Object();
  j.Set("kind", "node_selection");
  j.Set("k", k);
  Json jc = Json::Array();
  for (const int c : chosen) jc.Append(c);
  j.Set("chosen", std::move(jc));
  return j;
}

Json SuperplanFile() {
  Json doc = Json::Object();
  doc.Set("module", "superplan");
  doc.Set("description",
          "Superplan merge/demux round trips: pointwise-max merged "
          "bandwidths, per-node v1 wire subplans, and loss-free demuxed "
          "answers certified bit-identical to standalone execution.");
  Json cases = Json::Array();

  cases.Append(MergeCase(
      "two_queries_chain",
      /*parents=*/{-1, 0, 1, 2},
      {BandwidthPlanJson(2, {0, 2, 1, 1}), BandwidthPlanJson(1, {0, 1, 1, 0})},
      /*query_ids=*/{}, /*truth=*/{0.5, 3.0, 1.0, 2.0},
      /*pin_nodes=*/{0, 1, 2}));

  cases.Append(MergeCase(
      "three_queries_tree_sparse_ids",
      /*parents=*/{-1, 0, 0, 1, 1, 2},
      {BandwidthPlanJson(3, {0, 3, 1, 1, 1, 1}, /*proof_carrying=*/false),
       BandwidthPlanJson(1, {0, 1, 0, 1, 0, 0}),
       BandwidthPlanJson(2, {0, 0, 2, 0, 0, 1})},
      /*query_ids=*/{4, 7, 9},
      /*truth=*/{0.1, 5.0, 4.0, 9.0, 2.0, 7.0},
      /*pin_nodes=*/{0, 1, 2, 3}));

  cases.Append(MergeCase(
      "bandwidth_plus_node_selection",
      /*parents=*/{-1, 0, 1, 1, 0},
      {BandwidthPlanJson(2, {0, 2, 1, 1, 1}),
       NodeSelectionPlanJson(2, {0, 0, 1, 0, 1})},
      /*query_ids=*/{}, /*truth=*/{1.0, 4.0, 6.0, 2.0, 5.0},
      /*pin_nodes=*/{0, 1}));

  doc.Set("cases", std::move(cases));
  return doc;
}

// --------------------------------------------------------------------------
// fault_schedule vectors

/// One step of a scripted injector timeline: either an AdvanceTo or a
/// Remap (when `remap` is non-empty).
struct TimelineStep {
  int advance_to = -1;
  std::vector<int> remap;
  int remap_num_nodes = 0;
};

/// Builds a timeline case by driving a live FaultInjector through the
/// steps and recording its materialized state after each one — the
/// snapshots freeze today's fault semantics the same way wire_hex freezes
/// today's encoder bytes.
Json TimelineCase(const std::string& name, int num_nodes,
                  const net::FaultSchedule& schedule,
                  const std::vector<TimelineStep>& steps) {
  Json c = Json::Object();
  c.Set("name", name);
  c.Set("kind", "timeline");
  c.Set("num_nodes", num_nodes);
  c.Set("schedule", FaultScheduleToJson(schedule));
  net::FaultInjector injector(num_nodes, schedule);
  Json jsteps = Json::Array();
  for (const TimelineStep& step : steps) {
    Json js = Json::Object();
    if (!step.remap.empty()) {
      Json jr = Json::Array();
      for (const int id : step.remap) jr.Append(id);
      js.Set("remap", std::move(jr));
      js.Set("num_nodes", step.remap_num_nodes);
      injector.Remap(step.remap, step.remap_num_nodes);
    } else {
      js.Set("advance_to", step.advance_to);
      injector.AdvanceTo(step.advance_to);
    }
    js.Set("state", InjectorStateToJson(injector));
    jsteps.Append(std::move(js));
  }
  c.Set("steps", std::move(jsteps));
  return c;
}

Json FaultScheduleFile() {
  Json doc = Json::Object();
  doc.Set("module", "fault_schedule");
  doc.Set("description",
          "Scripted fault timelines with golden injector-state snapshots "
          "after every advance/remap step, plus a chaos-replay config: "
          "replay drives a live FaultInjector (and the chaos harness) and "
          "compares materialized state textually.");
  Json cases = Json::Array();

  {
    // Lifecycle basics, root pinned: the epoch-4 kill names the root and
    // must leave it alive.
    net::FaultSchedule s;
    s.KillNode(1, 2).KillNode(2, 4).ReviveNode(3, 2).KillNode(4, 0);
    cases.Append(TimelineCase("kill_revive_root_pinned", 5, s,
                              {{1, {}, 0}, {2, {}, 0}, {3, {}, 0}, {4, {}, 0}}));
  }
  {
    // Link-quality overrides and partitions arm and clear independently.
    net::FaultSchedule s;
    s.DegradeEdge(1, 3, 0.65)
        .PartitionSubtree(2, 1)
        .RestoreEdge(3, 3)
        .HealSubtree(4, 1);
    cases.Append(TimelineCase("degrade_partition_then_heal", 5, s,
                              {{1, {}, 0}, {2, {}, 0}, {3, {}, 0}, {4, {}, 0}}));
  }
  {
    // Adversarial knobs arm per edge and disarm at probability zero; a
    // sub-1 param clamps (delay of at least one epoch).
    net::FaultSchedule s;
    s.DuplicateEdge(1, 2, 0.5, 3)
        .CorruptEdge(1, 2, 0.25)
        .DelayEdge(1, 3, 0.75, 0)
        .DuplicateEdge(2, 2, 0.0)
        .CorruptEdge(3, 2, 0.0)
        .DelayEdge(3, 3, 0.0);
    cases.Append(TimelineCase("adversarial_arm_and_disarm", 4, s,
                              {{1, {}, 0}, {2, {}, 0}, {3, {}, 0}}));
  }
  {
    // Two consecutive rebuilds: live state and pending events follow the
    // survivors; events naming removed nodes drop for good.
    net::FaultSchedule s;
    s.KillNode(0, 4)
        .DegradeEdge(0, 3, 0.7)
        .DelayEdge(0, 5, 1.0, 2)
        .KillNode(5, 2)
        .CorruptEdge(6, 3, 0.9)
        .DuplicateEdge(8, 1, 1.0, 2);
    cases.Append(TimelineCase("remap_across_two_rebuilds", 6, s,
                              {{0, {}, 0},
                               {-1, {0, 1, -1, 2, 3, 4}, 5},
                               {5, {}, 0},
                               {6, {}, 0},
                               {-1, {0, 1, 2, 3, -1}, 4},
                               {8, {}, 0}}));
  }
  {
    // The clock is idempotent: re-advancing to the current epoch (or an
    // earlier one) replays nothing — both snapshots must be identical.
    net::FaultSchedule s;
    s.KillNode(2, 1).ReviveNode(4, 1);
    cases.Append(TimelineCase("advance_to_is_idempotent", 3, s,
                              {{2, {}, 0}, {2, {}, 0}, {1, {}, 0}, {4, {}, 0}}));
  }
  {
    // One small end-to-end chaos run, frozen: replay re-runs the config
    // and fails if any soak invariant violation appears.
    ChaosConfig config;
    config.seed = 7;
    config.num_nodes = 16;
    config.epochs = 24;
    config.num_queries = 2;
    const ChaosReport report = RunChaos(config);
    if (!report.ok()) {
      Die("chaos corpus config violated invariants: " +
          report.violations.front());
    }
    cases.Append(ChaosArtifact(report).at("cases")[0]);
  }

  doc.Set("cases", std::move(cases));
  return doc;
}

core::QueryPlan PlanFromJsonForGen(const Json& pj, const net::Topology& topo) {
  const Json* kind = pj.Find("kind");
  if (kind != nullptr && kind->is_string() &&
      kind->str() == "node_selection") {
    const Json& jc = pj.at("chosen");
    std::vector<char> mask;
    for (size_t i = 0; i < jc.size(); ++i) {
      mask.push_back(static_cast<char>(jc[i].AsInt()));
    }
    return core::QueryPlan::NodeSelection(pj.at("k").AsInt(), std::move(mask),
                                          topo);
  }
  const Json& jbw = pj.at("bandwidth");
  std::vector<int> bw;
  for (size_t i = 0; i < jbw.size(); ++i) bw.push_back(jbw[i].AsInt());
  const Json* pc = pj.Find("proof_carrying");
  return core::QueryPlan::Bandwidth(pj.at("k").AsInt(), std::move(bw),
                                    pc != nullptr && pc->is_bool() &&
                                        pc->boolean());
}

// --------------------------------------------------------------------------

void WriteVectorFile(const std::string& dir, const std::string& name,
                     const Json& doc) {
  // Self-check before anything touches disk: the generator replays every
  // case it produced through the live harness.
  ReplayStats stats;
  const std::string tmp = doc.Dump(2) + "\n";
  auto parsed = Json::Parse(tmp);
  if (!parsed.ok()) Die(name + ": generated JSON does not re-parse");
  const std::string path = dir + "/" + name;
  if (const Status st = util::WriteFile(path, tmp); !st.ok()) {
    Die(st.ToString());
  }
  if (const Status st = ReplayVectorFile(path, &stats); !st.ok()) {
    Die("self-replay failed: " + st.ToString());
  }
  std::printf("wrote %-28s %3d cases\n", name.c_str(), stats.cases);
}

int Main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : "spec/test-vectors";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) Die("cannot create " + dir + ": " + ec.message());

  WriteVectorFile(dir, "plan_wire_v0.json", PlanWireV0File());
  WriteVectorFile(dir, "plan_wire_v1.json", PlanWireV1File());
  WriteVectorFile(dir, "plan_wire_v2.json", PlanWireV2File());
  WriteVectorFile(dir, "plan_wire_errors.json", PlanWireErrorFile());
  WriteVectorFile(dir, "lp_optima.json", LpFile());
  WriteVectorFile(dir, "superplan_merge.json", SuperplanFile());
  WriteVectorFile(dir, "fault_schedules.json", FaultScheduleFile());

  ReplayStats total;
  if (const Status st = ReplayCorpus(dir, &total); !st.ok()) {
    Die("final corpus replay failed: " + st.ToString());
  }
  std::printf("corpus ok: %d files, %d cases\n", total.files, total.cases);
  return 0;
}

}  // namespace
}  // namespace testvec
}  // namespace prospector

int main(int argc, char** argv) {
  return prospector::testvec::Main(argc, argv);
}
