// Replays the checked-in golden corpus (spec/test-vectors/) against the
// live implementation — this is the ctest entry that makes the corpus a
// CI tripwire — and proves the harness actually *fails* when a vector and
// the implementation disagree (a replay harness that cannot fail certifies
// nothing).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/testvec/replay.h"
#include "src/testvec/testvec.h"
#include "src/util/json.h"

#ifndef PROSPECTOR_SPEC_DEFAULT
#define PROSPECTOR_SPEC_DEFAULT "spec/test-vectors"
#endif

namespace prospector {
namespace testvec {
namespace {

using util::Json;

std::string SpecDir() { return SpecDirOrDefault(PROSPECTOR_SPEC_DEFAULT); }

/// Loads one vector file and returns the first case whose name matches
/// `pred` (empty name = first case of the file).
Json LoadCase(const std::string& file, const std::string& name = "") {
  auto doc = LoadVectorFile(SpecDir() + "/" + file);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  if (!doc.ok()) return Json();
  const Json& cases = doc->at("cases");
  for (size_t i = 0; i < cases.size(); ++i) {
    if (name.empty() || cases[i].at("name").str() == name) {
      return cases[i];
    }
  }
  ADD_FAILURE() << file << " has no case named '" << name << "'";
  return Json();
}

TEST(CorpusReplayTest, EntireCorpusReplaysByteExact) {
  ReplayStats stats;
  const Status st = ReplayCorpus(SpecDir(), &stats);
  EXPECT_TRUE(st.ok()) << st.ToString();
  // The corpus is substantial by construction; a shrunk or missing corpus
  // must fail here rather than "pass" vacuously.
  EXPECT_GE(stats.files, 7);
  EXPECT_GE(stats.cases, 85);
}

TEST(CorpusReplayTest, BugVectorsAresPresent) {
  // The two vectors that pin the former encode bugs must stay in the
  // corpus: >255 children and k/bandwidth past the uint8 ceiling, both
  // round-tripping via wire version 2.
  const Json count_bug =
      LoadCase("plan_wire_v2.json", "bug_count_truncation_300_children");
  EXPECT_EQ(count_bug.at("wire_version").AsInt(), 2);
  EXPECT_EQ(count_bug.at("subplan").at("children").size(), 300u);
  const Json clamp_bug =
      LoadCase("plan_wire_v2.json", "bug_silent_clamp_k_1000_bw_400");
  EXPECT_EQ(clamp_bug.at("wire_version").AsInt(), 2);
  EXPECT_EQ(clamp_bug.at("subplan").at("k").AsInt(), 1000);
}

TEST(CorpusReplayTest, MissingCorpusIsAnError) {
  ReplayStats stats;
  const Status st = ReplayCorpus("/nonexistent/spec", &stats);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
}

// --- The harness must fail on tampered vectors ---------------------------

TEST(TamperTest, PlanWireWrongBytesFailReplay) {
  Json c = LoadCase("plan_wire_v1.json");
  ASSERT_TRUE(c.is_object());
  EXPECT_TRUE(ReplayPlanWireCase(c).ok());
  std::string hex = c.at("wire_hex").str();
  hex[hex.size() - 1] = hex.back() == '0' ? '1' : '0';
  c.Set("wire_hex", hex);
  const Status st = ReplayPlanWireCase(c);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("wire_hex"), std::string::npos);
}

TEST(TamperTest, PlanWireWrongVersionFailsReplay) {
  Json c = LoadCase("plan_wire_v1.json");
  ASSERT_TRUE(c.is_object());
  c.Set("wire_version", 2);
  EXPECT_FALSE(ReplayPlanWireCase(c).ok());
}

TEST(TamperTest, WrongErrorCodeFailsReplay) {
  Json c = LoadCase("plan_wire_errors.json", "empty_input");
  ASSERT_TRUE(c.is_object());
  EXPECT_TRUE(ReplayPlanWireCase(c).ok());
  c.Set("error_code", "NotFound");
  EXPECT_FALSE(ReplayPlanWireCase(c).ok());
}

TEST(TamperTest, CorruptedKktCertificateFailsReplay) {
  Json c = LoadCase("lp_optima.json", "textbook_max_two_vars");
  ASSERT_TRUE(c.is_object());
  EXPECT_TRUE(ReplayLpCase(c).ok());
  // A forged dual must be caught by the independent certificate check.
  Json& solution = *c.Find("solution");
  Json& duals = *solution.Find("row_duals");
  ASSERT_TRUE(duals.is_array());
  ASSERT_GT(duals.size(), 0u);
  duals[0] = Json(duals[0].number() + 10.0);
  const Status st = ReplayLpCase(c);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("certificate"), std::string::npos);
}

TEST(TamperTest, WrongObjectiveFailsReplay) {
  Json c = LoadCase("lp_optima.json", "textbook_max_two_vars");
  ASSERT_TRUE(c.is_object());
  Json& solution = *c.Find("solution");
  solution.Set("objective", solution.at("objective").number() + 1.0);
  EXPECT_FALSE(ReplayLpCase(c).ok());
}

TEST(TamperTest, WrongMergedBandwidthFailsReplay) {
  Json c = LoadCase("superplan_merge.json", "two_queries_chain");
  ASSERT_TRUE(c.is_object());
  EXPECT_TRUE(ReplaySuperplanCase(c).ok());
  Json& bw = *c.Find("merged_bandwidth");
  ASSERT_TRUE(bw.is_array());
  bw[1] = Json(bw[1].AsInt() + 1);
  const Status st = ReplaySuperplanCase(c);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("bandwidth"), std::string::npos);
}

TEST(TamperTest, WrongDemuxAnswerFailsReplay) {
  Json c = LoadCase("superplan_merge.json", "two_queries_chain");
  ASSERT_TRUE(c.is_object());
  Json& answers = *c.Find("per_query_answers");
  ASSERT_TRUE(answers.is_array());
  ASSERT_GT(answers.size(), 0u);
  ASSERT_GT(answers[0].size(), 0u);
  answers[0][0][1] = Json(answers[0][0][1].number() + 0.25);
  const Status st = ReplaySuperplanCase(c);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("demux"), std::string::npos);
}

TEST(TamperTest, ForgedInjectorStateFailsReplay) {
  Json c = LoadCase("fault_schedules.json", "remap_across_two_rebuilds");
  ASSERT_TRUE(c.is_object());
  EXPECT_TRUE(ReplayFaultScheduleCase(c).ok());
  // Forge the golden snapshot after the first rebuild: the live injector
  // cannot reproduce the edited dead-count.
  Json& steps = *c.Find("steps");
  ASSERT_TRUE(steps.is_array());
  ASSERT_GT(steps.size(), 1u);
  Json& state = *steps[1].Find("state");
  state.Set("num_dead", state.at("num_dead").AsInt() + 1);
  const Status st = ReplayFaultScheduleCase(c);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("golden state"), std::string::npos);
}

TEST(TamperTest, DroppedScheduleEventFailsReplay) {
  Json c = LoadCase("fault_schedules.json", "adversarial_arm_and_disarm");
  ASSERT_TRUE(c.is_object());
  // Deleting the disarm event leaves the edge armed where the snapshots
  // say it is clean.
  Json& schedule = *c.Find("schedule");
  ASSERT_TRUE(schedule.is_array());
  Json pruned = Json::Array();
  for (size_t i = 0; i + 1 < schedule.size(); ++i) {
    pruned.Append(schedule[i]);
  }
  c.Set("schedule", std::move(pruned));
  EXPECT_FALSE(ReplayFaultScheduleCase(c).ok());
}

// --- Subplan JSON round trip ---------------------------------------------

TEST(SubplanJsonTest, RoundTripsAllFields) {
  core::Subplan sp;
  sp.proof_carrying = true;
  sp.node_selection = true;
  sp.chosen = true;
  sp.k = 1000;
  sp.outgoing_bandwidth = 7;
  sp.child_bandwidth = {{3, 2}, {400, 1}};
  sp.query_entries = {{0, 5, 2}, {9, 300, 1}};
  auto back = SubplanFromJson(SubplanToJson(sp));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(*back == sp);
}

TEST(SubplanJsonTest, RejectsMalformedSubplans) {
  EXPECT_FALSE(SubplanFromJson(Json()).ok());
  Json j = SubplanToJson(core::Subplan{});
  j.Set("children", 3);  // not an array
  EXPECT_FALSE(SubplanFromJson(j).ok());
}

}  // namespace
}  // namespace testvec
}  // namespace prospector
