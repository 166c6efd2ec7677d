#include "src/testvec/chaos.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/testvec/replay.h"
#include "src/testvec/testvec.h"
#include "src/util/json.h"
#include "src/util/status.h"

namespace prospector {
namespace testvec {
namespace {

using util::Json;

// CI shards the soak through these knobs (see .github/workflows/ci.yml,
// chaos-smoke): PROSPECTOR_CHAOS_SEEDS caps the corpus size (the TSan arm
// runs a reduced sweep) and PROSPECTOR_CHAOS_SEED_BASE offsets the range
// so matrix entries cover disjoint schedules.
int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return static_cast<int>(std::strtol(v, nullptr, 10));
}

// Topology size, epoch count, and query mix all rotate with the seed so
// the corpus crosses planner kinds, rebuild pressure, and mid-flight
// admission (the same arm shape bench_chaos reports on).
ChaosConfig SoakConfig(uint64_t seed) {
  ChaosConfig config;
  config.seed = seed;
  config.num_nodes = 16 + static_cast<int>(seed % 9);
  config.epochs = 40;
  config.num_queries = 1 + static_cast<int>(seed % 3);
  return config;
}

// --- The soak: hundreds of seeded schedules, zero violations ------------

TEST(ChaosSoak, SeededSchedulesHoldEveryInvariant) {
  const int seeds = EnvInt("PROSPECTOR_CHAOS_SEEDS", 200);
  const int base = EnvInt("PROSPECTOR_CHAOS_SEED_BASE", 1);
  int64_t duplicates_dropped = 0;
  int64_t stale_fenced = 0;
  int64_t corrupt_rejected = 0;
  int64_t deferred = 0;
  int64_t rebuilds = 0;
  int64_t recall_count = 0;
  for (int i = 0; i < seeds; ++i) {
    const uint64_t seed = static_cast<uint64_t>(base + i);
    const ChaosReport report = RunChaos(SoakConfig(seed));
    if (!report.ok()) {
      // Persist a replayable repro before failing: CI uploads these, and
      // `testvec_replay <artifact>` reproduces the violation locally.
      // The artifact embeds the flight timeline; the standalone dump is
      // the same data for `prospector_obsdump` / eyeballs.
      const std::string artifact =
          "chaos_violation_seed" + std::to_string(seed) + ".json";
      WriteChaosArtifact(artifact, report);
      const std::string flight_dump =
          "chaos_flight_seed" + std::to_string(seed) + ".json";
      util::WriteFile(flight_dump,
                      obs::FlightTimelineJson(report.flight).Dump(2) + "\n");
      for (const std::string& v : report.violations) {
        ADD_FAILURE() << "seed " << seed << ": " << v
                      << " (replay artifact: " << artifact
                      << ", flight dump: " << flight_dump << ")";
      }
    }
    // I1 asserted structurally on top of RunChaos's own checks: a fenced
    // run must never fold stale or duplicate traffic into an answer.
    EXPECT_EQ(report.guard.stale_folded, 0) << "seed " << seed;
    EXPECT_EQ(report.guard.duplicates_folded, 0) << "seed " << seed;
    duplicates_dropped += report.guard.duplicates_dropped;
    stale_fenced += report.guard.stale_fenced;
    corrupt_rejected += report.guard.corrupt_rejected;
    deferred += report.guard.deferred;
    rebuilds += report.rebuilds;
    recall_count += report.recall_count;
  }
  // Non-vacuousness: across the corpus every adversarial behavior has to
  // actually fire, engines must rebuild, and answers must be graded —
  // otherwise a regression that silently disabled the adversary (or the
  // grader) would sail through the invariants above.
  EXPECT_GT(duplicates_dropped, 0);
  EXPECT_GT(stale_fenced, 0);
  EXPECT_GT(corrupt_rejected, 0);
  EXPECT_GT(deferred, 0);
  EXPECT_GT(rebuilds, 0);
  EXPECT_GT(recall_count, 0);
}

// --- I5 + I6: the harness can tell a broken protocol from a sound one --

TEST(ChaosSoak, NaiveProtocolIsTamperEvidentAndRecallNoBetter) {
  const int seeds = EnvInt("PROSPECTOR_CHAOS_ARM_SEEDS", 24);
  int64_t naive_folds = 0;
  double fenced_recall = 0.0;
  double naive_recall = 0.0;
  int64_t fenced_graded = 0;
  int64_t naive_graded = 0;
  for (int seed = 1; seed <= seeds; ++seed) {
    ChaosConfig fenced_config = SoakConfig(static_cast<uint64_t>(seed));
    ChaosConfig naive_config = fenced_config;
    naive_config.naive = true;
    const ChaosReport fenced = RunChaos(fenced_config);
    const ChaosReport naive = RunChaos(naive_config);
    EXPECT_TRUE(fenced.ok()) << "seed " << seed << ": "
                             << (fenced.violations.empty()
                                     ? ""
                                     : fenced.violations.front());
    EXPECT_TRUE(naive.ok()) << "seed " << seed << ": "
                            << (naive.violations.empty()
                                    ? ""
                                    : naive.violations.front());
    naive_folds += naive.guard.stale_folded + naive.guard.duplicates_folded;
    fenced_recall += fenced.recall_sum;
    fenced_graded += fenced.recall_count;
    naive_recall += naive.recall_sum;
    naive_graded += naive.recall_count;
  }
  // I6: if breaking the fence were invisible, the soak would prove
  // nothing — the naive arm must show stale/duplicate folds.
  EXPECT_GT(naive_folds, 0)
      << "the deliberately-broken protocol left no trace; the soak's "
         "tamper-detection signal is gone";
  // I5: fencing must not cost answer quality relative to the broken
  // protocol on the same schedules.
  ASSERT_GT(fenced_graded, 0);
  ASSERT_GT(naive_graded, 0);
  EXPECT_GE(fenced_recall / static_cast<double>(fenced_graded),
            naive_recall / static_cast<double>(naive_graded));
}

TEST(ChaosSoak, BrokenFencingFailsTheStructuralInvariant) {
  // The acceptance check for the harness itself: running the soak's I1
  // assertion against the deliberately-broken protocol must fail. A
  // single seed suffices — the naive arm folds on every schedule dense
  // enough to duplicate or delay at least one guarded message.
  ChaosConfig config = SoakConfig(2);
  config.naive = true;
  const ChaosReport report = RunChaos(config);
  EXPECT_GT(report.guard.stale_folded + report.guard.duplicates_folded, 0)
      << "I1 would pass under the broken protocol";
}

// --- I7: duplication is answer-invariant under fencing ------------------

TEST(ChaosSoak, DuplicationIsAnswerInvariantUnderFencing) {
  const int seeds = EnvInt("PROSPECTOR_CHAOS_DUP_SEEDS", 12);
  for (int seed = 1; seed <= seeds; ++seed) {
    ChaosConfig with_dup = SoakConfig(static_cast<uint64_t>(seed));
    ChaosConfig no_dup = with_dup;
    no_dup.strip_duplicates = true;
    const ChaosReport a = RunChaos(with_dup);
    const ChaosReport b = RunChaos(no_dup);
    EXPECT_TRUE(b.ok()) << "seed " << seed;
    ASSERT_EQ(a.ticks, b.ticks) << "seed " << seed;
    ASSERT_EQ(a.answers.size(), b.answers.size()) << "seed " << seed;
    // The adversary's RNG draws stay aligned when duplication rates are
    // zeroed (the simulator consumes all three draws regardless), so a
    // fenced engine must answer bit-identically with and without
    // duplicate copies on the air.
    for (size_t t = 0; t < a.answers.size(); ++t) {
      EXPECT_TRUE(a.answers[t] == b.answers[t])
          << "seed " << seed << ": answers diverge at tick " << t
          << " once duplication is stripped — a duplicate leaked into "
             "a fold";
    }
  }
}

// --- Violating runs persist as replayable artifacts ---------------------

TEST(ChaosArtifactTest, ArtifactRoundTripsThroughTheReplayHarness) {
  const ChaosReport report = RunChaos(SoakConfig(3));
  ASSERT_TRUE(report.ok());
  const std::string path = ::testing::TempDir() + "chaos_artifact.json";
  ASSERT_TRUE(WriteChaosArtifact(path, report).ok());
  ReplayStats stats;
  const Status st = ReplayVectorFile(path, &stats);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(stats.cases, 1);
}

#ifndef PROSPECTOR_OBS_DISABLED
TEST(ChaosArtifactTest, FlightTimelineIsReplayDeterministic) {
  // The acceptance contract for flight dumps: the same config replayed in
  // the same process yields a byte-identical merged timeline (serial
  // recording, seq counters reset by RunChaos, no wall-clock payloads).
  const ChaosConfig config = SoakConfig(5);
  const ChaosReport first = RunChaos(config);
  const ChaosReport second = RunChaos(config);
  ASSERT_FALSE(first.flight.empty());
  EXPECT_EQ(obs::FlightTimelineJson(first.flight).Dump(-1),
            obs::FlightTimelineJson(second.flight).Dump(-1));
}

TEST(ChaosArtifactTest, TamperedFlightTimelineFailsReplay) {
  const ChaosReport report = RunChaos(SoakConfig(6));
  ASSERT_TRUE(report.ok());
  ASSERT_FALSE(report.flight.empty());
  const std::string path = ::testing::TempDir() + "chaos_flight_tampered.json";
  ASSERT_TRUE(WriteChaosArtifact(path, report).ok());
  auto doc = LoadVectorFile(path);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  // Drop the last flight event: the recorded timeline no longer matches
  // what the replay regenerates, so the artifact must be rejected.
  Json& cases = *doc->Find("cases");
  Json* flight = cases[0].Find("flight_recorder");
  ASSERT_NE(flight, nullptr);
  Json truncated = Json::Array();
  const Json& events = flight->at("events");
  ASSERT_GT(events.size(), 1u);
  for (size_t i = 0; i + 1 < events.size(); ++i) {
    truncated.Append(events[i]);
  }
  flight->Set("events", std::move(truncated));
  ASSERT_TRUE(util::WriteFile(path, doc->Dump(2) + "\n").ok());
  const Status st = ReplayVectorFile(path, nullptr);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("flight"), std::string::npos) << st.ToString();
}
#endif  // PROSPECTOR_OBS_DISABLED

TEST(ChaosArtifactTest, TamperedScheduleFailsReplay) {
  const ChaosReport report = RunChaos(SoakConfig(4));
  ASSERT_TRUE(report.ok());
  const std::string path = ::testing::TempDir() + "chaos_tampered.json";
  ASSERT_TRUE(WriteChaosArtifact(path, report).ok());
  auto doc = LoadVectorFile(path);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  // Shift the first scripted event one epoch later: the stored schedule
  // no longer matches what the config regenerates, so the artifact no
  // longer reproduces the run it claims to describe.
  Json& cases = *doc->Find("cases");
  Json& schedule = *cases[0].Find("schedule");
  ASSERT_TRUE(schedule.is_array());
  ASSERT_GT(schedule.size(), 0u);
  Json& event = schedule[0];
  event.Set("epoch", event.at("epoch").AsInt() + 1);
  ASSERT_TRUE(util::WriteFile(path, doc->Dump(2) + "\n").ok());
  const Status st = ReplayVectorFile(path, nullptr);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("drifted"), std::string::npos)
      << st.ToString();
}

}  // namespace
}  // namespace testvec
}  // namespace prospector
