// Observability layer: metric determinism, trace span nesting, the energy
// ledger audit (including an injected discrepancy), the telemetry surfaced
// through planners and engines, and the JSON dumps parsing back.

#include "src/obs/obs.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "src/core/executor.h"
#include "src/core/lp_filter_planner.h"
#include "src/core/query_engine.h"
#include "src/obs/openmetrics.h"
#include "src/data/gaussian_field.h"
#include "src/util/json.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace prospector {
namespace obs {
namespace {

util::Json MustParse(const std::string& text) {
  auto j = util::Json::Parse(text);
  EXPECT_TRUE(j.ok()) << text << " -> " << j.status().ToString();
  return j.ok() ? std::move(*j) : util::Json();
}

std::vector<std::string> Keys(const util::Json& object) {
  std::vector<std::string> keys;
  for (const auto& [key, value] : object.members()) keys.push_back(key);
  return keys;
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

// Concurrent increments from the same pool the planners use must not lose
// updates ("Parallel" in the name opts this into the TSan CI job).
TEST(ObsMetricsTest, ParallelCounterIncrementsAreExact) {
  MetricsRegistry reg;
  Counter* unit = reg.counter("test.unit");
  Counter* weighted = reg.counter("test.weighted");
  constexpr int kN = 100000;
  util::ThreadPool pool(4);
  pool.ParallelFor(kN, [&](int i) {
    unit->Increment();
    weighted->Add(i + 1);
  });
  EXPECT_EQ(unit->value(), kN);
  EXPECT_EQ(weighted->value(),
            static_cast<int64_t>(kN) * (kN + 1) / 2);
}

TEST(ObsMetricsTest, SnapshotOrderingIsNameSortedNotRegistrationOrder) {
  MetricsRegistry reg;
  reg.counter("z.last")->Increment();
  reg.counter("a.first")->Add(2);
  reg.counter("m.mid")->Add(3);
  reg.gauge("z.g")->Set(1.0);
  reg.gauge("a.g")->Set(2.0);
  reg.histogram("z.h")->Record(1.0);
  reg.histogram("a.h")->Record(2.0);

  MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].first, "a.first");
  EXPECT_EQ(snap.counters[1].first, "m.mid");
  EXPECT_EQ(snap.counters[2].first, "z.last");
  ASSERT_EQ(snap.gauges.size(), 2u);
  EXPECT_EQ(snap.gauges[0].first, "a.g");
  ASSERT_EQ(snap.histograms.size(), 2u);
  EXPECT_EQ(snap.histograms[0].first, "a.h");

  const util::Json json = MustParse(snap.ToJson());
  EXPECT_EQ(Keys(json), (std::vector<std::string>{"counters", "gauges",
                                                   "histograms"}));
  const util::Json& counters = json.at("counters");
  EXPECT_EQ(Keys(counters),
            (std::vector<std::string>{"a.first", "m.mid", "z.last"}));
  EXPECT_EQ(counters.at("a.first").number(), 2);
  EXPECT_EQ(counters.at("m.mid").number(), 3);
  EXPECT_EQ(counters.at("z.last").number(), 1);
  const util::Json& gauges = json.at("gauges");
  EXPECT_EQ(Keys(gauges), (std::vector<std::string>{"a.g", "z.g"}));
  EXPECT_EQ(gauges.at("a.g").number(), 2.0);
  EXPECT_EQ(gauges.at("z.g").number(), 1.0);
  const util::Json& histograms = json.at("histograms");
  EXPECT_EQ(Keys(histograms), (std::vector<std::string>{"a.h", "z.h"}));
  const util::Json& a_h = histograms.at("a.h");
  EXPECT_EQ(Keys(a_h),
            (std::vector<std::string>{"count", "sum", "min", "max"}));
  EXPECT_EQ(a_h.at("count").number(), 1);
  EXPECT_EQ(a_h.at("sum").number(), 2.0);
  EXPECT_EQ(a_h.at("min").number(), 2.0);
  EXPECT_EQ(a_h.at("max").number(), 2.0);
}

TEST(ObsMetricsTest, HistogramTracksCountSumMinMaxAndBuckets) {
  Histogram h;
  h.Record(0.5);  // bucket 0: v <= 1
  h.Record(3.0);  // bucket 2: (2, 4]
  h.Record(3.5);
  Histogram::Data d = h.Snapshot();
  EXPECT_EQ(d.count, 3);
  EXPECT_DOUBLE_EQ(d.sum, 7.0);
  EXPECT_DOUBLE_EQ(d.min, 0.5);
  EXPECT_DOUBLE_EQ(d.max, 3.5);
  ASSERT_EQ(d.buckets.size(), static_cast<size_t>(Histogram::kNumBuckets));
  EXPECT_EQ(d.buckets[0], 1);
  EXPECT_EQ(d.buckets[2], 2);
  h.Reset();
  EXPECT_EQ(h.Snapshot().count, 0);
}

// The counter snapshot after a Plan() call is a deterministic function of
// the planner's input: two runs on the same window report identical
// counters, and the LP layer reports through them.
TEST(ObsMetricsTest, PlannerCountersIdenticalAcrossRuns) {
  Rng rng(7);
  net::GeometricNetworkOptions geo;
  geo.num_nodes = 60;
  geo.radio_range = 24.0;
  auto topo = net::BuildConnectedGeometricNetwork(geo, &rng).value();
  auto field = data::GaussianField::Random(60, 40, 60, 1, 9, &rng);
  sampling::SampleSet samples = sampling::SampleSet::ForTopK(60, 8);
  for (int s = 0; s < 20; ++s) samples.Add(field.Sample(&rng));
  core::PlannerContext ctx;
  ctx.topology = &topo;

  auto run = [&] {
    MetricsRegistry::Global().Reset();
    core::LpFilterPlanner planner;
    auto plan = planner.Plan(ctx, samples, core::PlanRequest{8, 14.0});
    EXPECT_TRUE(plan.ok());
    return MetricsRegistry::Global().Snapshot();
  };

  MetricsSnapshot first = run();
  MetricsSnapshot second = run();
  EXPECT_EQ(first.counters, second.counters);
  EXPECT_EQ(first.ToJson(), second.ToJson());
#ifndef PROSPECTOR_OBS_DISABLED
  // With instrumentation on, the LP layer must actually have reported.
  bool saw_lp = false;
  for (const auto& [name, value] : first.counters) {
    if (name == "lp.solves") saw_lp = value > 0;
  }
  EXPECT_TRUE(saw_lp);
#endif
}

// ---------------------------------------------------------------------------
// Trace spans
// ---------------------------------------------------------------------------

TEST(ObsTraceTest, SpanNestingDepthsAndContainment) {
  Tracer::Global().Clear();
  Tracer::Global().Enable();
  EXPECT_EQ(ScopedSpan::CurrentDepth(), 0);
  {
    ScopedSpan outer("test.outer");
    EXPECT_EQ(ScopedSpan::CurrentDepth(), 1);
    {
      ScopedSpan inner("test.inner");
      EXPECT_EQ(ScopedSpan::CurrentDepth(), 2);
    }
    EXPECT_EQ(ScopedSpan::CurrentDepth(), 1);
  }
  EXPECT_EQ(ScopedSpan::CurrentDepth(), 0);
  Tracer::Global().Disable();

  std::vector<TraceEvent> events = Tracer::Global().Drain();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].name, "test.outer");
  EXPECT_EQ(events[0].depth, 0);
  EXPECT_STREQ(events[1].name, "test.inner");
  EXPECT_EQ(events[1].depth, 1);
  // The child opens no earlier and closes no later than the parent.
  EXPECT_LE(events[0].ts_us, events[1].ts_us);
  EXPECT_GE(events[0].ts_us + events[0].dur_us,
            events[1].ts_us + events[1].dur_us);
}

TEST(ObsTraceTest, DisabledTracerRecordsNothing) {
  Tracer::Global().Clear();
  Tracer::Global().Disable();
  { ScopedSpan span("test.invisible"); }
  EXPECT_TRUE(Tracer::Global().Drain().empty());
}

TEST(ObsTraceTest, WriteChromeTraceProducesLoadableJson) {
  Tracer::Global().Clear();
  Tracer::Global().Enable();
  {
    ScopedSpan a("test.write.a");
    ScopedSpan b("test.write.b");
  }
  Tracer::Global().Disable();

  const std::string path = ::testing::TempDir() + "/obs_test_trace.json";
  ASSERT_TRUE(Tracer::Global().WriteChromeTrace(path));

  auto contents = util::ReadFile(path);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  std::remove(path.c_str());

  const util::Json trace = MustParse(*contents);
  EXPECT_EQ(Keys(trace), std::vector<std::string>{"traceEvents"});
  const util::Json& events = trace.at("traceEvents");
  ASSERT_EQ(events.size(), 2u);
  std::vector<std::string> names;
  for (size_t i = 0; i < events.size(); ++i) {
    const util::Json& e = events[i];
    EXPECT_EQ(Keys(e), (std::vector<std::string>{"name", "cat", "ph", "pid",
                                                  "tid", "ts", "dur"}));
    names.push_back(e.at("name").str());
    EXPECT_EQ(e.at("cat").str(), "prospector");
    EXPECT_EQ(e.at("ph").str(), "X");
    EXPECT_EQ(e.at("pid").number(), 1);
    EXPECT_GE(e.at("dur").number(), 0);
  }
  // The outer span opens no later than the inner one and wins a timestamp
  // tie on depth, so it sorts first.
  EXPECT_EQ(names, (std::vector<std::string>{"test.write.a", "test.write.b"}));
  // Writing drains: the buffer is empty afterwards.
  EXPECT_TRUE(Tracer::Global().Drain().empty());
}

// ---------------------------------------------------------------------------
// Energy ledger audit
// ---------------------------------------------------------------------------

TEST(ObsAuditTest, LedgerAgreementWithinFloatRoundOff) {
  EXPECT_TRUE(CheckEnergyLedger(5.0, 5.0).ok);
  EXPECT_TRUE(CheckEnergyLedger(1.0, 1.0 + 1e-8).ok);
  EXPECT_TRUE(CheckEnergyLedger(0.0, 0.0).ok);
}

TEST(ObsAuditTest, LedgerDivergenceAndNanFail) {
  EnergyAuditResult r = CheckEnergyLedger(5.0, 5.2);
  EXPECT_FALSE(r.ok);
  EXPECT_NEAR(r.divergence_mj, -0.2, 1e-12);  // signed: claimed - measured
  EXPECT_FALSE(CheckEnergyLedger(std::nan(""), 1.0).ok);
  EXPECT_FALSE(CheckEnergyLedger(1.0, std::nan("")).ok);
}

// Satellite (c): a deliberate discrepancy must be caught, counted, and
// reported — the audit demonstrably fails when the ledgers disagree.
TEST(ObsAuditTest, InjectedDiscrepancyBumpsFailureCounter) {
  MetricsRegistry::Global().Reset();
  SetEnergyAuditFailFast(false);
  EXPECT_FALSE(AuditEnergy("test.injected", 10.0, 12.0));
  EXPECT_TRUE(AuditEnergy("test.agree", 3.0, 3.0));
  MetricsRegistry& reg = MetricsRegistry::Global();
  EXPECT_EQ(reg.counter("audit.energy.checks")->value(), 2);
  EXPECT_EQ(reg.counter("audit.energy.failures")->value(), 1);
}

TEST(ObsAuditDeathTest, FailFastAbortsOnDivergence) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SetEnergyAuditFailFast(true);
        AuditEnergy("test.failfast", 10.0, 12.0);
      },
      "ENERGY LEDGER AUDIT FAILED");
}

// The executor's claimed total must match the simulator's independent
// ledger on a real collection — the audit passes on existing scenarios.
TEST(ObsAuditTest, ExecutorLedgersAgreeOnCollectionScenario) {
  MetricsRegistry::Global().Reset();
  SetEnergyAuditFailFast(true);  // any divergence kills the test hard
  Rng rng(11);
  net::GeometricNetworkOptions geo;
  geo.num_nodes = 50;
  geo.radio_range = 26.0;
  auto topo = net::BuildConnectedGeometricNetwork(geo, &rng).value();
  auto field = data::GaussianField::Random(50, 40, 60, 1, 9, &rng);
  sampling::SampleSet samples = sampling::SampleSet::ForTopK(50, 5);
  for (int s = 0; s < 15; ++s) samples.Add(field.Sample(&rng));
  core::PlannerContext ctx;
  ctx.topology = &topo;
  core::LpFilterPlanner planner;
  auto plan = planner.Plan(ctx, samples, core::PlanRequest{5, 10.0});
  ASSERT_TRUE(plan.ok());

  net::NetworkSimulator sim(&topo, ctx.energy);
  for (int epoch = 0; epoch < 10; ++epoch) {
    std::vector<double> truth = field.Sample(&rng);
    core::ExecutionResult r =
        core::CollectionExecutor::Execute(*plan, truth, &sim);
    EXPECT_GT(r.total_energy_mj(), 0.0);
    sim.ResetStats();
  }
  SetEnergyAuditFailFast(false);

#ifndef PROSPECTOR_OBS_DISABLED
  MetricsRegistry& reg = MetricsRegistry::Global();
  EXPECT_GE(reg.counter("audit.energy.checks")->value(), 10);
  EXPECT_EQ(reg.counter("audit.energy.failures")->value(), 0);
#endif
}

// ---------------------------------------------------------------------------
// Surfaced telemetry: SolveStats, engine tick fields
// ---------------------------------------------------------------------------

TEST(ObsStatsTest, SolveStatsSurfaceThroughPlanner) {
  Rng rng(13);
  net::GeometricNetworkOptions geo;
  geo.num_nodes = 40;
  geo.radio_range = 26.0;
  auto topo = net::BuildConnectedGeometricNetwork(geo, &rng).value();
  auto field = data::GaussianField::Random(40, 40, 60, 1, 9, &rng);
  sampling::SampleSet samples = sampling::SampleSet::ForTopK(40, 5);
  for (int s = 0; s < 12; ++s) samples.Add(field.Sample(&rng));
  core::PlannerContext ctx;
  ctx.topology = &topo;

  core::LpFilterPlanner planner;
  EXPECT_EQ(planner.last_stats().lp.rows, 0);  // zero before any Plan()
  auto plan = planner.Plan(ctx, samples, core::PlanRequest{5, 12.0});
  ASSERT_TRUE(plan.ok());
  const core::PlannerStats& stats = planner.last_stats();
  EXPECT_GT(stats.lp.rows, 0);
  EXPECT_GT(stats.lp.columns, 0);
  EXPECT_GT(stats.lp.total_iterations(), 0);
  EXPECT_GE(stats.lp.blands_activations, 0);
  EXPECT_GE(stats.repair_rounds, 0);
  EXPECT_GE(stats.fill_passes, 0);
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

TEST(ObsFlightTest, SnapshotMergesByEpochSiteSeq) {
  FlightRecorder& fr = FlightRecorder::Global();
  fr.Clear();
  EXPECT_EQ(fr.epoch(), -1);
  fr.Record(FlightKind::kNote, "test.pre", -1, 0.0, 0.0);  // epoch -1
  fr.SetEpoch(3);
  fr.Record(FlightKind::kNote, "test.site.b", 1, 1.5, 2.5);
  fr.Record(FlightKind::kReplan, "test.site.a", 2, 0.25, 0.75);
  fr.SetEpoch(4);
  fr.Record(FlightKind::kHeal, "test.site.a", -1, 9.0, 1.0);

  const std::vector<FlightEvent> events = fr.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].epoch, -1);
  EXPECT_STREQ(events[0].site, "test.pre");
  // Within one epoch, site name breaks the tie before sequence.
  EXPECT_STREQ(events[1].site, "test.site.a");
  EXPECT_EQ(events[1].kind, FlightKind::kReplan);
  EXPECT_EQ(events[1].query_id, 2);
  EXPECT_STREQ(events[2].site, "test.site.b");
  EXPECT_DOUBLE_EQ(events[2].a, 1.5);
  EXPECT_EQ(events[3].epoch, 4);
  fr.Clear();
}

TEST(ObsFlightTest, ClearResetsSequenceCountersForReplayDeterminism) {
  FlightRecorder& fr = FlightRecorder::Global();
  fr.Clear();
  fr.Record(FlightKind::kNote, "test.seq", -1, 1.0, 0.0);
  fr.Record(FlightKind::kNote, "test.seq", -1, 2.0, 0.0);
  const std::vector<FlightEvent> first = fr.Snapshot();
  fr.Clear();
  EXPECT_EQ(fr.epoch(), -1);  // Clear also resets the ambient epoch
  fr.Record(FlightKind::kNote, "test.seq", -1, 1.0, 0.0);
  fr.Record(FlightKind::kNote, "test.seq", -1, 2.0, 0.0);
  const std::vector<FlightEvent> second = fr.Snapshot();
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].seq, second[i].seq);  // bit-identical replays
    EXPECT_DOUBLE_EQ(first[i].a, second[i].a);
  }
  fr.Clear();
}

TEST(ObsFlightTest, RingDropsOldestAndCountsDrops) {
  FlightRecorder& fr = FlightRecorder::Global();
  fr.Clear();
  fr.SetCapacity(4);
  for (int i = 0; i < 6; ++i) {
    fr.Record(FlightKind::kNote, "test.ring", -1, static_cast<double>(i), 0.0);
  }
  const std::vector<FlightEvent> events = fr.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_DOUBLE_EQ(events.front().a, 2.0);  // 0 and 1 rolled off
  EXPECT_DOUBLE_EQ(events.back().a, 5.0);
  EXPECT_EQ(fr.dropped(), 2);
  fr.SetCapacity(FlightRecorder::kDefaultCapacity);
  fr.Clear();
}

TEST(ObsFlightTest, DumpJsonCarriesSchemaColumnsAndEvents) {
  FlightRecorder& fr = FlightRecorder::Global();
  fr.Clear();
  fr.SetEpoch(1);
  fr.Record(FlightKind::kGuardReject, "test.dump", 7, 0.5, 1.0);
  // A failed ledger audit records its NaN divergence as a payload; the
  // dump must stay parseable JSON.
  fr.Record(FlightKind::kAudit, "test.nan", -1, std::nan(""),
            std::numeric_limits<double>::infinity());
  const util::Json json = MustParse(fr.DumpJson());
  EXPECT_EQ(Keys(json), (std::vector<std::string>{"schema_version", "dropped",
                                                  "columns", "events"}));
  EXPECT_EQ(json.at("schema_version").number(), 1);
  EXPECT_EQ(json.at("dropped").number(), 0);
  EXPECT_EQ(json.at("columns").Dump(-1),
            R"(["epoch","site","kind","seq","query","a","b"])");
  const util::Json& events = json.at("events");
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].Dump(-1), R"([1,"test.dump","guard_reject",0,7,0.5,1])");
  EXPECT_EQ(events[1].Dump(-1), R"([1,"test.nan","audit",1,-1,null,null])");
  fr.Clear();
}

// ---------------------------------------------------------------------------
// OpenMetrics exposition
// ---------------------------------------------------------------------------

TEST(ObsOpenMetricsTest, NameSanitization) {
  EXPECT_EQ(OpenMetricsName("session.replans"), "prospector_session_replans");
  EXPECT_EQ(OpenMetricsName("a-b c/d"), "prospector_a_b_c_d");
}

TEST(ObsOpenMetricsTest, RendersCountersGaugesAndCumulativeBuckets) {
  MetricsRegistry reg;
  reg.counter("test.count")->Add(3);
  reg.gauge("test.gauge")->Set(2.5);
  // Non-finite samples take OpenMetrics' spelling, not printf's nan/inf.
  reg.gauge("test.nan")->Set(std::numeric_limits<double>::quiet_NaN());
  reg.gauge("test.pos_inf")->Set(std::numeric_limits<double>::infinity());
  reg.gauge("test.neg_inf")->Set(-std::numeric_limits<double>::infinity());
  Histogram* h = reg.histogram("test.hist");
  h->Record(0.5);  // bucket 0 (le 1)
  h->Record(3.0);  // bucket 2 (le 4)

  const std::string text = ToOpenMetrics(reg.Snapshot());
  EXPECT_NE(text.find("# TYPE prospector_test_count counter"),
            std::string::npos);
  EXPECT_NE(text.find("prospector_test_count_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE prospector_test_gauge gauge"),
            std::string::npos);
  EXPECT_NE(text.find("prospector_test_gauge 2.5"), std::string::npos);
  EXPECT_NE(text.find("prospector_test_nan NaN\n"), std::string::npos);
  EXPECT_NE(text.find("prospector_test_pos_inf +Inf\n"), std::string::npos);
  EXPECT_NE(text.find("prospector_test_neg_inf -Inf\n"), std::string::npos);
  // Buckets are cumulative and close with +Inf, _count, _sum.
  EXPECT_NE(text.find("prospector_test_hist_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("prospector_test_hist_bucket{le=\"4\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("prospector_test_hist_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("prospector_test_hist_count 2"), std::string::npos);
  EXPECT_NE(text.find("prospector_test_hist_sum 3.5"), std::string::npos);
  // A complete exposition terminates with EOF; the body variant does not.
  EXPECT_EQ(text.rfind("# EOF\n"), text.size() - 6);
  const std::string body = ToOpenMetricsBody(reg.Snapshot());
  EXPECT_EQ(body.find("# EOF"), std::string::npos);
  EXPECT_EQ(text, body + "# EOF\n");
}

TEST(ObsOpenMetricsTest, EqualStateRendersByteIdentically) {
  const auto build = [] {
    MetricsRegistry reg;
    reg.counter("test.b")->Add(2);
    reg.counter("test.a")->Increment();
    reg.histogram("test.h")->Record(7.0);
    return ToOpenMetrics(reg.Snapshot());
  };
  EXPECT_EQ(build(), build());
}

// ---------------------------------------------------------------------------
// Histogram sum compensation (satellite: Kahan/Neumaier fix)
// ---------------------------------------------------------------------------

TEST(ObsMetricsTest, HistogramSumSurvivesCatastrophicCancellation) {
  // Naive accumulation yields 0.0 here; plain Kahan also fails (the large
  // magnitude arrives second). Neumaier keeps the two small terms.
  Histogram h;
  h.Record(1.0);
  h.Record(1e100);
  h.Record(1.0);
  h.Record(-1e100);
  EXPECT_DOUBLE_EQ(h.Snapshot().sum, 2.0);
}

TEST(ObsMetricsTest, HistogramSumKeepsSmallAddendsOnLargeBase) {
  Histogram h;
  h.Record(1e16);  // ULP is 2: every naive +1.0 below would vanish
  for (int i = 0; i < 1000; ++i) h.Record(1.0);
  const double sum = h.Snapshot().sum;
  EXPECT_DOUBLE_EQ(sum, 1e16 + 1000.0);
  EXPECT_NE(sum, 1e16);
  // Reset clears the compensation term along with the raw sum.
  h.Reset();
  h.Record(2.0);
  EXPECT_DOUBLE_EQ(h.Snapshot().sum, 2.0);
}

TEST(ObsSessionTest, TickSurfacesRecallAndReplanLatency) {
  Rng rng(19);
  net::GeometricNetworkOptions geo;
  geo.num_nodes = 50;
  geo.radio_range = 26.0;
  auto topo = net::BuildConnectedGeometricNetwork(geo, &rng).value();
  auto field = data::GaussianField::Random(50, 40, 60, 1, 9, &rng);

  core::QueryEngineOptions opts;
  opts.bootstrap_sweeps = 4;
  core::QueryEngine engine(&topo, {}, {}, opts, 23);
  core::QuerySpec spec;
  spec.k = 5;
  spec.energy_budget_mj = 10.0;
  spec.audit_every = 5;
  engine.AddQuery(spec);

  int scored_epochs = 0;
  for (int t = 0; t < 30; ++t) {
    auto r = engine.Tick(field.Sample(&rng));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const core::QueryEngine::QueryTickResult& q = r->per_query[0];
    using Kind = core::QueryEngine::QueryEpochKind;
    if (q.kind == Kind::kQuery || q.kind == Kind::kAudit) {
      EXPECT_GE(q.recall, 0.0);
      EXPECT_LE(q.recall, 1.0);
      ++scored_epochs;
    } else {
      EXPECT_LT(q.recall, 0.0);  // no answer, no recall
    }
    EXPECT_GE(q.replan_latency_ms, 0.0);
    if (!q.replanned) {
      EXPECT_DOUBLE_EQ(q.replan_latency_ms, 0.0);
    }
  }
  EXPECT_GT(scored_epochs, 15);
}

}  // namespace
}  // namespace obs
}  // namespace prospector
