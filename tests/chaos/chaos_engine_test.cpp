// The chaos engine end to end: jobs-independence of the report, the
// detect -> minimize -> repro pipeline against a hook-injected violation,
// and deterministic watchdog aborts.
#include "chaos/chaos.h"

#include <gtest/gtest.h>

#include <string>

#include "common/error.h"

namespace vodx::chaos {
namespace {

ChaosConfig quick_config(std::vector<std::uint64_t> seeds) {
  ChaosConfig config;
  config.seeds = std::move(seeds);
  config.services = {"H1", "D1"};
  config.profiles = {1, 7};
  config.duration = 15;
  config.wall_budget = 0;  // tests bound their own runtime
  return config;
}

TEST(ChaosEngine, SeedAloneDeterminesServiceProfileAndPlan) {
  ChaosConfig config = quick_config({0, 1, 2, 3});
  const ChaosReport a = run_chaos(config);
  const ChaosReport b = run_chaos(config);
  ASSERT_EQ(a.rows.size(), 4u);
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_EQ(a.rows[i].seed, config.seeds[i]);
    EXPECT_EQ(a.rows[i].service, b.rows[i].service);
    EXPECT_EQ(a.rows[i].profile_id, b.rows[i].profile_id);
    EXPECT_EQ(a.rows[i].plan, b.rows[i].plan);
    EXPECT_EQ(a.rows[i].ok, b.rows[i].ok);
  }
  EXPECT_EQ(chaos_report_text(a), chaos_report_text(b));
}

TEST(ChaosEngine, ReportIsByteIdenticalAcrossJobCounts) {
  ChaosConfig config = quick_config({0, 1, 2, 3, 4, 5, 6, 7});
  config.jobs = 1;
  const std::string serial = chaos_report_text(run_chaos(config));
  config.jobs = 4;
  const std::string parallel = chaos_report_text(run_chaos(config));
  EXPECT_EQ(serial, parallel);
}

TEST(ChaosEngine, MakeSessionRejectsBadCoordinates) {
  EXPECT_THROW(make_session("H1", 0, 30, 1, {}), ConfigError);
  EXPECT_THROW(make_session("H1", 99, 30, 1, {}), ConfigError);
  EXPECT_THROW(make_session("NOPE", 7, 30, 1, {}), ConfigError);
}

TEST(ChaosEngine, TraceAndContentSeedsArePureAndDistinct) {
  EXPECT_EQ(chaos_trace_seed(5), chaos_trace_seed(5));
  EXPECT_NE(chaos_trace_seed(5), chaos_trace_seed(6));
  EXPECT_NE(chaos_trace_seed(5), chaos_content_seed(5));
}

// The full pipeline, driven by a synthetic bug: the hook "fails" whenever
// the session ran under a plan carrying both a reset and a latency fault.
// The engine must catch it, shrink the plan to the two faults that matter,
// and emit an artifact whose replay still reproduces the violation.
TEST(ChaosEngine, HookViolationIsMinimizedAndReplaysFromArtifact) {
  // Find a seed whose generated plan has the reset+latency pair plus noise
  // to shrink away (pure search, no sessions).
  std::uint64_t seed = 0;
  bool found = false;
  for (; seed < 512; ++seed) {
    const faults::FaultPlan plan = generate_plan(seed);
    if (!plan.resets.empty() && !plan.latency.empty() &&
        fault_count(plan) >= 4) {
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found) << "no seed under 512 draws reset+latency+noise";

  const TestHook hook = [](const core::SessionConfig& config,
                           const core::SessionResult&, const obs::Observer&,
                           InvariantReport& report) {
    if (config.fault_plan && !config.fault_plan->resets.empty() &&
        !config.fault_plan->latency.empty()) {
      report.violations.push_back(
          {"hook.reset_latency", "synthetic pairing bug", 0});
    }
  };

  ChaosConfig config = quick_config({seed});
  config.duration = 10;
  config.test_hook = hook;
  const ChaosReport report = run_chaos(config);
  ASSERT_EQ(report.rows.size(), 1u);
  const ChaosRow& row = report.rows[0];
  EXPECT_EQ(report.violations, 1);
  EXPECT_FALSE(row.ok);
  EXPECT_NE(row.invariants.find("hook.reset_latency"), std::string::npos);
  ASSERT_TRUE(row.minimized);
  EXPECT_LE(row.minimized_faults, 2u);
  EXPECT_GT(row.minimize_runs, 0);
  EXPECT_LT(row.minimized_faults, row.faults);

  // The artifact is self-contained: parse it back from its own JSON and
  // replay — the violation must still fire.
  const ReproArtifact artifact = parse_repro(to_json(row.artifact));
  EXPECT_EQ(artifact.chaos_seed, seed);
  EXPECT_EQ(artifact.service, row.service);
  const CheckedRun replayed = replay(artifact, config);
  EXPECT_FALSE(replayed.ok());
  ASSERT_FALSE(replayed.report.violations.empty());
  EXPECT_EQ(replayed.report.violations[0].invariant, "hook.reset_latency");
}

TEST(ChaosEngine, RunCheckedNeverLetsASessionExceptionEscape) {
  // A degenerate config (negative duration) must come back as a report —
  // clean or violated — never as an exception out of run_checked.
  core::SessionConfig config = make_session("H1", 7, 5, 1, {});
  config.session_duration = -1;
  EXPECT_NO_THROW({
    const CheckedRun run = run_checked(config);
    (void)run;
  });
}

TEST(ChaosEngine, TinyWallBudgetTripsTheWatchdogAndSkipsMinimization) {
  ChaosConfig config = quick_config({0, 1});
  config.duration = 30;
  config.wall_budget = 1e-9;  // any session exceeds this at the first check
  const ChaosReport report = run_chaos(config);
  ASSERT_EQ(report.rows.size(), 2u);
  EXPECT_EQ(report.watchdogs, 2);
  EXPECT_EQ(report.violations, 0);
  EXPECT_FALSE(report.ok());
  for (const ChaosRow& row : report.rows) {
    EXPECT_TRUE(row.watchdog);
    EXPECT_FALSE(row.ok);
    EXPECT_FALSE(row.minimized) << "watchdog aborts are not minimized";
    EXPECT_NE(row.detail.find("watchdog"), std::string::npos);
    EXPECT_EQ(row.artifact.invariants, "watchdog");
  }
  const std::string text = chaos_report_text(report);
  EXPECT_NE(text.find("WATCHDOG"), std::string::npos);
  EXPECT_NE(text.find("2 watchdog abort(s)"), std::string::npos);
}

// Replay runs under the watchdogs of the campaign config it is handed: the
// same clean artifact is a watchdog abort under a budget nothing can meet
// and clean without one. `vodx chaos --repro --budget` relies on this.
TEST(ChaosEngine, ReplayRunsUnderTheCampaignWatchdog) {
  ReproArtifact artifact;
  artifact.service = "H1";
  artifact.profile_id = 7;
  artifact.duration = 15;
  artifact.chaos_seed = 1;

  ChaosConfig config = quick_config({});
  const CheckedRun clean = replay(artifact, config);
  EXPECT_TRUE(clean.ok()) << "the artifact must be clean on its own";

  config.wall_budget = 1e-9;  // any session exceeds this at the first check
  const CheckedRun aborted = replay(artifact, config);
  EXPECT_TRUE(aborted.watchdog);
  EXPECT_FALSE(aborted.ok());
  EXPECT_NE(aborted.watchdog_detail.find("watchdog"), std::string::npos);
}

TEST(ChaosEngine, ReportTextIsStableAndNamesEveryRow) {
  ChaosConfig config = quick_config({3, 4});
  const ChaosReport report = run_chaos(config);
  const std::string text = chaos_report_text(report);
  EXPECT_NE(text.find("chaos: 2 seed(s)"), std::string::npos);
  for (const ChaosRow& row : report.rows) {
    EXPECT_NE(text.find(row.service), std::string::npos);
  }
}

}  // namespace
}  // namespace vodx::chaos
