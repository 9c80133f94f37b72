// Delta-debugging minimizer against synthetic oracles (no sessions): the
// result is always oracle-confirmed, irrelevant faults are dropped, and the
// run budget is a hard bound.
#include "chaos/minimize.h"

#include <gtest/gtest.h>

#include <functional>

namespace vodx::chaos {
namespace {

/// 2 resets + 2 latency + 1 blackout, all whole-session.
faults::FaultPlan five_fault_plan() {
  faults::FaultPlan plan;
  plan.name = "synthetic";
  plan.resets.push_back({{}, 0.5, 0.5});
  plan.resets.push_back({{}, 0.3, 0.8});
  plan.latency.push_back({{}, 1.0, 0.5, 1.0});
  plan.latency.push_back({{}, 2.0, 0.0, 1.0});
  plan.blackouts.push_back({10, 10});
  return plan;
}

TEST(Minimize, FaultCountSpansAllKinds) {
  EXPECT_EQ(fault_count({}), 0u);
  EXPECT_EQ(fault_count(five_fault_plan()), 5u);
}

TEST(Minimize, DropsEverythingTheOracleDoesNotNeed) {
  // The "bug" needs one reset AND one latency fault; everything else is
  // noise the drop phase must remove.
  const auto oracle = [](const faults::FaultPlan& plan) {
    return !plan.resets.empty() && !plan.latency.empty();
  };
  const MinimizeResult result = minimize(five_fault_plan(), oracle);
  EXPECT_EQ(fault_count(result.plan), 2u);
  EXPECT_EQ(result.plan.resets.size(), 1u);
  EXPECT_EQ(result.plan.latency.size(), 1u);
  EXPECT_EQ(result.dropped, 3);
  EXPECT_TRUE(oracle(result.plan)) << "result must be oracle-confirmed";
  EXPECT_EQ(result.plan.name, "synthetic-min");
}

TEST(Minimize, SingleRelevantFaultSurvives) {
  faults::FaultPlan plan;
  plan.name = "one";
  plan.errors.push_back({{}, 503, 0.9});
  const auto oracle = [](const faults::FaultPlan& candidate) {
    return !candidate.errors.empty();
  };
  const MinimizeResult result = minimize(plan, oracle);
  ASSERT_EQ(result.plan.errors.size(), 1u);
  EXPECT_TRUE(oracle(result.plan));
}

TEST(Minimize, SofteningHalvesIntensitiesTowardTheFloor) {
  faults::FaultPlan plan;
  plan.errors.push_back({{}, 503, 0.8});
  // The violation persists at any probability: softening should walk the
  // probability down to (or just past) the 0.1 floor.
  const auto oracle = [](const faults::FaultPlan& candidate) {
    return !candidate.errors.empty();
  };
  const MinimizeResult result = minimize(plan, oracle);
  ASSERT_EQ(result.plan.errors.size(), 1u);
  EXPECT_LE(result.plan.errors[0].probability, 0.1 + 1e-9);
}

TEST(Minimize, NarrowingTightensWindowsWhileTheOracleHolds)
{
  faults::FaultPlan plan;
  faults::ErrorFault fault;
  fault.match.start = 0;
  fault.match.end = 100;
  fault.probability = 1.0;
  plan.errors.push_back(fault);
  const auto oracle = [](const faults::FaultPlan& candidate) {
    return !candidate.errors.empty();
  };
  const MinimizeResult result = minimize(plan, oracle);
  ASSERT_EQ(result.plan.errors.size(), 1u);
  const faults::Match& match = result.plan.errors[0].match;
  EXPECT_LT(match.end - match.start, 100.0)
      << "a window the oracle never needs full-width should shrink";
}

TEST(Minimize, RespectsTheRunBudget) {
  int calls = 0;
  const auto oracle = [&calls](const faults::FaultPlan& plan) {
    ++calls;
    return !plan.resets.empty() && !plan.latency.empty();
  };
  const MinimizeResult result =
      minimize(five_fault_plan(), oracle, /*max_runs=*/5);
  EXPECT_LE(calls, 5);
  EXPECT_EQ(result.runs, calls);
  EXPECT_TRUE(oracle(result.plan)) << "even a truncated shrink stays confirmed";
}

TEST(Minimize, OracleThatNeedsEverythingDropsNothing) {
  const auto oracle = [](const faults::FaultPlan& plan) {
    return fault_count(plan) >= 5;
  };
  const MinimizeResult result = minimize(five_fault_plan(), oracle);
  EXPECT_EQ(fault_count(result.plan), 5u);
  EXPECT_EQ(result.dropped, 0);
}

}  // namespace
}  // namespace vodx::chaos
