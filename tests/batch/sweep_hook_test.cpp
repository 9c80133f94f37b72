// The sweep engine's per-cell observe hook under self-healing retries: the
// hook sees only the final attempt's observer, and cells that never
// succeed still reach it, so sweep diagnoses count them as failed.
#include <gtest/gtest.h>

#include <cstdint>

#include "batch/sweep.h"
#include "diag/rollup.h"
#include "obs/export.h"
#include "testing/fixtures.h"

namespace vodx::batch {
namespace {

SweepConfig one_cell() {
  SweepConfig config;
  config.services = {testing::test_spec(manifest::Protocol::kHls)};
  config.profiles = {1};
  config.session_duration = 20;
  config.content_duration = 60;
  return config;
}

/// What the hook saw of the grid's only cell.
struct Seen {
  int calls = 0;
  std::uint64_t emitted = 0;
};

void observe_into(SweepConfig& config, Seen& seen) {
  config.observe = [&seen](std::size_t index, const CellResult&,
                           const obs::Observer& observer) {
    EXPECT_EQ(index, 0u);
    ++seen.calls;
    seen.emitted = observer.trace.emitted();
  };
}

TEST(SweepHook, RetryHandsTheHookOnlyTheSuccessfulAttemptsObserver) {
  SweepConfig config = one_cell();
  Seen clean;
  observe_into(config, clean);
  const SweepResult unretried = run_sweep(config);
  ASSERT_TRUE(unretried.cells[0].ok) << unretried.cells[0].error;
  ASSERT_EQ(unretried.cells[0].attempts, 1);
  ASSERT_GT(clean.emitted, 0u);

  // A generous sweep-wide budget that the first attempt's prepare shrinks
  // to nothing: the watchdog aborts that attempt and the retry runs clean.
  config.cell_wall_budget = 600;
  config.cell_retries = 1;
  int attempts = 0;
  config.prepare = [&attempts](const Cell&, core::SessionConfig& session) {
    if (attempts++ == 0) session.wall_budget = 1e-9;
  };
  Seen retried;
  observe_into(config, retried);
  const SweepResult result = run_sweep(config);
  ASSERT_EQ(result.cells.size(), 1u);
  const CellResult& cell = result.cells[0];
  ASSERT_TRUE(cell.ok) << cell.error;
  EXPECT_EQ(cell.attempts, 2);
  EXPECT_EQ(result.retried, 1);

  EXPECT_EQ(retried.calls, 1) << "once per cell, not once per attempt";
  EXPECT_EQ(retried.emitted, clean.emitted)
      << "the aborted attempt's events must not reach the hook";
  EXPECT_EQ(cell.trace_emitted, clean.emitted);
  EXPECT_EQ(obs::metrics_json(cell.metrics),
            obs::metrics_json(unretried.cells[0].metrics));
}

TEST(SweepHook, QuarantinedCellCountsAsFailedInDiagnoseSweep) {
  SweepConfig config = one_cell();
  config.profiles = {1, 7};
  config.cell_retries = 1;
  config.prepare = [](const Cell& cell, core::SessionConfig& session) {
    if (cell.profile_index == 1) session.wall_budget = 1e-9;
  };
  for (int jobs : {1, 2}) {
    config.jobs = jobs;
    const diag::SweepDiagnosis diagnosis = diag::diagnose_sweep(config);
    EXPECT_EQ(diagnosis.total_cells, 2) << "jobs=" << jobs;
    EXPECT_EQ(diagnosis.failed, 1) << "jobs=" << jobs;
    EXPECT_EQ(diagnosis.overall.cells, 1) << "jobs=" << jobs;
  }
}

}  // namespace
}  // namespace vodx::batch
