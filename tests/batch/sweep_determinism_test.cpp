// The determinism contract, enforced end to end: the serialized output of a
// sweep must not depend on the worker count, on repetition, or on anything
// but the grid and its seeds. See DESIGN.md §8.
#include <gtest/gtest.h>

#include <string>

#include "batch/sweep.h"
#include "common/strings.h"
#include "core/report.h"
#include "testing/fixtures.h"

namespace vodx::batch {
namespace {

/// The full 12-service × 14-profile paper grid, shortened sessions so the
/// three sweeps stay test-suite friendly (the artefact harnesses run the
/// full 600 s).
SweepConfig paper_grid(int jobs) {
  SweepConfig config = full_grid();
  config.session_duration = 120;
  config.jobs = jobs;
  return config;
}

/// Everything observable about a session, serialized: QoE row, the inferred
/// buffer timeline, and the ground-truth event counts.
std::string session_fingerprint(const core::SessionResult& r) {
  return core::qoe_csv("cell", r) + core::buffer_csv(r) +
         format("replacements:%zu stalls:%zu displayed:%zu final:%.4f "
                "end:%.4f start:%.4f",
                r.events.replacements.size(), r.events.stalls.size(),
                r.events.displayed.size(), r.final_position, r.session_end,
                r.events.playback_started);
}

TEST(SweepDeterminism, FullGridByteIdenticalAcrossJobCounts) {
  const SweepResult serial = run_sweep(paper_grid(1));
  ASSERT_EQ(serial.cells.size(),
            static_cast<std::size_t>(12 * trace::kProfileCount));
  ASSERT_EQ(serial.failed, 0);
  const std::string csv1 = sweep_csv(serial);
  const std::string jsonl1 = sweep_jsonl(serial);

  for (int jobs : {2, 8}) {
    const SweepResult parallel = run_sweep(paper_grid(jobs));
    EXPECT_EQ(parallel.failed, 0);
    EXPECT_EQ(sweep_csv(parallel), csv1) << "jobs=" << jobs;
    EXPECT_EQ(sweep_jsonl(parallel), jsonl1) << "jobs=" << jobs;
  }
}

TEST(SweepDeterminism, RepeatedSweepIsByteIdentical) {
  SweepConfig config = full_grid();
  config.services = {services::catalog()[0], services::catalog()[7]};
  config.session_duration = 60;
  config.jobs = 3;
  const SweepResult a = run_sweep(config);
  const SweepResult b = run_sweep(config);
  EXPECT_EQ(sweep_csv(a), sweep_csv(b));
  EXPECT_EQ(sweep_jsonl(a), sweep_jsonl(b));
}

TEST(SweepDeterminism, SameSeedSessionIsIdentical) {
  core::SessionConfig config;
  config.spec = testing::test_spec(manifest::Protocol::kDash);
  config.trace = trace::cellular_profile(5);
  config.session_duration = 120;
  config.content_duration = 120;
  const core::SessionResult a = core::run_session(config);
  const core::SessionResult b = core::run_session(config);
  EXPECT_EQ(session_fingerprint(a), session_fingerprint(b));
}

TEST(SweepDeterminism, SeededCellsMatchAcrossSweeps) {
  // A cell's result depends only on its coordinates: the same (service,
  // profile, seed) embedded in two different grids serializes identically.
  SweepConfig wide = full_grid();
  wide.services = {services::catalog()[2]};
  wide.profiles = {3, 6, 9};
  wide.seeds = {1, 4};
  wide.session_duration = 60;
  wide.jobs = 4;

  SweepConfig narrow = wide;
  narrow.profiles = {6};
  narrow.seeds = {4};
  narrow.jobs = 1;

  const SweepResult w = run_sweep(wide);
  const SweepResult n = run_sweep(narrow);
  ASSERT_EQ(n.cells.size(), 1u);
  const CellResult* match = nullptr;
  for (const CellResult& cell : w.cells) {
    if (cell.profile_id == 6 && cell.seed == 4) match = &cell;
  }
  ASSERT_NE(match, nullptr);
  EXPECT_EQ(session_fingerprint(match->result),
            session_fingerprint(n.cells[0].result));
}

}  // namespace
}  // namespace vodx::batch
