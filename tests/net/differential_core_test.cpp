// Differential tests: the event-driven core vs the fixed-tick reference.
//
// Every observable output — SessionResult, ground-truth and inferred QoE,
// player events, fault stats, metrics snapshots and the serialized sweep
// documents — must be identical across net::SimCore::kEvent and
// net::SimCore::kFixedTickReference for the same grid. These tests sweep
// deliberately diverse slices of (service × profile × seed × fault
// scenario): different protocols, persistent vs non-persistent connections,
// parallel segment downloads, separate-audio pipelines, and every fault
// scenario in the catalog. The 600 s grids below are where the event core
// replays whole stretches of in-flight TCP transfers as skipped spans.
#include <gtest/gtest.h>

#include "testing/differential.h"

namespace vodx {
namespace {

TEST(DifferentialCore, CatalogServicesMatch) {
  testing::DifferentialGrid grid;
  // One service per architecture family: HLS persistent (H1), HLS
  // non-persistent (H2), DASH with parallel downloads (D1), Smooth with
  // separate audio and a tight resume threshold (S2).
  grid.services = {"H1", "H2", "D1", "S2"};
  grid.profiles = {7, 3};
  grid.duration = 60;
  const testing::DifferentialResult result = testing::run_differential(grid);
  EXPECT_TRUE(result.ok()) << result.summary();
  EXPECT_EQ(result.event.cells.size(), 8u);
}

TEST(DifferentialCore, SweepSeedsMatch) {
  testing::DifferentialGrid grid;
  grid.services = {"H3", "D4"};
  grid.profiles = {1, 10};
  grid.seeds = {0, 7, 123};
  grid.duration = 60;
  const testing::DifferentialResult result = testing::run_differential(grid);
  EXPECT_TRUE(result.ok()) << result.summary();
  EXPECT_EQ(result.event.cells.size(), 12u);
}

TEST(DifferentialCore, FaultScenariosMatch) {
  testing::DifferentialGrid grid;
  grid.services = {"H1", "D2"};
  grid.profiles = {7};
  grid.seeds = {0, 1};
  // Every catalog scenario; 150 s so the first blackout window (120 s) is
  // inside the session.
  grid.fault_scenarios.clear();
  for (const faults::Scenario& s : faults::scenario_catalog()) {
    grid.fault_scenarios.push_back(s.name);
  }
  grid.duration = 150;
  const testing::DifferentialResult result = testing::run_differential(grid);
  EXPECT_TRUE(result.ok()) << result.summary();
  EXPECT_EQ(result.event.cells.size(),
            2u * 2u * faults::scenario_catalog().size());
}

// Streaming spans: 600 s sessions on a fast and a slow profile, through a
// non-persistent service (a handshake and slow start per segment), six
// parallel connections (D1) and split sub-range downloads (D3).
TEST(DifferentialCore, StreamingSpansMatchOnLongSessions) {
  testing::DifferentialGrid grid;
  grid.services = {"H2", "D1", "D3"};
  grid.profiles = {11, 14};
  grid.duration = 600;
  const testing::DifferentialResult result = testing::run_differential(grid);
  EXPECT_TRUE(result.ok()) << result.summary();
  EXPECT_EQ(result.event.cells.size(), 6u);
}

// The same kind of grid traced: every link, tcp, http and player event must
// land on the same tick with the same fields on both cores.
TEST(DifferentialCore, StreamingSpansMatchTraced) {
  testing::DifferentialGrid grid;
  grid.services = {"H1", "D1", "D3"};
  grid.profiles = {11, 14};
  grid.duration = 600;
  grid.traced = true;
  const testing::DifferentialResult result = testing::run_differential(grid);
  EXPECT_TRUE(result.ok()) << result.summary();
  ASSERT_EQ(result.event.cells.size(), 6u);
  for (const batch::CellResult& cell : result.event.cells) {
    EXPECT_GT(cell.trace_emitted, 0u) << cell.coordinates();
  }
}

// Hardened players (fetch timeouts, jittered retries) under mid-transfer
// resets and link blackouts: timeout deadlines, retry eligibility and
// zero-capacity stretches all have to end spans on time.
TEST(DifferentialCore, HardenedFaultSpansMatch) {
  testing::DifferentialGrid grid;
  grid.services = {"H1", "D3"};
  grid.profiles = {11, 14};
  grid.fault_scenarios = {"resets", "blackout"};
  grid.duration = 600;
  grid.hardened = true;
  const testing::DifferentialResult result = testing::run_differential(grid);
  EXPECT_TRUE(result.ok()) << result.summary();
  EXPECT_EQ(result.event.cells.size(), 8u);
  grid.traced = true;
  const testing::DifferentialResult traced = testing::run_differential(grid);
  EXPECT_TRUE(traced.ok()) << traced.summary();
}

}  // namespace
}  // namespace vodx
