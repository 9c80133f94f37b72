// The population layer of the simulator-core differential (DESIGN.md §13):
// the same population on the event core and on the fixed-tick reference
// must render byte-identical reports. The config leans on every path a
// tower can take: shared links on two profiles, a flash crowd, the hardened
// origin tier with a primary blackout, wire resets, and per-session
// diagnosis folded into the timeline's blame series.
#include <gtest/gtest.h>

#include <string>

#include "faults/fault_plan.h"
#include "origin/origin.h"
#include "pop/pop_timeline.h"
#include "pop/population.h"

namespace vodx::pop {
namespace {

PopulationConfig differential_config(net::SimCore core) {
  PopulationConfig config;
  config.towers = {3, 7};
  config.seed = 5;
  config.horizon = 120;
  config.arrivals.rate_per_min = 20;
  config.arrivals.flash_at = 40;
  config.arrivals.flash_arrivals = 12;
  config.collect_timeline = true;
  config.diagnose = true;
  config.origin = origin::preset(origin::Mode::kHardened);
  config.fault_plan = faults::scenario("resets");
  config.fault_plan.dc_blackouts.push_back(faults::DcBlackoutFault{30, 15});
  config.jobs = 2;
  config.sim_core = core;
  return config;
}

TEST(PopulationCore, EventAndFixedTickCoresRenderIdenticalReports) {
  const PopulationReport event =
      run_population(differential_config(net::SimCore::kEvent));
  const PopulationReport fixed =
      run_population(differential_config(net::SimCore::kFixedTickReference));
  ASSERT_GT(event.total_sessions, 0);
  ASSERT_TRUE(event.diagnosed);
  ASSERT_GT(event.diag.cells, 0) << "diagnosis must actually run";

  EXPECT_EQ(population_text(event), population_text(fixed));
  EXPECT_EQ(population_jsonl(event), population_jsonl(fixed));
  EXPECT_EQ(population_timeline_csv(event), population_timeline_csv(fixed));
}

}  // namespace
}  // namespace vodx::pop
