// Exact work ledger of the event core.
//
// How many grid ticks the simulator executes for a fixed session is a pure
// function of the code: the same on every machine, at any load. Pinning it
// turns a skip regression (a wake that got more conservative, a client that
// went dense again) into a count diff instead of timing noise. The covered
// count is the session length on the 10 ms grid, on both cores.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/session_factory.h"
#include "net/link.h"
#include "net/simulator.h"

namespace vodx {
namespace {

struct Ledger {
  std::uint64_t executed = 0;
  std::uint64_t covered = 0;
};

/// One 600 s catalog session (H1, profile 7, sweep seed 0's trace and
/// content seeds), wired the way core::run_session wires it.
Ledger run_catalog_session(net::SimCore core) {
  core::SessionFactory factory;
  factory.sim_core = core;
  const core::SessionConfig config =
      factory.config("H1", 7, /*trace_seed=*/2017, /*content_seed=*/42);
  net::Simulator sim(config.tick);
  sim.set_core(config.sim_core);
  net::Link link(sim, config.trace, config.rtt);
  core::HostedSession session(sim, link, config);
  session.start();
  sim.run_until(config.session_duration);
  return {sim.ticks_executed(), sim.ticks_covered()};
}

TEST(WorkLedger, CatalogSessionTickCountsArePinned) {
  const Ledger event = run_catalog_session(net::SimCore::kEvent);
  EXPECT_EQ(event.covered, 60000u);
  EXPECT_EQ(event.executed, 1831u);
  const Ledger fixed = run_catalog_session(net::SimCore::kFixedTickReference);
  EXPECT_EQ(fixed.covered, event.covered);
  EXPECT_EQ(fixed.executed, fixed.covered);
}

}  // namespace
}  // namespace vodx
