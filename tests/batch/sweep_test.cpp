#include "batch/sweep.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/strings.h"
#include "testing/fixtures.h"
#include "testing/json_lines.h"

namespace vodx::batch {
namespace {

/// A fast grid: tiny sessions, two synthetic services.
SweepConfig small_grid(std::vector<int> profiles = {1, 7},
                       std::vector<std::uint64_t> seeds = {0}) {
  SweepConfig config;
  services::ServiceSpec hls = testing::test_spec(manifest::Protocol::kHls);
  services::ServiceSpec dash = testing::test_spec(manifest::Protocol::kDash);
  hls.name = "TH";
  hls.player.name = "TH";
  dash.name = "TD";
  dash.player.name = "TD";
  config.services = {hls, dash};
  config.profiles = std::move(profiles);
  config.seeds = std::move(seeds);
  config.session_duration = 30;
  config.content_duration = 120;
  return config;
}

TEST(SweepEngine, DeriveSeedIsPureAndTagSeparated) {
  EXPECT_EQ(derive_seed(1, 2, 3, 4), derive_seed(1, 2, 3, 4));
  EXPECT_NE(derive_seed(1, 2, 3, 4), derive_seed(1, 2, 3, 5));
  EXPECT_NE(derive_seed(1, 2, 3, 4), derive_seed(1, 2, 4, 3));
  EXPECT_NE(derive_seed(1, 2), derive_seed(2, 1));
  EXPECT_NE(derive_seed(42, 1), 42u);
}

TEST(SweepEngine, SeedZeroMapsToLegacySeeds) {
  EXPECT_EQ(trace_seed_for(0), kLegacyTraceSeed);
  EXPECT_EQ(content_seed_for(0), kLegacyContentSeed);
  EXPECT_NE(trace_seed_for(1), kLegacyTraceSeed);
  EXPECT_NE(content_seed_for(1), kLegacyContentSeed);
  // Trace and content streams must never collapse onto each other.
  EXPECT_NE(trace_seed_for(1), content_seed_for(1));
  EXPECT_NE(trace_seed_for(7), trace_seed_for(8));
}

TEST(SweepEngine, GridOrderIsServiceMajorThenProfileThenSeed) {
  SweepConfig config = small_grid({1, 7}, {0, 3});
  SweepResult result = run_sweep(config);
  ASSERT_EQ(result.cells.size(), 8u);
  const char* expected_service[] = {"TH", "TH", "TH", "TH",
                                    "TD", "TD", "TD", "TD"};
  const int expected_profile[] = {1, 1, 7, 7, 1, 1, 7, 7};
  const std::uint64_t expected_seed[] = {0, 3, 0, 3, 0, 3, 0, 3};
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const CellResult& cell = result.cells[i];
    EXPECT_EQ(cell.service, expected_service[i]) << "cell " << i;
    EXPECT_EQ(cell.profile_id, expected_profile[i]) << "cell " << i;
    EXPECT_EQ(cell.seed, expected_seed[i]) << "cell " << i;
    EXPECT_TRUE(cell.ok) << cell.error;
    EXPECT_GT(cell.result.session_end, 0);
  }
  EXPECT_EQ(result.failed, 0);
}

TEST(SweepEngine, BadProfileIdFailsOnlyItsCells) {
  SweepConfig config = small_grid({1, 99});
  SweepResult result = run_sweep(config);
  ASSERT_EQ(result.cells.size(), 4u);
  EXPECT_EQ(result.failed, 2);
  for (const CellResult& cell : result.cells) {
    if (cell.profile_id == 99) {
      EXPECT_FALSE(cell.ok);
      EXPECT_NE(cell.error.find("out of range"), std::string::npos);
      EXPECT_NE(cell.coordinates().find("profile 99"), std::string::npos);
    } else {
      EXPECT_TRUE(cell.ok) << cell.error;
    }
  }
}

TEST(SweepEngine, CsvHasCoordinateColumnsAndSkipsFailedCells) {
  SweepConfig config = small_grid({1, 99});
  SweepResult result = run_sweep(config);
  const std::string csv = sweep_csv(result);
  const std::vector<std::string> lines = split_lines(csv);
  ASSERT_GE(lines.size(), 3u);
  EXPECT_TRUE(starts_with(lines[0],
                          "service,profile,seed,fault,origin,startup_delay_s"));
  EXPECT_TRUE(starts_with(lines[1], "TH,1,0,none,none,"));
  EXPECT_TRUE(starts_with(lines[2], "TD,1,0,none,none,"));
  EXPECT_EQ(csv.find(",99,"), std::string::npos);  // failed cells excluded
}

TEST(SweepEngine, JsonlCarriesErrorsWithCoordinates) {
  SweepConfig config = small_grid({1, 99});
  SweepResult result = run_sweep(config);
  const std::string jsonl = sweep_jsonl(result);
  const std::vector<std::string> lines = split_lines(jsonl);
  ASSERT_EQ(lines.size(), 4u);  // every cell serializes, failed or not
  int ok_lines = 0;
  int error_lines = 0;
  for (const std::string& line : lines) {
    if (line.find("\"ok\":true") != std::string::npos) ++ok_lines;
    if (line.find("\"ok\":false") != std::string::npos &&
        line.find("\"profile\":99") != std::string::npos &&
        line.find("out of range") != std::string::npos) {
      ++error_lines;
    }
  }
  EXPECT_EQ(ok_lines, 2);
  EXPECT_EQ(error_lines, 2);
}

TEST(SweepEngine, ObserveHookRunsOncePerCellWithIndexKeyedResults) {
  // The hook runs on the workers; each call writes only its own index's
  // slots, and the slots must come out the same at jobs 1 and 4.
  struct Seen {
    std::vector<int> calls;
    std::vector<std::string> cells;
    std::vector<std::size_t> trace_sizes;
    std::vector<std::uint64_t> trace_emitted;
  };
  auto run = [](int jobs) {
    SweepConfig config = small_grid({1, 7});
    config.jobs = jobs;
    const std::size_t n = grid_size(config);
    Seen seen{std::vector<int>(n), std::vector<std::string>(n),
              std::vector<std::size_t>(n), std::vector<std::uint64_t>(n)};
    config.observe = [&seen](std::size_t index, const CellResult& cell,
                             const obs::Observer& observer) {
      ++seen.calls[index];
      seen.cells[index] =
          format("%s/%d", cell.service.c_str(), cell.profile_id);
      seen.trace_sizes[index] = observer.trace.size();
      seen.trace_emitted[index] = observer.trace.emitted();
    };
    const SweepResult result = run_sweep(config);
    EXPECT_EQ(result.cells.size(), n);
    for (std::size_t i = 0; i < result.cells.size(); ++i) {
      EXPECT_EQ(result.cells[i].trace_emitted, seen.trace_emitted[i])
          << "the hook sees the observer the cell's result was read from";
    }
    return seen;
  };
  const Seen serial = run(1);
  const Seen parallel = run(4);
  EXPECT_EQ(serial.calls, std::vector<int>(4, 1));
  EXPECT_EQ(parallel.calls, std::vector<int>(4, 1));
  const std::vector<std::string> expected = {"TH/1", "TH/7", "TD/1", "TD/7"};
  EXPECT_EQ(serial.cells, expected);
  EXPECT_EQ(parallel.cells, expected);
  for (std::size_t size : serial.trace_sizes) EXPECT_GT(size, 0u);
  EXPECT_EQ(parallel.trace_sizes, serial.trace_sizes);
  EXPECT_EQ(parallel.trace_emitted, serial.trace_emitted);
}

TEST(SweepEngine, ObserveHookRunsAfterProgressForFailedCellsToo) {
  SweepConfig config = small_grid({1, 99});
  config.jobs = 2;
  const std::size_t n = grid_size(config);
  std::vector<int> progressed(n);
  std::vector<int> observed_after_progress(n);
  config.progress = [&](const CellResult& cell, std::size_t, std::size_t) {
    ++progressed[static_cast<std::size_t>(cell.cell.service_index * 2 +
                                          cell.cell.profile_index)];
  };
  config.observe = [&](std::size_t index, const CellResult&,
                       const obs::Observer&) {
    observed_after_progress[index] = progressed[index];
  };
  const SweepResult result = run_sweep(config);
  EXPECT_EQ(result.failed, 2);
  EXPECT_EQ(observed_after_progress, std::vector<int>(n, 1));
}

TEST(SweepEngine, ProgressTicksOncePerCell) {
  SweepConfig config = small_grid({1, 7});
  config.jobs = 2;
  std::size_t ticks = 0;
  std::size_t last_total = 0;
  config.progress = [&](const CellResult&, std::size_t done,
                        std::size_t total) {
    ++ticks;
    EXPECT_LE(done, total);
    last_total = total;
  };
  run_sweep(config);
  EXPECT_EQ(ticks, 4u);
  EXPECT_EQ(last_total, 4u);
}

TEST(SweepEngine, FullGridSpansCatalogAndProfiles) {
  SweepConfig config = full_grid();
  EXPECT_EQ(config.services.size(), services::catalog().size());
  EXPECT_EQ(config.profiles.size(),
            static_cast<std::size_t>(trace::kProfileCount));
  EXPECT_EQ(config.seeds, std::vector<std::uint64_t>{0});
}

TEST(SweepEngine, JsonlStaysOneValidObjectPerCellWhateverTheStrings) {
  // A fault name with a quote fails its cells (unknown scenario) and is
  // echoed in both the "fault" member and the error text; a prepare hook
  // throws an error message spanning two lines.
  SweepConfig config = small_grid({7});
  config.fault_scenarios = {"none", "a\"b"};
  config.prepare = [](const Cell& cell, core::SessionConfig&) {
    if (cell.service_index == 1 && cell.fault_index == 0) {
      throw Error("x\ny\t\"z\"\\");
    }
  };
  const SweepResult result = run_sweep(config);
  ASSERT_EQ(result.cells.size(), 4u);
  EXPECT_EQ(result.failed, 3);
  const std::string jsonl = sweep_jsonl(result);
  EXPECT_EQ(testing::first_bad_jsonl_line(jsonl), "");
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 4);
  EXPECT_NE(jsonl.find(R"("fault":"a\"b")"), std::string::npos);
  EXPECT_NE(jsonl.find(R"("error":"x\ny\t\"z\"\\")"), std::string::npos);
}

}  // namespace
}  // namespace vodx::batch
