// Perf-regression harness: runs a fixed sweep workload and reports
// throughput (cells/second), the population, sampled-population and origin
// rates, and peak RSS. Results go to stdout and to BENCH_PERF.json for
// machines:
//
//   {"git_rev":..,"date":..,"workload":..,"jobs":..,"cells":..,"wall_s":..,
//    "cells_per_s":..,"fixed_tick_cells_per_s":..,"pop_sessions_per_s":..,
//    "pop_timeline_sessions_per_s":..,"origin_cells_per_s":..,
//    "peak_rss_mb":..}
//
// Everything here is wall-clock and machine-dependent by design; the
// simulated results stay deterministic, only the timings vary. Per-layer
// wall time lives in perfbench/, which times the layers from outside src/.
// --check applies five gates against a recorded baseline:
//
//   1. throughput must stay within 3x of the baseline's cells_per_s — the
//      factor is loose on purpose so the gate survives noisy CI neighbours
//      while still catching accidental quadratic blowups;
//   2. throughput must stay at least 5x above the baseline's
//      fixed_tick_cells_per_s, the recorded throughput of the pre-event-core
//      fixed-tick simulator. This pins the event core's speedup: losing the
//      tick-skipping win (e.g. a client whose next_wake() collapses to
//      "every tick") fails CI even though the 3x band would forgive it;
//   3. pop_sessions_per_s and 4. origin_cells_per_s must stay within 3x of
//      their baselines;
//   5. timeline sampling must cost the population less than 10% of its
//      rate, measured within this run.
//
//   bench_perf [--smoke] [--jobs N] [--out BENCH_PERF.json]
//              [--check baseline.json] [--git-rev rev]
#include "support.h"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <string>

#include "arg_parse.h"
#include "batch/sweep.h"
#include "common/error.h"
#include "pop/population.h"

using namespace vodx;

namespace {

/// Measured throughput of the smoke workload on the retired fixed-tick hot
/// path (rev a5c7752, the last commit before the event-driven core), on the
/// reference machine the checked-in baseline was recorded on. Written into
/// every BENCH_PERF.json so baseline refreshes keep carrying it, and used by
/// --check as the denominator of the 5x event-core speedup gate. The live
/// kFixedTickReference core is *not* a substitute: it shares the memoized
/// client code, so it no longer measures the old implementation.
constexpr double kFixedTickBaselineCellsPerS = 102.5;

struct Options {
  bool smoke = false;
  int jobs = 0;  ///< 0 = one worker per hardware thread
  std::string out_path = "BENCH_PERF.json";
  std::string check_path;
  std::string git_rev = "unknown";
};

int usage() {
  std::fprintf(stderr,
               "usage: bench_perf [--smoke] [--jobs N] [--out file.json]\n"
               "                  [--check baseline.json] [--git-rev rev]\n");
  return 2;
}

/// The fixed workload. Full mode is sized to run long enough (seconds) for
/// a stable rate; smoke mode finishes in well under a second so it can
/// gate every CI run under the `perf` ctest label.
batch::SweepConfig workload(const Options& options) {
  batch::SweepConfig config;
  config.services = services::catalog();
  if (options.smoke) {
    config.profiles = {7};
    config.session_duration = 120;
    config.content_duration = 120;
  } else {
    config.profiles = {3, 7, 11};
    config.seeds = {0, 1};
    config.session_duration = 600;
    config.content_duration = 600;
  }
  config.collect_metrics = true;
  config.jobs = options.jobs;
  return config;
}

/// The population stage: shared-cell hosting throughput, reported as
/// sessions simulated per wall-clock second. Smoke keeps one busy tower;
/// full spreads a heavier load over four towers so the parallel path is
/// exercised too.
pop::PopulationConfig pop_workload(const Options& options) {
  pop::PopulationConfig config;
  config.services = {"H1", "H2", "D1", "D2"};
  config.seed = 1;
  config.arrivals.rate_per_min = 12;
  config.watch_time = 120;
  if (options.smoke) {
    config.towers = {7};
    config.horizon = 300;
  } else {
    config.towers = {3, 7, 11, 13};
    config.horizon = 900;
  }
  config.jobs = options.jobs;
  return config;
}

/// The origin stage: the sweep workload behind the hardened origin tier
/// (edge cache + retries + breaker on every request), reported as its own
/// cells/s rate so interceptor-chain overhead regressions are gated
/// separately from the plain sweep.
batch::SweepConfig origin_workload(const Options& options) {
  batch::SweepConfig config = workload(options);
  config.origin_modes = {"hardened"};
  return config;
}

std::string iso_date() {
  std::time_t now = std::time(nullptr);
  std::tm utc{};
  gmtime_r(&now, &utc);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &utc);
  return buf;
}

double peak_rss_mb() {
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  // ru_maxrss is kilobytes on Linux.
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string render_json(const Options& options, std::size_t cells,
                        double wall_s, double cells_per_s,
                        double pop_sessions_per_s,
                        double pop_timeline_sessions_per_s,
                        double origin_cells_per_s) {
  return format(
      "{\"git_rev\":\"%s\",\"date\":\"%s\",\"workload\":\"%s\","
      "\"jobs\":%d,\"cells\":%zu,\"wall_s\":%.3f,\"cells_per_s\":%.1f,"
      "\"fixed_tick_cells_per_s\":%.1f,\"pop_sessions_per_s\":%.1f,"
      "\"pop_timeline_sessions_per_s\":%.1f,"
      "\"origin_cells_per_s\":%.1f,"
      "\"peak_rss_mb\":%.1f}\n",
      options.git_rev.c_str(), iso_date().c_str(),
      options.smoke ? "smoke" : "full", options.jobs, cells, wall_s,
      cells_per_s, kFixedTickBaselineCellsPerS, pop_sessions_per_s,
      pop_timeline_sessions_per_s, origin_cells_per_s, peak_rss_mb());
}

/// Pulls "<key>": <number> out of a baseline BENCH_PERF.json without a JSON
/// parser; returns < 0 when the key is missing. The quoted-key search means
/// "cells_per_s" never matches inside "fixed_tick_cells_per_s".
double baseline_number(const std::string& text, const char* key) {
  const std::string needle = format("\"%s\":", key);
  const std::size_t pos = text.find(needle);
  if (pos == std::string::npos) return -1;
  return std::atof(text.c_str() + pos + needle.size());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return {};
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (std::strcmp(arg, "--smoke") == 0) {
      options.smoke = true;
    } else if (std::strcmp(arg, "--jobs") == 0) {
      const char* v = next();
      if (v == nullptr) return usage();
      try {
        options.jobs = static_cast<int>(tools::parse_int_arg(v, "--jobs"));
      } catch (const Error& e) {
        std::fprintf(stderr, "bench_perf: %s\n", e.what());
        return usage();
      }
    } else if (std::strcmp(arg, "--out") == 0) {
      const char* v = next();
      if (v == nullptr) return usage();
      options.out_path = v;
    } else if (std::strcmp(arg, "--check") == 0) {
      const char* v = next();
      if (v == nullptr) return usage();
      options.check_path = v;
    } else if (std::strcmp(arg, "--git-rev") == 0) {
      const char* v = next();
      if (v == nullptr) return usage();
      options.git_rev = v;
    } else {
      std::fprintf(stderr, "bench_perf: unknown option %s\n", arg);
      return usage();
    }
  }

  const batch::SweepConfig config = workload(options);
  const auto start = std::chrono::steady_clock::now();
  const batch::SweepResult result = batch::run_sweep(config);
  const auto stop = std::chrono::steady_clock::now();

  if (result.failed > 0) {
    std::fprintf(stderr, "bench_perf: %d cells failed\n", result.failed);
    return 1;
  }

  const double wall_s =
      std::chrono::duration<double>(stop - start).count();
  const std::size_t cells = result.cells.size();
  const double cells_per_s = wall_s > 0 ? cells / wall_s : 0;

  // Population stage: many sessions sharing each tower's link.
  const pop::PopulationConfig pop_config = pop_workload(options);
  const auto pop_start = std::chrono::steady_clock::now();
  const pop::PopulationReport pop_report = pop::run_population(pop_config);
  const auto pop_stop = std::chrono::steady_clock::now();
  const double pop_wall_s =
      std::chrono::duration<double>(pop_stop - pop_start).count();
  const double pop_sessions_per_s =
      pop_wall_s > 0 ? pop_report.total_sessions / pop_wall_s : 0;

  // Same population with per-bin telemetry sampling on (default bin). The
  // sampler's contract is near-zero cost: one forced tick plus an O(live)
  // walk per bin, so this rate must stay within 10% of the plain rate.
  pop::PopulationConfig pop_timeline_config = pop_config;
  pop_timeline_config.collect_timeline = true;
  const auto pop_tl_start = std::chrono::steady_clock::now();
  const pop::PopulationReport pop_tl_report =
      pop::run_population(pop_timeline_config);
  const auto pop_tl_stop = std::chrono::steady_clock::now();
  const double pop_tl_wall_s =
      std::chrono::duration<double>(pop_tl_stop - pop_tl_start).count();
  const double pop_timeline_sessions_per_s =
      pop_tl_wall_s > 0 ? pop_tl_report.total_sessions / pop_tl_wall_s : 0;

  // Origin stage: the same sweep behind the hardened origin tier.
  const batch::SweepConfig origin_config = origin_workload(options);
  const auto origin_start = std::chrono::steady_clock::now();
  const batch::SweepResult origin_result = batch::run_sweep(origin_config);
  const auto origin_stop = std::chrono::steady_clock::now();
  if (origin_result.failed > 0) {
    std::fprintf(stderr, "bench_perf: %d origin cells failed\n",
                 origin_result.failed);
    return 1;
  }
  const double origin_wall_s =
      std::chrono::duration<double>(origin_stop - origin_start).count();
  const double origin_cells_per_s =
      origin_wall_s > 0 ? origin_result.cells.size() / origin_wall_s : 0;

  std::printf("bench_perf: %s workload, %zu cells, jobs=%d\n",
              options.smoke ? "smoke" : "full", cells, options.jobs);
  std::printf("  wall        %.3f s\n", wall_s);
  std::printf("  throughput  %.1f cells/s\n", cells_per_s);
  std::printf("  population  %.1f sessions/s (%d sessions in %.3f s)\n",
              pop_sessions_per_s, pop_report.total_sessions, pop_wall_s);
  std::printf("  pop+timeline %.1f sessions/s (sampling overhead %.1f%%)\n",
              pop_timeline_sessions_per_s,
              pop_sessions_per_s > 0
                  ? 100.0 * (1.0 - pop_timeline_sessions_per_s /
                                       pop_sessions_per_s)
                  : 0.0);
  std::printf("  origin      %.1f cells/s (%zu cells in %.3f s)\n",
              origin_cells_per_s, origin_result.cells.size(), origin_wall_s);
  std::printf("  peak RSS    %.1f MB\n", peak_rss_mb());

  std::ofstream out(options.out_path);
  if (!out) {
    std::fprintf(stderr, "bench_perf: cannot write %s\n",
                 options.out_path.c_str());
    return 1;
  }
  out << render_json(options, cells, wall_s, cells_per_s, pop_sessions_per_s,
                     pop_timeline_sessions_per_s, origin_cells_per_s);
  std::fprintf(stderr, "wrote %s\n", options.out_path.c_str());

  if (!options.check_path.empty()) {
    if (!std::ifstream(options.check_path)) {
      // A fresh checkout (or new hardware) has no recorded baseline yet;
      // that is not a regression. The gate arms itself once one exists.
      std::fprintf(stderr, "bench_perf: no baseline at %s, skipping check\n",
                   options.check_path.c_str());
      return 0;
    }
    const std::string baseline_text = read_file(options.check_path);
    const double baseline = baseline_number(baseline_text, "cells_per_s");
    if (baseline <= 0) {
      std::fprintf(stderr, "bench_perf: no cells_per_s in baseline %s\n",
                   options.check_path.c_str());
      return 1;
    }
    if (cells_per_s < baseline / 3.0) {
      std::fprintf(stderr,
                   "bench_perf: REGRESSION — %.1f cells/s is more than 3x "
                   "below the %.1f cells/s baseline\n",
                   cells_per_s, baseline);
      return 1;
    }
    // Event-core speedup gate: pre-event-core baselines lack the key and
    // skip it (the gate arms itself on the first refreshed baseline).
    const double fixed_tick =
        baseline_number(baseline_text, "fixed_tick_cells_per_s");
    if (fixed_tick > 0 && cells_per_s < 5.0 * fixed_tick) {
      std::fprintf(stderr,
                   "bench_perf: REGRESSION — %.1f cells/s is below 5x the "
                   "%.1f cells/s fixed-tick baseline; the event core's "
                   "tick-skipping win has been lost\n",
                   cells_per_s, fixed_tick);
      return 1;
    }
    // Population-hosting gate: same loose 3x band as the sweep gate.
    // Pre-population baselines lack the key and skip it (the gate arms
    // itself on the first refreshed baseline).
    const double pop_baseline =
        baseline_number(baseline_text, "pop_sessions_per_s");
    if (pop_baseline > 0 && pop_sessions_per_s < pop_baseline / 3.0) {
      std::fprintf(stderr,
                   "bench_perf: REGRESSION — %.1f pop sessions/s is more "
                   "than 3x below the %.1f sessions/s baseline\n",
                   pop_sessions_per_s, pop_baseline);
      return 1;
    }
    // Origin-tier gate: same loose 3x band. Pre-origin baselines lack the
    // key and skip it (the gate arms itself on the first refreshed
    // baseline).
    const double origin_baseline =
        baseline_number(baseline_text, "origin_cells_per_s");
    if (origin_baseline > 0 && origin_cells_per_s < origin_baseline / 3.0) {
      std::fprintf(stderr,
                   "bench_perf: REGRESSION — %.1f origin cells/s is more "
                   "than 3x below the %.1f cells/s baseline\n",
                   origin_cells_per_s, origin_baseline);
      return 1;
    }
    // Telemetry-sampling gate: measured within this very run (both rates
    // share the process and machine), so it needs no baseline key — the
    // sampled population must stay within 10% of the plain rate.
    if (pop_sessions_per_s > 0 &&
        pop_timeline_sessions_per_s < 0.9 * pop_sessions_per_s) {
      std::fprintf(stderr,
                   "bench_perf: REGRESSION — timeline sampling drops the "
                   "population rate to %.1f sessions/s (> 10%% below the "
                   "%.1f sessions/s unsampled rate)\n",
                   pop_timeline_sessions_per_s, pop_sessions_per_s);
      return 1;
    }
    std::fprintf(stderr, "bench_perf: ok — %.1f cells/s vs %.1f baseline\n",
                 cells_per_s, baseline);
  }
  return 0;
}
