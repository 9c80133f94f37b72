// Byte-pinning harness for every machine-readable report format.
//
// The Table 1 / Table 2 harnesses pin the text reports; this one prints,
// one format per invocation, the CSV / JSONL / HTML renderings of a tiny
// sweep (2 services x profile 3 x 2 fault scenarios, one cell failing by
// construction, 40 s sessions) and a tiny diagnosed population (one tower,
// 60 s horizon, timeline on). tests/golden/formats/ holds one snapshot per
// format; scripts/refresh_golden.sh regenerates them.
//
//   bench_report_formats --format <name>
//   bench_report_formats --list
#include "support.h"

#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "batch/report.h"
#include "batch/sweep.h"
#include "common/error.h"
#include "diag/rollup.h"
#include "obs/timeline.h"
#include "pop/pop_timeline.h"
#include "pop/population.h"

using namespace vodx;

namespace {

batch::SweepConfig grid() {
  batch::SweepConfig config;
  config.services = {services::service("H1"), services::service("D2")};
  config.profiles = {3};
  config.fault_scenarios = {"none", "blackout"};
  config.session_duration = 40;
  config.content_duration = 40;
  config.jobs = 1;
  // One cell fails deterministically, so every format renders its
  // failed-cell path.
  config.prepare = [](const batch::Cell& cell, core::SessionConfig&) {
    if (cell.service_index == 1 && cell.fault_index == 1) {
      throw Error("injected failure");
    }
  };
  return config;
}

/// The sweep `vodx report [--diag]` runs: metrics always, the per-cell
/// diagnoses folded in grid order when asked.
struct ReportRun {
  batch::SweepResult result;
  batch::SweepMetrics metrics;
  diag::SweepDiagnosis diagnosis;
};

ReportRun report_run(bool with_diag) {
  ReportRun run;
  batch::SweepConfig config = grid();
  config.collect_metrics = true;
  diag::SweepDiagnoser diagnoser;
  if (with_diag) diagnoser.install(config);
  run.result = batch::run_sweep(config);
  run.metrics = batch::aggregate_metrics(run.result);
  if (with_diag) run.diagnosis = diagnoser.fold(run.result);
  return run;
}

std::string report_html(bool with_diag) {
  const ReportRun run = report_run(with_diag);
  return batch::report_html(
      run.metrics, with_diag ? diag::diag_html_section(run.diagnosis) : "");
}

pop::PopulationReport population() {
  pop::PopulationConfig config;
  config.services = {"H1", "D2"};
  config.towers = {3};
  config.seed = 1;
  config.horizon = 60;
  config.arrivals.rate_per_min = 6.0;
  config.watch_time = 30;
  config.watch_sigma = 0.5;
  config.content_duration = 60;
  config.collect_timeline = true;
  config.timeline_bin = 5;
  config.diagnose = true;
  config.diag_session_budget = 0;
  return pop::run_population(config);
}

using Format = std::pair<const char*, std::function<std::string()>>;

const std::vector<Format>& formats() {
  static const std::vector<Format> all = {
      {"sweep-csv", [] { return batch::sweep_csv(batch::run_sweep(grid())); }},
      {"sweep-jsonl",
       [] { return batch::sweep_jsonl(batch::run_sweep(grid())); }},
      {"report-jsonl",
       [] {
         const ReportRun run = report_run(false);
         return batch::report_jsonl(run.result, run.metrics);
       }},
      {"report-jsonl-diag",
       [] {
         const ReportRun run = report_run(true);
         return batch::report_jsonl(run.result, run.metrics) +
                diag::diag_jsonl(run.diagnosis);
       }},
      {"report-html", [] { return report_html(false); }},
      {"report-html-diag", [] { return report_html(true); }},
      {"diag-jsonl",
       [] { return diag::diag_jsonl(diag::diagnose_sweep(grid())); }},
      {"diag-html",
       [] { return diag::diag_html(diag::diagnose_sweep(grid())); }},
      {"pop-jsonl", [] { return pop::population_jsonl(population()); }},
      {"pop-csv", [] { return pop::population_csv(population()); }},
      {"pop-tower-csv",
       [] { return pop::population_tower_csv(population()); }},
      {"pop-timeline-jsonl",
       [] { return pop::population_timeline_jsonl(population()); }},
      {"pop-timeline-html",
       [] { return pop::population_timeline_html(population()); }},
      {"timeline-csv",
       [] { return obs::timeline_csv(population().timeline); }},
      {"timeline-jsonl",
       [] { return obs::timeline_jsonl(population().timeline); }},
  };
  return all;
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_report_formats --format <name> | --list\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--list") == 0) {
    for (const Format& format : formats()) std::printf("%s\n", format.first);
    return 0;
  }
  if (argc != 3 || std::strcmp(argv[1], "--format") != 0) return usage();
  for (const Format& format : formats()) {
    if (std::strcmp(argv[2], format.first) == 0) {
      std::fputs(format.second().c_str(), stdout);
      return 0;
    }
  }
  std::fprintf(stderr, "unknown format '%s'\n", argv[2]);
  return usage();
}
