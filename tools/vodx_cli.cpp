// vodx command-line tool: the library's main entry points without writing
// C++.
//
//   vodx list                      — catalogue of the 12 services
//   vodx play <svc> <profile>      — run a session, print the QoE report
//   vodx play <svc> --trace f.txt  — ... over a recorded 1 Hz trace file
//   vodx play <svc> --trace-out session.trace.json
//                                  — also export a Chrome/Perfetto timeline
//   vodx dissect <svc>             — black-box Table-1 row for a service
//   vodx trace <profile> [out]     — emit a cellular profile as text
//   vodx energy <svc> [profile]    — RRC radio-energy analysis (§3.3.2)
//   vodx sweep [...]               — parallel (service × profile × seed) grid
//   vodx faults [...]              — fault-scenario grid (service × scenario)
//   vodx report [...]              — merged metrics rollups for a grid
//                                    (table / JSONL / single-file HTML)
//   vodx chaos [...]               — invariant-checked fault fuzzing with
//                                    minimized repro artifacts
//   vodx diagnose [...]            — root-cause attribution for stalls and
//                                    startup delay (single session, grid
//                                    rollups, or the precision/recall
//                                    validation harness)
//   vodx pop [...]                 — population-scale multi-session runs on
//                                    shared cells
//   vodx origin [...]              — flash-crowd failover drill: naive vs
//                                    hardened origin tier under a primary-DC
//                                    blackout
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "arg_parse.h"
#include "batch/report.h"
#include "batch/sweep.h"
#include "chaos/chaos.h"
#include "common/error.h"
#include "common/strings.h"
#include "common/table.h"
#include "core/design_inference.h"
#include "core/qoe.h"
#include "core/radio_energy.h"
#include "core/report.h"
#include "core/session.h"
#include "diag/diagnose.h"
#include "diag/rollup.h"
#include "diag/validate.h"
#include "faults/fault_plan.h"
#include "obs/observer.h"
#include "origin/origin.h"
#include "pop/pop_timeline.h"
#include "pop/population.h"
#include "trace/cellular_profiles.h"
#include "trace/trace_io.h"

using namespace vodx;
using tools::Args;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  vodx list\n"
      "  vodx play <service> [profile=7 | --trace file] [--csv|--buffer-csv]\n"
      "            [--trace-out f.json] [--events-out f.jsonl]\n"
      "            [--metrics-out f.txt]\n"
      "  vodx dissect <service>\n"
      "  vodx trace <profile> [out.txt]\n"
      "  vodx energy <service> [profile=7]\n"
      "  vodx sweep [--services all|H1,D2,...] [--profiles all|1-14|2,5]\n"
      "             [--seeds 0|0-4|1,7] [--faults none|all|resets,...]\n"
      "             [--origin none|naive,hardened,...]\n"
      "             [--jobs N] [--duration secs]\n"
      "             [--csv out.csv] [--jsonl out.jsonl]\n"
      "             [--metrics-out report.jsonl] [--progress]\n"
      "        runs the grid in parallel; output is byte-identical for\n"
      "        every --jobs value. Default: full 12x14 grid, seed 0,\n"
      "        one worker per hardware thread, CSV on stdout.\n"
      "  vodx faults [--list] [--services all|H1,...] [--scenarios all|...]\n"
      "              [--profiles 7|...] [--seeds 0|...] [--hardened]\n"
      "              [--origin none|naive,hardened,...]\n"
      "              [--jobs N] [--duration secs]\n"
      "              [--csv out.csv] [--jsonl out.jsonl]\n"
      "              [--metrics-out report.jsonl] [--progress]\n"
      "        runs every service under scripted fault scenarios and prints\n"
      "        a resilience table. --hardened plays the same grid with the\n"
      "        fault-tolerant player configuration. Deterministic: the fault\n"
      "        schedule derives from (seed, cell), never from --jobs.\n"
      "  vodx report [--services ...] [--profiles ...] [--seeds ...]\n"
      "              [--faults ...] [--jobs N] [--duration secs] [--diag]\n"
      "              [--out report.txt] [--jsonl report.jsonl]\n"
      "              [--html report.html] [--csv cells.csv] [--progress]\n"
      "        runs the grid with per-cell metrics collection and renders\n"
      "        overall / per-service / per-profile / per-fault rollups.\n"
      "        Text report goes to stdout unless --out is given; the merged\n"
      "        aggregate is byte-identical for every --jobs value. --diag\n"
      "        appends root-cause attribution tables to every output.\n"
      "  vodx diagnose <service> [profile=7] [--duration secs]\n"
      "        runs one session with tracing on and prints per-interval\n"
      "        blame spans plus per-cause totals.\n"
      "  vodx diagnose [--services ...] [--profiles 7|...] [--seeds 0|...]\n"
      "                [--faults none|all|...] [--jobs N] [--duration secs]\n"
      "                [--out diag.txt] [--jsonl diag.jsonl]\n"
      "                [--html diag.html]\n"
      "        diagnoses every cell of the grid and renders per-service /\n"
      "        per-profile / per-fault root-cause tables; byte-identical\n"
      "        for every --jobs value.\n"
      "  vodx diagnose --validate [--threshold 0.9] [--duration secs]\n"
      "        precision/recall harness: checks fault.injected blame lands\n"
      "        inside the injected windows for every catalog scenario.\n"
      "        Exit 0 = every scenario meets the threshold.\n"
      "  vodx pop [--services all|H1,...] [--towers 7|3,7,12] [--seed N]\n"
      "           [--horizon secs] [--rate arrivals/min] [--diurnal 0..1]\n"
      "           [--diurnal-period secs] [--flash-at secs]\n"
      "           [--flash-window secs] [--flash-arrivals N]\n"
      "           [--watch-time secs] [--watch-sigma s] [--max-sessions N]\n"
      "           [--jobs N] [--core event|fixed] [--out report.txt]\n"
      "           [--jsonl sessions.jsonl] [--csv sessions.csv]\n"
      "           [--tower-csv towers.csv] [--timeline-out tl.csv|tl.jsonl]\n"
      "           [--timeline-bin secs] [--html dashboard.html]\n"
      "           [--diag] [--diag-budget N]\n"
      "           [--origin none|naive|hardened] [--shared-content]\n"
      "        population run: each tower's simulator hosts every viewer\n"
      "        arriving on that cell (Poisson + diurnal + flash crowds);\n"
      "        concurrent sessions share the link max-min fairly. Prints\n"
      "        p50/p95/p99 startup/stall and Jain fairness per tower and\n"
      "        per service; byte-identical for every --jobs value.\n"
      "        --timeline-out samples every tower into per-bin telemetry\n"
      "        (concurrency, stalls, rung mix, goodput vs capacity; CSV, or\n"
      "        JSONL when the path ends .jsonl) and --html renders the\n"
      "        per-tower sparkline dashboard; --diag additionally runs\n"
      "        root-cause attribution over up to --diag-budget sessions per\n"
      "        tower (0 = all) and folds blame rollups per tower and bin.\n"
      "        --origin runs every session behind the origin/CDN tier (one\n"
      "        shared edge cache + breaker per tower); --shared-content\n"
      "        collapses each tower onto one title so the cache sees real\n"
      "        cross-session hits.\n"
      "  vodx origin [--mode both|naive|hardened] [--services all|H1,...]\n"
      "              [--towers 7|3,7] [--seed N] [--horizon secs]\n"
      "              [--rate arrivals/min] [--flash-at secs]\n"
      "              [--flash-window secs] [--flash-arrivals N]\n"
      "              [--blackout-at secs] [--blackout-duration secs]\n"
      "              [--flush-at secs] [--cache-ttl secs]\n"
      "              [--cache-capacity N] [--retries N]\n"
      "              [--retry-backoff secs] [--breaker-threshold N]\n"
      "              [--cooldown secs] [--no-coalesce] [--jobs N]\n"
      "              [--out report.txt]\n"
      "        flash-crowd failover drill: a population run where every\n"
      "        viewer on a tower streams the same title through the tower's\n"
      "        shared edge cache while the primary datacenter goes dark\n"
      "        mid-crowd. --mode both (the default) runs the naive and the\n"
      "        hardened origin back to back and prints the completion and\n"
      "        QoE delta the hardened tier buys back; byte-identical for\n"
      "        every --jobs value.\n"
      "  vodx chaos [--seeds 0..63] [--services H1,...] [--profiles 1-14]\n"
      "             [--duration secs] [--jobs N] [--budget secs]\n"
      "             [--minimize|--no-minimize] [--artifacts dir]\n"
      "             [--out report.txt] [--repro file.json] [--invariants]\n"
      "             [--core event|fixed] [--origin naive|hardened]\n"
      "        fuzzes seeded fault plans through invariant-checked sessions\n"
      "        under watchdogs; violations are shrunk to minimal repro\n"
      "        artifacts. --budget is the per-session wall-clock budget\n"
      "        (-1 = unlimited); --repro replays a saved artifact. The\n"
      "        report is byte-identical for every --jobs value. Exit 0 =\n"
      "        clean, 1 = violations/watchdogs. --origin runs every fuzzed\n"
      "        session behind that origin tier and widens the generator to\n"
      "        draw cache-flush and DC-blackout windows, so the failover\n"
      "        paths are fuzzed against the full invariant catalog.\n");
  return 2;
}

int cmd_list() {
  Table table({"service", "protocol", "tracks", "segdur", "audio",
               "startup", "pausing/resuming", "notes"});
  for (const services::ServiceSpec& s : services::catalog()) {
    std::string notes;
    if (s.player.sr != player::SrPolicy::kNone) notes += "SR ";
    if (s.player.abr == player::AbrKind::kOscillating) notes += "unstable ";
    if (s.encrypt_manifest) notes += "encrypted-mpd ";
    if (s.player.split_segment_downloads) notes += "split-dl ";
    if (!s.player.persistent_connections) notes += "non-persistent ";
    table.add_row({s.name, to_string(s.protocol),
                   std::to_string(s.video_ladder.size()),
                   format("%.0f s", s.segment_duration),
                   s.separate_audio ? "separate" : "muxed",
                   format("%.0f s @%.2f M", s.player.startup_buffer,
                          s.player.startup_bitrate / 1e6),
                   format("%.0f/%.0f s", s.player.pausing_threshold,
                          s.player.resuming_threshold),
                   notes.empty() ? "-" : notes});
  }
  table.print();
  return 0;
}

/// A whole-token integer flag value in [min, INT_MAX] (tools::parse_int_arg).
int parse_int_flag(const char* v, const char* flag, int min = 0) {
  return static_cast<int>(tools::parse_int_arg(v, flag, min));
}

/// A 1-based cellular profile id; anything else is an error, not an abort.
int parse_profile(const char* v) {
  return static_cast<int>(
      tools::parse_int_arg(v, "profile", 1, trace::kProfileCount));
}

net::SimCore parse_core(const char* v) {
  const std::string core = v;
  if (core == "event") return net::SimCore::kEvent;
  if (core == "fixed") return net::SimCore::kFixedTickReference;
  throw Error(format("unknown --core '%s' (event|fixed)", v));
}

core::SessionResult run(const services::ServiceSpec& spec,
                        net::BandwidthTrace trace,
                        obs::Observer* observer = nullptr,
                        Seconds duration = 600) {
  core::SessionConfig config;
  config.spec = spec;
  config.trace = std::move(trace);
  config.session_duration = duration;
  config.content_duration = duration;
  config.observer = observer;
  return core::run_session(config);
}

int cmd_play(const std::string& service, Args& args) {
  net::BandwidthTrace trace = trace::cellular_profile(7);
  bool csv = false;
  bool buffer_csv_out = false;
  tools::ObsOutputs outputs;
  while (!args.done()) {
    if (const char* v = args.value("--trace")) {
      trace = trace::load_trace(v);
    } else if (args.flag("--csv")) {
      csv = true;
    } else if (args.flag("--buffer-csv")) {
      buffer_csv_out = true;
    } else if (outputs.parse(args)) {
      // consumed a --*-out flag and its value
    } else if (const char* profile = args.positional()) {
      trace = trace::cellular_profile(parse_profile(profile));
    } else {
      args.unknown();
    }
  }
  if (args.failed()) return usage();
  const services::ServiceSpec& spec = services::service(service);
  std::unique_ptr<obs::Observer> observer;
  if (outputs.wanted()) observer = std::make_unique<obs::Observer>();
  core::SessionResult r = run(spec, trace, observer.get());
  if (observer != nullptr) outputs.write(*observer, r.session_end);
  if (buffer_csv_out) {
    std::fputs(core::buffer_csv(r).c_str(), stdout);
    return 0;
  }
  if (csv) {
    std::fputs(core::qoe_csv(spec.name, r).c_str(), stdout);
    return 0;
  }

  std::printf("%s over %s (mean %.2f Mbps): %s\n\n", spec.name.c_str(),
              trace.name().empty() ? "trace" : trace.name().c_str(),
              trace.mean() / 1e6, player::to_string(r.final_state));
  std::printf("  startup delay        %.2f s\n", r.qoe.startup_delay);
  std::printf("  stalls               %d (%.1f s)\n", r.qoe.stall_count,
              r.qoe.total_stall);
  std::printf("  avg declared bitrate %.2f Mbps\n",
              r.qoe.average_declared_bitrate / 1e6);
  std::printf("  track switches       %d (%d non-consecutive)\n",
              r.qoe.switch_count, r.qoe.nonconsecutive_switch_count);
  std::printf("  data usage           %.1f MB (%.1f MB wasted)\n",
              static_cast<double>(r.qoe.total_bytes) / 1e6,
              static_cast<double>(r.qoe.wasted_bytes) / 1e6);
  std::printf("  QoE score            %.2f\n",
              core::qoe_score(r.qoe, r.session_end));
  return 0;
}

int cmd_dissect(const std::string& service) {
  core::InferredDesign d = core::infer_design(services::service(service));
  std::printf("%s (black-box):\n", service.c_str());
  std::printf("  segment duration    %.0f s\n", d.segment_duration);
  std::printf("  separate audio      %s\n", d.separate_audio ? "yes" : "no");
  std::printf("  max TCP             %d (%s)\n", d.max_tcp,
              d.persistent_tcp ? "persistent" : "non-persistent");
  std::printf("  startup             %.0f s / %d segments @ %.2f Mbps\n",
              d.startup_buffer, d.startup_segments, d.startup_bitrate / 1e6);
  std::printf("  pausing/resuming    %.0f / %.0f s\n", d.pausing_threshold,
              d.resuming_threshold);
  std::printf("  stable / aggressive %s / %s\n", d.stable ? "yes" : "NO",
              d.aggressive ? "yes" : "no");
  return 0;
}

int cmd_trace(int profile, const char* out) {
  net::BandwidthTrace trace = trace::cellular_profile(profile);
  if (out != nullptr) {
    trace::save_trace(trace, out);
    std::printf("wrote %s (mean %.2f Mbps)\n", out, trace.mean() / 1e6);
  } else {
    std::fputs(trace::to_text(trace).c_str(), stdout);
  }
  return 0;
}

int cmd_energy(const std::string& service, int profile) {
  const services::ServiceSpec& spec = services::service(service);
  core::SessionResult r = run(spec, trace::cellular_profile(profile));
  core::RadioEnergyReport energy = core::radio_energy(r.traffic, r.session_end);
  std::printf("%s on profile %d:\n", service.c_str(), profile);
  std::printf("  threshold gap        %.0f s (RRC demotion timer 11 s)\n",
              spec.player.pausing_threshold - spec.player.resuming_threshold);
  std::printf("  radio active/tail    %.0f / %.0f s\n", energy.active_time,
              energy.tail_time);
  std::printf("  high-power fraction  %.1f%%\n",
              energy.high_power_fraction() * 100);
  std::printf("  radio energy         %.0f J\n", energy.energy_joules);
  return 0;
}

/// All scenario names in catalog order (for "--scenarios all" and --list).
std::vector<std::string> scenario_names() {
  std::vector<std::string> names;
  for (const faults::Scenario& s : faults::scenario_catalog()) {
    names.push_back(s.name);
  }
  return names;
}

void parse_services(batch::SweepConfig& config, const char* v,
                    const char* tool) {
  config.services.clear();
  for (const std::string& token : split(v, ',')) {
    const std::string name(trim(token));
    if (name.empty()) continue;
    if (name == "all") {
      config.services = services::catalog();
      continue;
    }
    try {
      config.services.push_back(services::service(name));
    } catch (const Error& e) {
      std::fprintf(stderr, "%s: cell (%s, *, *): %s — skipped\n", tool,
                   name.c_str(), e.what());
    }
  }
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) throw Error(format("cannot write %s", path.c_str()));
  out << content;
  std::fprintf(stderr, "wrote %s\n", path.c_str());
}

/// A text report goes to `path`, or to stdout when no path was given.
void write_text(const std::string& path, const std::string& text) {
  if (path.empty()) {
    std::fputs(text.c_str(), stdout);
  } else {
    write_file(path, text);
  }
}

std::vector<std::string> service_names() {
  std::vector<std::string> names;
  for (const services::ServiceSpec& s : services::catalog()) {
    names.push_back(s.name);
  }
  return names;
}

/// Profile ids from a list ("3", "1-5", "all"). Grids keep out-of-range
/// ids: they become per-cell failures reported with their coordinates, so
/// one bad id never aborts the grid.
std::vector<int> parse_profiles(const char* v) {
  std::vector<int> ids;
  for (std::int64_t id :
       tools::parse_int_list(v, 1, trace::kProfileCount, "profile")) {
    ids.push_back(static_cast<int>(id));
  }
  return ids;
}

std::vector<std::uint64_t> parse_seeds(const char* v, std::int64_t all_hi) {
  std::vector<std::uint64_t> seeds;
  for (std::int64_t seed : tools::parse_int_list(v, 0, all_hi, "seed")) {
    seeds.push_back(static_cast<std::uint64_t>(seed));
  }
  return seeds;
}

/// Numeric knobs that make a run degenerate rather than fail loudly (a 0 s
/// timeline bin never advances; a 0 s TTL caches nothing; a 0-retry "retry
/// budget" silently disables failover) are rejected here, by flag name.
double parse_positive(const char* v, const char* flag) {
  const double value = parse_double(v);
  if (!(value > 0)) {
    throw Error(format("%s must be positive (got %s)", flag, v));
  }
  return value;
}

/// Parses a comma-separated origin-mode list for the sweep/faults grids;
/// unknown modes throw ConfigError here, once, before any cell runs.
std::vector<std::string> parse_origin_modes(const char* v) {
  std::vector<std::string> modes;
  for (const std::string& token : split(v, ',')) {
    const std::string name(trim(token));
    if (name.empty()) continue;
    origin::parse_mode(name);
    modes.push_back(name);
  }
  if (modes.empty()) modes.push_back("none");
  return modes;
}

/// The grid flags `sweep` and `faults` share; parse() consumes one of them
/// per call and returns false when the cursor points at something else.
struct GridFlags {
  std::string csv_path;
  std::string jsonl_path;
  tools::ObsOutputs outputs;  ///< grids honour --metrics-out only
  bool progress = false;

  bool parse(Args& args, batch::SweepConfig& config, const char* tool) {
    if (const char* v = args.value("--services")) {
      parse_services(config, v, tool);
    } else if (const char* v = args.value("--profiles")) {
      config.profiles = parse_profiles(v);
    } else if (const char* v = args.value("--seeds")) {
      config.seeds = parse_seeds(v, 0);
    } else if (const char* v = args.value("--origin")) {
      config.origin_modes = parse_origin_modes(v);
    } else if (const char* v = args.value("--jobs")) {
      config.jobs = parse_int_flag(v, "--jobs");
    } else if (const char* v = args.value("--duration")) {
      config.session_duration = parse_positive(v, "--duration");
    } else if (const char* v = args.value("--cell-budget")) {
      // Per-cell wall-clock budget in seconds; <= 0 (e.g. "-1") = unlimited.
      const double budget = parse_double(v);
      config.cell_wall_budget = budget <= 0 ? 0 : budget;
    } else if (const char* v = args.value("--cell-retries")) {
      config.cell_retries = parse_int_flag(v, "--cell-retries");
    } else if (const char* v = args.value("--csv")) {
      csv_path = v;
    } else if (const char* v = args.value("--jsonl")) {
      jsonl_path = v;
    } else if (outputs.parse(args)) {
      // consumed a --*-out flag and its value
    } else if (args.flag("--progress")) {
      progress = true;
    } else {
      return false;
    }
    return true;
  }
};

bool empty_grid(const batch::SweepConfig& config) {
  if (!config.services.empty() && !config.profiles.empty() &&
      !config.seeds.empty() && !config.fault_scenarios.empty()) {
    return false;
  }
  std::fprintf(stderr, "error: empty grid\n");
  return true;
}

/// Runs the grid of a sweep-backed command after the checks they share and
/// reports every failed cell on stderr; nullopt means exit code 2.
std::optional<batch::SweepResult> sweep_grid(batch::SweepConfig& config,
                                             const GridFlags& flags,
                                             const char* tool) {
  if (empty_grid(config)) return std::nullopt;
  if (!flags.outputs.chrome_trace_path.empty() ||
      !flags.outputs.jsonl_path.empty()) {
    std::fprintf(stderr,
                 "error: --trace-out/--events-out are per-session outputs; "
                 "use `vodx play` (grids support --metrics-out)\n");
    return std::nullopt;
  }
  if (flags.progress) {
    config.progress = [](const batch::CellResult& cell, std::size_t done,
                         std::size_t total) {
      std::fprintf(stderr, "\r[%zu/%zu] %s%s", done, total,
                   cell.coordinates().c_str(), done == total ? "\n" : "   ");
    };
  }
  batch::SweepResult result = batch::run_sweep(config);
  for (const batch::CellResult& cell : result.cells) {
    if (!cell.ok) {
      std::fprintf(stderr, "%s: cell %s %s after %d attempt(s): %s\n", tool,
                   cell.coordinates().c_str(),
                   cell.quarantined ? "QUARANTINED" : "failed",
                   cell.attempts, cell.error.c_str());
    }
  }
  return result;
}

int run_grid(batch::SweepConfig& config, const GridFlags& flags,
             bool print_table) {
  if (!flags.outputs.metrics_path.empty()) config.collect_metrics = true;
  const std::optional<batch::SweepResult> run =
      sweep_grid(config, flags, "sweep");
  if (!run) return 2;
  const batch::SweepResult& result = *run;

  if (print_table) {
    // Per-cell resilience summary in grid order — byte-identical for every
    // --jobs value (the grid order never depends on scheduling).
    Table table({"service", "fault", "state", "startup", "stalls", "stall_s",
                 "rej", "err", "rst", "lat", "qoe"});
    for (const batch::CellResult& cell : result.cells) {
      if (!cell.ok) {
        // Quarantined cells surface as explicit rows, never silently
        // dropped from the grid summary.
        table.add_row({cell.service, cell.fault,
                       cell.quarantined ? "QUARANTINED" : "FAILED", "-", "-",
                       "-", "-", "-", "-", "-", "-"});
        continue;
      }
      const core::QoeReport& q = cell.result.qoe;
      const faults::FaultInjector::Stats& f = cell.result.faults;
      table.add_row(
          {cell.service, cell.fault,
           player::to_string(cell.result.final_state),
           format("%.1f", q.startup_delay), std::to_string(q.stall_count),
           format("%.1f", q.total_stall), std::to_string(f.rejected),
           std::to_string(f.errors), std::to_string(f.resets),
           std::to_string(f.delayed),
           format("%.2f", core::qoe_score(q, cell.result.session_end))});
    }
    table.print();
  }

  const std::string csv = batch::sweep_csv(result);
  if (!print_table && flags.csv_path.empty()) {
    std::fputs(csv.c_str(), stdout);
  } else if (!flags.csv_path.empty()) {
    std::ofstream out(flags.csv_path);
    if (!out) throw Error(format("cannot write %s", flags.csv_path.c_str()));
    out << csv;
    std::fprintf(stderr, "wrote %s (%zu cells, %d failed)\n",
                 flags.csv_path.c_str(), result.cells.size(), result.failed);
  }
  if (!flags.jsonl_path.empty()) {
    write_file(flags.jsonl_path, batch::sweep_jsonl(result));
  }
  if (!flags.outputs.metrics_path.empty()) {
    // Per-cell and merged metrics in one file: the report JSONL carries a
    // {"scope":"cell"} line per cell plus every rollup snapshot.
    batch::SweepMetrics metrics = batch::aggregate_metrics(result);
    write_file(flags.outputs.metrics_path,
               batch::report_jsonl(result, metrics));
  }
  return result.failed > 0 ? 1 : 0;
}

int cmd_sweep(Args& args) {
  batch::SweepConfig config = batch::full_grid();
  config.jobs = 0;  // one worker per hardware thread
  GridFlags flags;
  while (!args.done()) {
    if (const char* v = args.value("--faults")) {
      config.fault_scenarios = tools::parse_name_list(v, scenario_names());
    } else if (!flags.parse(args, config, "sweep")) {
      args.unknown();
    }
  }
  if (args.failed()) return usage();
  return run_grid(config, flags, /*print_table=*/false);
}

int cmd_faults(Args& args) {
  batch::SweepConfig config;
  config.services = services::catalog();
  config.profiles = {7};
  config.fault_scenarios = scenario_names();  // "none" baseline + pathologies
  config.session_duration = 300;
  config.jobs = 0;
  GridFlags flags;
  bool hardened = false;
  while (!args.done()) {
    if (args.flag("--list")) {
      Table table({"scenario", "description"});
      for (const faults::Scenario& s : faults::scenario_catalog()) {
        table.add_row({s.name, s.description});
      }
      table.print();
      return 0;
    } else if (const char* v = args.value("--scenarios")) {
      config.fault_scenarios = tools::parse_name_list(v, scenario_names());
    } else if (args.flag("--hardened")) {
      hardened = true;
    } else if (!flags.parse(args, config, "faults")) {
      args.unknown();
    }
  }
  if (args.failed()) return usage();
  if (hardened) {
    // The jitter seed only decorrelates retry storms across services; the
    // per-cell fault schedule comes from the plan seed, not from here.
    for (std::size_t i = 0; i < config.services.size(); ++i) {
      config.services[i].player =
          faults::hardened(config.services[i].player, batch::derive_seed(0, i));
    }
  }
  return run_grid(config, flags, /*print_table=*/true);
}

int cmd_report(Args& args) {
  batch::SweepConfig config = batch::full_grid();
  config.jobs = 0;
  config.collect_metrics = true;
  GridFlags flags;
  std::string text_path, jsonl_path, html_path;
  bool with_diag = false;
  while (!args.done()) {
    // Own output flags come before GridFlags: --jsonl here means the report
    // JSONL (cells + rollups), not the per-cell QoE rows `sweep` writes.
    if (const char* v = args.value("--faults")) {
      config.fault_scenarios = tools::parse_name_list(v, scenario_names());
    } else if (const char* v = args.value("--out")) {
      text_path = v;
    } else if (const char* v = args.value("--jsonl")) {
      jsonl_path = v;
    } else if (const char* v = args.value("--html")) {
      html_path = v;
    } else if (args.flag("--diag")) {
      with_diag = true;
    } else if (!flags.parse(args, config, "report")) {
      args.unknown();
    }
  }
  if (args.failed()) return usage();
  // --metrics-out is an alias for --jsonl here; both mean the report JSONL.
  if (jsonl_path.empty()) jsonl_path = flags.outputs.metrics_path;

  // --diag shares the single sweep pass: the diag fold runs in the post-join
  // observe callback (grid order, one thread), so the appended tables are
  // byte-identical for every --jobs value, like the metrics rollups.
  diag::SweepDiagnosis sweep_diag;
  if (with_diag) {
    config.observe = [&sweep_diag](const batch::CellResult& cell,
                                   const obs::Observer& observer) {
      diag::fold_cell(sweep_diag, cell, observer);
    };
  }

  const std::optional<batch::SweepResult> run =
      sweep_grid(config, flags, "report");
  if (!run) return 2;
  const batch::SweepResult& result = *run;

  batch::SweepMetrics metrics = batch::aggregate_metrics(result);
  std::string text = batch::report_text(metrics);
  if (with_diag) text += "\n" + diag::diag_text(sweep_diag);
  write_text(text_path, text);
  if (!jsonl_path.empty()) {
    std::string jsonl = batch::report_jsonl(result, metrics);
    if (with_diag) jsonl += diag::diag_jsonl(sweep_diag);
    write_file(jsonl_path, jsonl);
  }
  if (!html_path.empty()) {
    const std::string appendix =
        with_diag ? diag::diag_html_section(sweep_diag) : "";
    write_file(html_path, batch::report_html(metrics, appendix));
  }
  if (!flags.csv_path.empty()) {
    write_file(flags.csv_path, batch::sweep_csv(result));
  }
  return result.failed > 0 ? 1 : 0;
}

int cmd_diagnose(Args& args) {
  batch::SweepConfig config;
  config.services = services::catalog();
  config.profiles = {7};
  config.jobs = 0;
  std::string service;
  int profile = 7;
  bool validate_mode = false;
  double threshold = 0.9;
  std::string text_path, jsonl_path, html_path;
  while (!args.done()) {
    if (args.flag("--validate")) {
      validate_mode = true;
    } else if (const char* v = args.value("--threshold")) {
      threshold = parse_double(v);
    } else if (const char* v = args.value("--services")) {
      parse_services(config, v, "diagnose");
    } else if (const char* v = args.value("--profiles")) {
      config.profiles = parse_profiles(v);
    } else if (const char* v = args.value("--seeds")) {
      config.seeds = parse_seeds(v, 0);
    } else if (const char* v = args.value("--faults")) {
      config.fault_scenarios = tools::parse_name_list(v, scenario_names());
    } else if (const char* v = args.value("--jobs")) {
      config.jobs = parse_int_flag(v, "--jobs");
    } else if (const char* v = args.value("--duration")) {
      config.session_duration = parse_double(v);
      config.content_duration = config.session_duration;
    } else if (const char* v = args.value("--out")) {
      text_path = v;
    } else if (const char* v = args.value("--jsonl")) {
      jsonl_path = v;
    } else if (const char* v = args.value("--html")) {
      html_path = v;
    } else if (const char* p = args.positional()) {
      if (service.empty()) {
        service = p;
      } else {
        profile = parse_profile(p);
      }
    } else {
      args.unknown();
    }
  }
  if (args.failed()) return usage();

  if (validate_mode) {
    diag::ValidateOptions options;
    options.duration = config.session_duration;
    const diag::ValidationReport report = diag::validate(options);
    std::fputs(diag::validation_text(report, threshold).c_str(), stdout);
    return report.pass(threshold) ? 0 : 1;
  }

  if (!service.empty()) {
    // Single-session view: full per-interval blame spans, not rollups.
    const services::ServiceSpec& spec = services::service(service);
    obs::Observer observer;
    const core::SessionResult r = run(spec, trace::cellular_profile(profile),
                                      &observer, config.session_duration);
    std::printf("%s on profile %d (%.0f s session):\n\n", spec.name.c_str(),
                profile, r.session_end);
    std::fputs(diag::diagnosis_text(diag::diagnose(r, observer)).c_str(),
               stdout);
    return 0;
  }

  if (empty_grid(config)) return 2;
  const diag::SweepDiagnosis diagnosis = diag::diagnose_sweep(config);
  write_text(text_path, diag::diag_text(diagnosis));
  if (!jsonl_path.empty()) write_file(jsonl_path, diag::diag_jsonl(diagnosis));
  if (!html_path.empty()) write_file(html_path, diag::diag_html(diagnosis));
  return diagnosis.failed > 0 ? 1 : 0;
}

/// Consumes one of the population flags `pop` and `origin` share; false
/// when the cursor points at something else.
bool parse_population_flag(Args& args, pop::PopulationConfig& config) {
  if (const char* v = args.value("--services")) {
    config.services = tools::parse_name_list(v, service_names());
  } else if (const char* v = args.value("--towers")) {
    for (int id : parse_profiles(v)) config.towers.push_back(id);
  } else if (const char* v = args.value("--seed")) {
    config.seed = static_cast<std::uint64_t>(tools::parse_int_arg(
        v, "--seed", 0, std::numeric_limits<std::int64_t>::max()));
  } else if (const char* v = args.value("--horizon")) {
    config.horizon = parse_positive(v, "--horizon");
  } else if (const char* v = args.value("--rate")) {
    config.arrivals.rate_per_min = parse_double(v);
  } else if (const char* v = args.value("--flash-at")) {
    config.arrivals.flash_at = parse_double(v);
  } else if (const char* v = args.value("--flash-arrivals")) {
    config.arrivals.flash_arrivals = parse_int_flag(v, "--flash-arrivals");
  } else if (const char* v = args.value("--jobs")) {
    config.jobs = parse_int_flag(v, "--jobs");
  } else {
    return false;
  }
  return true;
}

int cmd_pop(Args& args) {
  pop::PopulationConfig config;
  config.jobs = 0;
  config.towers.clear();
  std::string out_path, jsonl_path, csv_path;
  std::string tower_csv_path, timeline_path, html_path;
  while (!args.done()) {
    if (parse_population_flag(args, config)) {
      // consumed one of the flags `pop` and `origin` share
    } else if (const char* v = args.value("--diurnal")) {
      config.arrivals.diurnal_amplitude = parse_double(v);
    } else if (const char* v = args.value("--diurnal-period")) {
      config.arrivals.diurnal_period = parse_double(v);
    } else if (const char* v = args.value("--flash-window")) {
      config.arrivals.flash_window = parse_double(v);
    } else if (const char* v = args.value("--watch-time")) {
      config.watch_time = parse_positive(v, "--watch-time");
    } else if (const char* v = args.value("--watch-sigma")) {
      config.watch_sigma = parse_double(v);
    } else if (const char* v = args.value("--max-sessions")) {
      config.max_sessions_per_tower = parse_int_flag(v, "--max-sessions");
    } else if (const char* v = args.value("--core")) {
      config.sim_core = parse_core(v);
    } else if (const char* v = args.value("--out")) {
      out_path = v;
    } else if (const char* v = args.value("--jsonl")) {
      jsonl_path = v;
    } else if (const char* v = args.value("--csv")) {
      csv_path = v;
    } else if (const char* v = args.value("--tower-csv")) {
      tower_csv_path = v;
    } else if (const char* v = args.value("--timeline-out")) {
      timeline_path = v;
      config.collect_timeline = true;
    } else if (const char* v = args.value("--timeline-bin")) {
      config.timeline_bin = parse_positive(v, "--timeline-bin");
    } else if (const char* v = args.value("--html")) {
      html_path = v;
      config.collect_timeline = true;
    } else if (args.flag("--diag")) {
      config.diagnose = true;
    } else if (const char* v = args.value("--diag-budget")) {
      config.diag_session_budget = parse_int_flag(v, "--diag-budget");
    } else if (const char* v = args.value("--origin")) {
      config.origin = origin::preset(origin::parse_mode(v));
    } else if (args.flag("--shared-content")) {
      config.shared_content = true;
    } else {
      args.unknown();
    }
  }
  if (args.failed()) return usage();
  if (config.towers.empty()) config.towers = {7};
  if (config.origin.mode != origin::Mode::kNone) config.origin.validate();

  const pop::PopulationReport report = pop::run_population(config);
  write_text(out_path, pop::population_text(report));
  if (!jsonl_path.empty()) {
    write_file(jsonl_path, pop::population_jsonl(report));
  }
  if (!csv_path.empty()) write_file(csv_path, pop::population_csv(report));
  if (!tower_csv_path.empty()) {
    write_file(tower_csv_path, pop::population_tower_csv(report));
  }
  if (!timeline_path.empty()) {
    write_file(timeline_path, ends_with(timeline_path, ".jsonl")
                                  ? pop::population_timeline_jsonl(report)
                                  : pop::population_timeline_csv(report));
  }
  if (!html_path.empty()) {
    write_file(html_path, pop::population_timeline_html(report));
  }
  return 0;
}

/// Fraction of a population run's sessions that started playback and were
/// healthy at the end — playing, or ended after their watch time. A session
/// stuck rebuffering at the horizon (its fetch pipeline died) counts as not
/// completed even though it never reached kFailed.
double completed_fraction(const pop::PopulationReport& report, int* completed,
                          int* total) {
  const std::string playing = player::to_string(player::PlayerState::kPlaying);
  const std::string ended = player::to_string(player::PlayerState::kEnded);
  *completed = 0;
  *total = 0;
  for (const pop::TowerReport& tower : report.towers) {
    for (const pop::SessionOutcome& s : tower.outcomes) {
      ++*total;
      if (s.startup_delay >= 0 &&
          (s.final_state == playing || s.final_state == ended)) {
        ++*completed;
      }
    }
  }
  return *total > 0 ? static_cast<double>(*completed) / *total : 0.0;
}

int cmd_origin(Args& args) {
  // Flash-crowd failover drill. Defaults: a 24-viewer crowd lands on the
  // fastest tower (profile 14 — the crowd must fit the radio link, so the
  // pathology separating the legs is origin-side) at t=25 s, the primary DC
  // goes dark at t=28 s for 30 s, and every viewer streams the same title
  // through the tower's shared edge cache.
  pop::PopulationConfig config;
  config.jobs = 0;
  config.horizon = 120;
  config.content_duration = 180;
  config.watch_time = 90;
  config.arrivals.rate_per_min = 2;
  config.arrivals.flash_at = 25;
  config.arrivals.flash_window = 15;
  config.arrivals.flash_arrivals = 24;
  config.shared_content = true;
  config.towers.clear();

  // Knob overrides are tracked separately so they layer onto *both* presets
  // when --mode both runs the naive and hardened legs.
  double cache_ttl = -1, retry_backoff = -1, cooldown = -1;
  int cache_capacity = -1, retries = -1, breaker_threshold = -1;
  bool no_coalesce = false;
  double blackout_at = 28, blackout_duration = 30, flush_at = -1;
  std::string mode = "both";
  std::string out_path;
  while (!args.done()) {
    if (const char* v = args.value("--mode")) {
      mode = v;
    } else if (parse_population_flag(args, config)) {
      // consumed one of the flags `pop` and `origin` share
    } else if (const char* v = args.value("--flash-window")) {
      config.arrivals.flash_window = parse_positive(v, "--flash-window");
    } else if (const char* v = args.value("--blackout-at")) {
      blackout_at = parse_double(v);  // < 0 disables the blackout
    } else if (const char* v = args.value("--blackout-duration")) {
      blackout_duration = parse_positive(v, "--blackout-duration");
    } else if (const char* v = args.value("--flush-at")) {
      flush_at = parse_positive(v, "--flush-at");
    } else if (const char* v = args.value("--cache-ttl")) {
      cache_ttl = parse_positive(v, "--cache-ttl");
    } else if (const char* v = args.value("--cache-capacity")) {
      cache_capacity = parse_int_flag(v, "--cache-capacity", 1);
    } else if (const char* v = args.value("--retries")) {
      retries = parse_int_flag(v, "--retries", 1);
    } else if (const char* v = args.value("--retry-backoff")) {
      retry_backoff = parse_positive(v, "--retry-backoff");
    } else if (const char* v = args.value("--breaker-threshold")) {
      breaker_threshold = parse_int_flag(v, "--breaker-threshold", 1);
    } else if (const char* v = args.value("--cooldown")) {
      cooldown = parse_positive(v, "--cooldown");
    } else if (args.flag("--no-coalesce")) {
      no_coalesce = true;
    } else if (const char* v = args.value("--out")) {
      out_path = v;
    } else {
      args.unknown();
    }
  }
  if (args.failed()) return usage();
  if (config.towers.empty()) config.towers = {14};

  std::vector<origin::Mode> legs;
  if (mode == "both") {
    legs = {origin::Mode::kNaive, origin::Mode::kHardened};
  } else {
    const origin::Mode parsed = origin::parse_mode(mode);
    if (parsed == origin::Mode::kNone) {
      throw Error("--mode none defeats the drill; use naive|hardened|both");
    }
    legs = {parsed};
  }

  if (blackout_at >= 0 && blackout_duration > 0) {
    config.fault_plan.dc_blackouts.push_back(
        faults::DcBlackoutFault{blackout_at, blackout_duration});
  }
  if (flush_at >= 0) {
    config.fault_plan.cache_flushes.push_back(faults::CacheFlushFault{flush_at});
  }

  std::string text = format(
      "origin drill: flash crowd of %d over %.0f s at t=%.0f s "
      "(+%.1f/min background), %zu tower(s), horizon %.0f s\n",
      config.arrivals.flash_arrivals, config.arrivals.flash_window,
      config.arrivals.flash_at, config.arrivals.rate_per_min,
      config.towers.size(), config.horizon);
  if (blackout_at >= 0 && blackout_duration > 0) {
    text += format("primary DC dark %.1f-%.1f s\n", blackout_at,
                   blackout_at + blackout_duration);
  }
  if (flush_at >= 0) text += format("edge cache flushed at %.1f s\n", flush_at);

  std::vector<double> completion;
  std::vector<pop::PopulationReport> reports;
  for (origin::Mode leg : legs) {
    pop::PopulationConfig leg_config = config;
    leg_config.origin = origin::preset(leg);
    if (cache_ttl > 0) leg_config.origin.cache_ttl_s = cache_ttl;
    if (cache_capacity > 0) leg_config.origin.cache_capacity = cache_capacity;
    if (retries > 0) leg_config.origin.retry_budget = retries;
    if (retry_backoff > 0) leg_config.origin.backoff_base_s = retry_backoff;
    if (breaker_threshold > 0) {
      leg_config.origin.breaker_threshold = breaker_threshold;
    }
    if (cooldown > 0) leg_config.origin.breaker_cooldown_s = cooldown;
    if (no_coalesce) leg_config.origin.coalesce = false;
    leg_config.origin.validate();

    const pop::PopulationReport report = pop::run_population(leg_config);
    int completed = 0, total = 0;
    const double fraction = completed_fraction(report, &completed, &total);
    completion.push_back(fraction);
    text += format("\n--- %s origin ---\n", origin::to_string(leg));
    text += pop::population_text(report);
    text += format("completed: %d/%d session(s) (%.1f%%)\n", completed, total,
                   fraction * 100.0);
    reports.push_back(report);
  }
  if (legs.size() == 2) {
    const pop::PopulationReport& naive = reports[0];
    const pop::PopulationReport& hardened = reports[1];
    text += format(
        "\nhardened origin buys back: %+.1f pts completion, "
        "startup p95 %.2f -> %.2f s, stall p95 %.2f -> %.2f s\n",
        (completion[1] - completion[0]) * 100.0, naive.startup.p95,
        hardened.startup.p95, naive.stall.p95, hardened.stall.p95);
  }

  write_text(out_path, text);
  return 0;
}

int cmd_chaos(Args& args) {
  chaos::ChaosConfig config;
  config.jobs = 0;
  std::string repro_path, artifacts_dir, out_path;
  bool list_invariants = false;
  double budget = config.wall_budget;
  while (!args.done()) {
    if (const char* v = args.value("--seeds")) {
      for (std::uint64_t s : parse_seeds(v, 63)) config.seeds.push_back(s);
    } else if (const char* v = args.value("--services")) {
      config.services = tools::parse_name_list(v, service_names());
    } else if (const char* v = args.value("--profiles")) {
      for (int id : parse_profiles(v)) config.profiles.push_back(id);
    } else if (const char* v = args.value("--duration")) {
      config.duration = parse_double(v);
    } else if (const char* v = args.value("--jobs")) {
      config.jobs = parse_int_flag(v, "--jobs");
    } else if (const char* v = args.value("--budget")) {
      budget = parse_double(v);  // "-1" = unlimited; parses as a value, not
                                 // a flag (tools::Args numeric-token rule)
    } else if (const char* v = args.value("--core")) {
      config.sim_core = parse_core(v);
    } else if (args.flag("--minimize")) {
      config.minimize = true;
    } else if (args.flag("--no-minimize")) {
      config.minimize = false;
    } else if (const char* v = args.value("--origin")) {
      // Origin mode implies origin-targeted fault generation: the wider
      // kind die only engages on opt-in, so default campaigns keep their
      // historical plans seed for seed.
      config.origin = origin::parse_mode(v);
      config.gen.origin_faults = config.origin != origin::Mode::kNone;
    } else if (const char* v = args.value("--repro")) {
      repro_path = v;
    } else if (const char* v = args.value("--artifacts")) {
      artifacts_dir = v;
    } else if (const char* v = args.value("--out")) {
      out_path = v;
    } else if (args.flag("--invariants")) {
      list_invariants = true;
    } else {
      args.unknown();
    }
  }
  if (args.failed()) return usage();
  if (list_invariants) {
    Table table({"invariant", "description"});
    for (const chaos::InvariantInfo& info : chaos::invariant_catalog()) {
      table.add_row({info.name, info.description});
    }
    table.print();
    return 0;
  }
  config.wall_budget = budget <= 0 ? 0 : budget;

  if (!repro_path.empty()) {
    std::ifstream in(repro_path);
    if (!in) throw Error(format("cannot read %s", repro_path.c_str()));
    std::ostringstream text;
    text << in.rdbuf();
    const chaos::ReproArtifact artifact = chaos::parse_repro(text.str());
    std::printf("replaying %s: %s, profile %d, %.0f s, chaos seed %llu\n",
                repro_path.c_str(), artifact.service.c_str(),
                artifact.profile_id, artifact.duration,
                static_cast<unsigned long long>(artifact.chaos_seed));
    std::printf("recorded violation: %s\n", artifact.invariants.c_str());

    const chaos::CheckedRun run = chaos::replay(artifact, config);
    if (run.watchdog) {
      std::printf("replay: WATCHDOG — %s\n", run.watchdog_detail.c_str());
      return 1;
    }
    if (run.report.ok()) {
      std::printf("replay: clean — violation did not reproduce\n");
      return 0;
    }
    std::printf("replay: VIOLATION %s\n", run.report.summary().c_str());
    for (const chaos::Violation& v : run.report.violations) {
      std::printf("  %s @ t=%.2f s: %s\n", v.invariant.c_str(), v.time,
                  v.detail.c_str());
    }
    return 1;
  }

  if (config.seeds.empty()) {
    for (std::uint64_t s = 0; s < 64; ++s) config.seeds.push_back(s);
  }

  const chaos::ChaosReport report = chaos::run_chaos(config);
  write_text(out_path, chaos::chaos_report_text(report));

  if (!artifacts_dir.empty()) {
    for (const chaos::ChaosRow& row : report.rows) {
      if (row.ok) continue;
      const std::string path = format(
          "%s/chaos-%llu.json", artifacts_dir.c_str(),
          static_cast<unsigned long long>(row.seed));
      write_file(path, chaos::to_json(row.artifact));
      std::fprintf(stderr, "repro: %s\n", row.artifact.cli_line(path).c_str());
    }
  }
  return report.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    if (command == "list") return cmd_list();
    if (command == "play" && argc >= 3) {
      Args args(argc - 3, argv + 3);
      return cmd_play(argv[2], args);
    }
    if (command == "dissect" && argc >= 3) return cmd_dissect(argv[2]);
    if (command == "trace" && argc >= 3) {
      return cmd_trace(parse_profile(argv[2]),
                       argc >= 4 ? argv[3] : nullptr);
    }
    if (command == "energy" && argc >= 3) {
      return cmd_energy(argv[2], argc >= 4 ? parse_profile(argv[3]) : 7);
    }
    // Every other command parses its own flags from argv[2] on.
    static const std::pair<const char*, int (*)(Args&)> kCommands[] = {
        {"sweep", cmd_sweep},   {"faults", cmd_faults},
        {"report", cmd_report}, {"pop", cmd_pop},
        {"origin", cmd_origin}, {"chaos", cmd_chaos},
        {"diagnose", cmd_diagnose}};
    for (const auto& [name, run] : kCommands) {
      if (command == name) {
        Args args(argc - 2, argv + 2);
        return run(args);
      }
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
