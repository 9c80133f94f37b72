// vodx_perfbench: runs one benchmark workload and prints its metrics.
//
//   vodx_perfbench --workload <sweep_paper|pop_flash|diag_faults>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--jobs <n>] [--out <dir>] [--setup-only]
//
// --trace 0 repeats the workload through vodx's engines for --seconds and
// reports the end-to-end metrics. --trace 1 alternates untraced repeats
// with traced passes (spans around the public per-layer calls) and reports
// the per-layer metrics, writing a Chrome trace and a self-time table to
// --out. Every run also runs the workload at kCheckSeed and writes its
// per-session rows to --out, for comparison with the recorded reference.
// The last stdout line is the result object.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "spans.h"
#include "workloads.h"

namespace {

using perfbench::now_s;

/// The seed whose per-session rows are recorded under perfbench/reference/.
constexpr std::uint64_t kCheckSeed = 0;
/// Below this many repeats a run keeps going past --seconds.
constexpr int kMinRepeats = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  int jobs = 0;
  std::string out = ".bench_build/perfbench-out";
  bool setup_only = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "vodx_perfbench: %s\nusage: vodx_perfbench --workload "
               "<sweep_paper|pop_flash|diag_faults> --seed <n> --seconds <s> "
               "--trace <0|1> [--jobs <n>] [--out <dir>] [--setup-only]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--setup-only") {
      o.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
    } else if (arg == "--trace") {
      o.trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (arg == "--jobs") {
      o.jobs = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (arg == "--out") {
      o.out = value;
    } else {
      usage("unknown flag " + arg);
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) {
      usage("bad value for " + arg + ": " + value);
    }
  }
  if (!perfbench::known_workload(o.workload)) usage("unknown --workload");
  if (!o.setup_only && !(o.seconds > 0)) usage("--seconds must be > 0");
  if (!o.setup_only && o.trace != 0 && o.trace != 1) usage("--trace is 0 or 1");
  if (o.jobs < 0) usage("--jobs must be >= 0");
  if (o.jobs == 0) {
    // At most four workers, fixed per machine: peak RSS grows with them.
    const unsigned hw = std::thread::hardware_concurrency();
    o.jobs = static_cast<int>(std::clamp(hw, 1u, 4u));
  }
  return o;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolation quantile (q in [0, 1]).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Number of rows of `got` that differ from `want` (missing ones included).
long row_mismatches(const std::vector<perfbench::Row>& want,
                    const std::vector<perfbench::Row>& got) {
  long bad = static_cast<long>(std::max(want.size(), got.size()) -
                               std::min(want.size(), got.size()));
  for (std::size_t i = 0; i < std::min(want.size(), got.size()); ++i) {
    if (want[i].json() != got[i].json()) ++bad;
  }
  return bad;
}

void write_file(const std::string& path, const std::string& body) {
  std::ofstream f(path, std::ios::binary);
  f << body;
  if (!f) std::fprintf(stderr, "cannot write %s\n", path.c_str());
}

std::string rows_jsonl(const std::vector<perfbench::Row>& rows) {
  std::string out;
  for (const perfbench::Row& row : rows) out += row.json() + "\n";
  return out;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, long attempted, long failed,
                  const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  std::printf("%s}}\n", out.c_str());
  std::fflush(stdout);
}

struct Tally {
  bool correct = true;
  long attempted = 0;
  long failed = 0;

  void fail(const std::string& why, long count) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
    correct = false;
    failed += std::max(1L, count);
  }
};

/// --trace 0: repeats through the engines, end-to-end metrics.
std::vector<Metric> measure(const Options& o, const perfbench::Inputs& in,
                            const perfbench::Repeat& warm, double setup_s,
                            Tally& tally) {
  std::vector<double> rate, p50, p90, cells;
  std::vector<double> walls;
  const double start = now_s();
  while (now_s() - start < o.seconds ||
         static_cast<int>(rate.size()) < kMinRepeats) {
    const perfbench::Repeat r = perfbench::run_repeat(in);
    tally.attempted += r.sessions + r.failed;
    if (r.failed > 0) tally.fail("failed sessions in a repeat", r.failed);
    const long diff = row_mismatches(warm.rows, r.rows);
    if (diff > 0) tally.fail("repeat differs from the first repeat", diff);
    rate.push_back(static_cast<double>(r.sessions) / r.wall_s);
    walls.push_back(r.wall_s * 1e3);
    if (in.kind != perfbench::Kind::kPopulation) {
      p50.push_back(quantile(r.cell_ms, 0.5));
      p90.push_back(quantile(r.cell_ms, 0.9));
      cells.push_back(static_cast<double>(r.cell_ms.size()));
    }
  }
  double cell_p50 = median(p50);
  double cell_p90 = median(p90);
  if (in.kind == perfbench::Kind::kPopulation) {
    // A population run is one cell: percentiles over the repeats' walls.
    cell_p50 = quantile(walls, 0.5);
    cell_p90 = quantile(walls, 0.9);
    cells.push_back(static_cast<double>(walls.size()));
  }
  std::fprintf(stderr,
               "%s seed %llu: %zu repeats, %d workers, %.0f cell samples per "
               "percentile\n",
               o.workload.c_str(), static_cast<unsigned long long>(o.seed),
               rate.size(), o.jobs, median(cells));
  const double ok_frac =
      1.0 - static_cast<double>(tally.failed) /
                static_cast<double>(std::max(1L, tally.attempted));
  return {{"sessions_per_s", median(rate), "1/s"},
          {"cell_ms_p50", cell_p50, "ms"},
          {"cell_ms_p90", cell_p90, "ms"},
          {"peak_rss_mb", perfbench::peak_rss_kib() / 1024.0, "MB"},
          {"setup_s", setup_s, "s"},
          {"ok_frac", ok_frac, "frac"}};
}

/// Prints the ledger (deterministic counts) as one line for the tests.
void print_ledger(const perfbench::Ledger& ledger) {
  std::string line = "LEDGER {";
  bool first = true;
  for (const auto& [name, count] : ledger) {
    line += (first ? "\"" : ", \"") + name + "\": " + std::to_string(count);
    first = false;
  }
  std::printf("%s}\n", line.c_str());
}

/// --trace 1: alternating untraced repeats and traced passes, per-layer
/// metrics.
std::vector<Metric> measure_traced(const Options& o,
                                   const perfbench::Inputs& in,
                                   const perfbench::Repeat& warm,
                                   Tally& tally) {
  using perfbench::Kind;
  perfbench::SpanLog log;
  std::vector<perfbench::TracedPass> passes;
  std::vector<perfbench::Repeat> repeats;
  const double start = now_s();
  // The traced pass goes first: a population run's memory growth is only
  // visible to the first run of the process.
  while (now_s() - start < o.seconds || passes.size() < 2) {
    passes.push_back(perfbench::run_traced(in, log,
                                           static_cast<int>(passes.size())));
    repeats.push_back(perfbench::run_repeat(in));
    const perfbench::TracedPass& p = passes.back();
    const perfbench::Repeat& r = repeats.back();
    tally.attempted += r.sessions + r.failed;
    if (r.failed > 0) tally.fail("failed sessions in a repeat", r.failed);
    if (const long d = row_mismatches(warm.rows, r.rows)) {
      tally.fail("untraced repeat differs from the first repeat", d);
    }
    if (const long d = row_mismatches(warm.rows, p.rows)) {
      tally.fail("traced pass results differ from the engine's", d);
    }
    if (p.ledger != passes.front().ledger) {
      tally.fail("work ledger differs between traced passes", 1);
    }
  }

  // Per pass: span totals and self times, then the median over passes.
  std::map<std::string, std::vector<double>> per_pass;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const auto layers = log.layers(static_cast<int>(i));
    const auto total = [&](const char* name) {
      const auto it = layers.find(name);
      return it == layers.end() ? 0.0 : it->second.total_s;
    };
    const auto self = [&](const char* name) {
      const auto it = layers.find(name);
      return it == layers.end() ? 0.0 : it->second.self_s;
    };
    const perfbench::Ledger& l = passes[i].ledger;
    const auto count = [&](const char* name) {
      const auto it = l.find(name);
      return it == l.end() ? 0.0 : static_cast<double>(it->second);
    };
    auto& m = per_pass;
    m["trace.profile_s"].push_back(total("trace.profile"));
    m["services.make_origin_s"].push_back(total("services.make_origin"));
    m["core.wire_s"].push_back(self("core.HostedSession"));
    m["net.run_s"].push_back(total("net.run_until"));
    m["core.finish_s"].push_back(total("core.finish"));
    m["core.analyze_traffic_s"].push_back(total("core.analyze_traffic"));
    m["core.infer_buffer_s"].push_back(total("core.infer_buffer"));
    m["diag.diagnose_s"].push_back(total("diag.diagnose"));
    m["pop.run_s"].push_back(total("pop.run_population"));
    const double executed = count("net.ticks_executed");
    m["net.us_per_executed_tick"].push_back(
        executed > 0 ? 1e6 * total("net.run_until") / executed : 0.0);
    // Everything the layers account for, over the traced wall (cell spans
    // plus the post-join diagnosis, or the population run).
    double accounted = 0;
    for (const auto& [name, layer] : layers) {
      if (name != "cell" && name != "diag.post_join") accounted += layer.self_s;
    }
    const double roots = log.root_time(static_cast<int>(i));
    m["bench.accounted_frac"].push_back(roots > 0 ? accounted / roots : 0.0);
    m["bench.traced_wall_s"].push_back(passes[i].wall_s);
    m["bench.untraced_wall_s"].push_back(repeats[i].wall_s);
    m["batch.post_join_s"].push_back(
        in.kind == Kind::kPopulation ? 0.0 : repeats[i].post_join_s);
    m["batch.busy_frac"].push_back(
        in.kind == Kind::kPopulation ? 0.0 : repeats[i].busy_frac);
  }
  const auto med = [&](const char* name) { return median(per_pass[name]); };

  const double accounted = med("bench.accounted_frac");
  if (in.kind != Kind::kPopulation && (accounted < 0.9 || accounted > 1.1)) {
    tally.fail("per-layer self times account for " +
                   std::to_string(100 * accounted) +
                   "% of the traced cell wall (limit 90-110%)",
               1);
  }

  const perfbench::TracedPass& first = passes.front();
  const perfbench::Repeat& r0 = repeats.front();
  const auto ledger = [&](const char* name) {
    const auto it = first.ledger.find(name);
    return it == first.ledger.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto figure = [&](const char* name) {
    const auto it = first.figures.find(name);
    return it == first.figures.end() ? 0.0 : it->second;
  };
  const double covered = ledger("net.ticks_covered");
  const double lookups = ledger("origin.lookups");
  const double traced = med("bench.traced_wall_s");
  const double untraced = med("bench.untraced_wall_s");

  perfbench::Ledger full = first.ledger;
  full["batch.retried"] = r0.retried;
  full["batch.quarantined"] = r0.quarantined;
  full["obs.trace_events"] = static_cast<long long>(r0.trace_events);
  full["obs.trace_dropped"] = static_cast<long long>(r0.trace_dropped);
  print_ledger(full);

  std::fprintf(stderr, "%s seed %llu: %zu traced passes, %d workers\n",
               o.workload.c_str(), static_cast<unsigned long long>(o.seed),
               passes.size(), o.jobs);
  const std::string stem = o.out + "/" + o.workload + "-seed" +
                           std::to_string(o.seed);
  write_file(stem + ".trace.json",
             log.chrome_trace(static_cast<int>(passes.size()) - 1));
  write_file(stem + ".selftime.txt",
             log.self_time_table(static_cast<int>(passes.size())));
  std::fprintf(stderr, "wrote %s.trace.json and %s.selftime.txt\n",
               stem.c_str(), stem.c_str());

  return {
      {"trace.profile_s", med("trace.profile_s"), "s"},
      {"services.make_origin_s", med("services.make_origin_s"), "s"},
      {"services.builds", ledger("services.builds"), "count"},
      {"core.wire_s", med("core.wire_s"), "s"},
      {"net.run_s", med("net.run_s"), "s"},
      {"net.ticks_executed", ledger("net.ticks_executed"), "count"},
      {"net.ticks_covered", covered, "count"},
      {"net.executed_frac",
       covered > 0 ? ledger("net.ticks_executed") / covered : 0.0, "frac"},
      {"net.us_per_executed_tick", med("net.us_per_executed_tick"), "us"},
      {"http.requests", ledger("http.requests"), "count"},
      {"http.bytes", ledger("http.bytes"), "B"},
      {"core.finish_s", med("core.finish_s"), "s"},
      {"core.analyze_traffic_s", med("core.analyze_traffic_s"), "s"},
      {"core.infer_buffer_s", med("core.infer_buffer_s"), "s"},
      {"diag.diagnose_s", med("diag.diagnose_s"), "s"},
      {"diag.attributed_frac", figure("diag.attributed_frac"), "frac"},
      {"batch.post_join_s", med("batch.post_join_s"), "s"},
      {"batch.busy_frac", med("batch.busy_frac"), "frac"},
      {"batch.retried", static_cast<double>(r0.retried), "count"},
      {"batch.quarantined", static_cast<double>(r0.quarantined), "count"},
      {"pop.run_s", med("pop.run_s"), "s"},
      {"pop.sessions", ledger("pop.sessions"), "count"},
      {"pop.peak_concurrent", ledger("pop.peak_concurrent"), "count"},
      {"pop.tower_sessions_max_over_mean",
       figure("pop.tower_sessions_max_over_mean"), "ratio"},
      {"pop.rss_kb_per_session", figure("pop.rss_kb_per_session"), "KiB"},
      {"origin.hit_frac", lookups > 0 ? ledger("origin.hits") / lookups : 0.0,
       "frac"},
      {"origin.coalesced", ledger("origin.coalesced"), "count"},
      {"origin.secondary", ledger("origin.secondary"), "count"},
      {"faults.fired", ledger("faults.fired"), "count"},
      {"obs.trace_events", static_cast<double>(r0.trace_events), "count"},
      {"obs.trace_dropped", static_cast<double>(r0.trace_dropped), "count"},
      {"bench.traced_wall_s", traced, "s"},
      {"bench.untraced_wall_s", untraced, "s"},
      {"bench.trace_overhead_frac",
       untraced > 0 ? (traced - untraced) / untraced : 0.0, "frac"},
      {"bench.accounted_frac", accounted, "frac"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  now_s();  // the process clock starts here
  const Options o = parse(argc, argv);
  try {
    const perfbench::Inputs in =
        perfbench::make_inputs(o.workload, o.seed, o.jobs);
    const double setup_s = now_s();
    if (o.setup_only) {
      std::printf("{\"setup_s\": %.17g}\n", setup_s);
      return 0;
    }

    Tally tally;
    // Untimed first repeat: lazy initialisation finishes, and its rows are
    // what every later repeat must reproduce exactly.
    const perfbench::Repeat warm = perfbench::run_repeat(in);
    if (warm.failed > 0) tally.fail("failed sessions in the first repeat", warm.failed);
    const std::vector<Metric> metrics =
        o.trace ? measure_traced(o, in, warm, tally)
                : measure(o, in, warm, setup_s, tally);

    // The reference workload, compared against perfbench/reference/ by
    // run.py.
    const perfbench::Repeat check =
        o.seed == kCheckSeed
            ? warm
            : perfbench::run_repeat(
                  perfbench::make_inputs(o.workload, kCheckSeed, o.jobs));
    write_file(o.out + "/" + o.workload + "-check.jsonl",
               rows_jsonl(check.rows));
    print_result(tally.correct, std::max(1L, tally.attempted), tally.failed,
                 metrics);
    return tally.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vodx_perfbench: %s\n", e.what());
    return 1;
  }
}
