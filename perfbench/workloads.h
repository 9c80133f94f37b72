// The benchmark's workloads: input generation from a seed (set-up), one
// untraced repeat through vodx's own engines (the end-to-end measurement),
// and one traced pass that times the public calls each layer exposes.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "batch/sweep.h"
#include "pop/population.h"
#include "spans.h"

namespace perfbench {

enum class Kind { kSweep, kPopulation, kDiagnosis };

/// One per-session (or per-rollup) result compared by the output check:
/// labels and counts exactly, reals within a relative tolerance.
struct Row {
  std::string key;
  std::vector<std::pair<std::string, std::string>> labels;
  std::vector<std::pair<std::string, long long>> counts;
  std::vector<std::pair<std::string, double>> reals;

  /// One JSON object; reals carry all 17 significant digits.
  std::string json() const;
};

/// Everything a workload runs, generated from its seed during set-up. The
/// engines receive only these configs.
struct Inputs {
  Kind kind = Kind::kSweep;
  std::uint64_t seed = 0;
  int jobs = 1;
  vodx::batch::SweepConfig sweep;          ///< sweep_paper, diag_faults
  vodx::pop::PopulationConfig population;  ///< pop_flash
  /// Per tower, the seed-pure arrival schedule run_population will host.
  std::vector<std::vector<vodx::pop::Arrival>> arrivals;
};

bool known_workload(const std::string& name);

/// Peak resident set of this process so far, KiB.
double peak_rss_kib();

/// Generates and validates a workload's inputs: resolves the services,
/// draws every cell's profile trace (SessionFactory::config) or every
/// tower's arrival schedule, and resolves fault scenarios and origin modes.
/// Throws vodx::ConfigError on an invalid input.
Inputs make_inputs(const std::string& workload, std::uint64_t seed, int jobs);

/// One end-to-end repeat through batch::run_sweep, diag::diagnose_sweep or
/// pop::run_population, timed from outside.
struct Repeat {
  double wall_s = 0;
  long sessions = 0;  ///< sessions (sweep cells) completed
  long failed = 0;    ///< failed or quarantined cells, thrown runs
  /// Host ms from the engine's prepare hook to its progress callback, one
  /// per cell (sweep and diagnosis workloads).
  std::vector<double> cell_ms;
  std::vector<Row> rows;  ///< sorted by key
  /// Engine-return time minus the last progress callback.
  double post_join_s = 0;
  /// Sum of cell walls / (workers x time to the last completion).
  double busy_frac = 0;
  long retried = 0;
  long quarantined = 0;
  std::uint64_t trace_events = 0;
  std::uint64_t trace_dropped = 0;
};

Repeat run_repeat(const Inputs& inputs);

/// Deterministic work counts of one traced pass, keyed by metric name.
using Ledger = std::map<std::string, long long>;

struct TracedPass {
  double wall_s = 0;
  Ledger ledger;
  /// Layer figures that are not span times (fractions, memory).
  std::map<std::string, double> figures;
  /// The same rows run_repeat reports, rebuilt from the traced calls.
  std::vector<Row> rows;
};

/// Runs the workload's sessions through the public per-layer calls
/// (SessionFactory::config, HostedSession, Simulator::run_until, finish,
/// diag::diagnose; pop::run_population as one call), recording spans into
/// `log` under `pass`.
TracedPass run_traced(const Inputs& inputs, SpanLog& log, int pass);

}  // namespace perfbench
