// Deterministic parallel sweep engine.
//
// A sweep is the cross-product (service × cellular profile × sweep seed ×
// fault scenario) run through core::run_session, one independent simulation
// per cell. The engine guarantees:
//
//   * Determinism: a cell's entire RNG material (bandwidth-trace seed,
//     content seed) derives from the cell's coordinates and the sweep seed —
//     never from thread identity, scheduling order, or wall-clock time.
//   * Ordered aggregation: results are collected into grid order
//     (service-major, then profile, then seed), so serialized output from
//     `--jobs N` is byte-identical to `--jobs 1`.
//   * Isolation: every cell builds its own net::Simulator, proxy, player
//     and (optionally) obs::Observer. Nothing mutable is shared across
//     cells; the only cross-thread state is the engine's own work cursor
//     and its services::ContentCache. Shared inputs (services::catalog(),
//     profile definitions, origin content built through the cache) are
//     immutable after construction; the catalog and profiles are warmed
//     before workers spawn.
//   * Failure containment: a cell that cannot run (bad profile id, config
//     error, session exception) yields a CellResult with ok=false and its
//     coordinates; the rest of the grid still runs.
//
// See DESIGN.md §8 for the full determinism contract.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/session.h"
#include "faults/fault_plan.h"
#include "obs/observer.h"
#include "services/service_catalog.h"
#include "trace/cellular_profiles.h"

namespace vodx::batch {

/// The trace/content seeds the rest of the repo has always used; sweep seed
/// 0 maps to exactly these so a seed-0 sweep reproduces the historical
/// single-threaded harness output byte for byte.
inline constexpr std::uint64_t kLegacyTraceSeed = 2017;
inline constexpr std::uint64_t kLegacyContentSeed = 42;

/// Mixes a base seed with up to three coordinate tags (splitmix64
/// finalizer). Pure function of its arguments: same coordinates, same seed,
/// on any thread, in any order.
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t a,
                          std::uint64_t b = 0, std::uint64_t c = 0);

/// The bandwidth-trace seed for sweep seed `s` (s == 0 -> kLegacyTraceSeed).
std::uint64_t trace_seed_for(std::uint64_t sweep_seed);

/// The content seed for sweep seed `s` (s == 0 -> kLegacyContentSeed).
std::uint64_t content_seed_for(std::uint64_t sweep_seed);

/// The FaultPlan seed for one cell: a pure function of the sweep seed and
/// the cell's grid coordinates, so every (service, profile, fault) cell
/// draws an independent but reproducible fault schedule.
std::uint64_t fault_seed_for(std::uint64_t sweep_seed, int service_index,
                             int profile_index, int fault_index);

/// Grid coordinates of one experiment cell (indices into SweepConfig's
/// services / profiles / seeds / fault_scenarios / origin_modes vectors).
struct Cell {
  int service_index = 0;
  int profile_index = 0;
  int seed_index = 0;
  int fault_index = 0;
  int origin_index = 0;
};

struct CellResult {
  Cell cell;
  std::string service;     ///< spec name (or the raw token if unresolvable)
  int profile_id = 0;      ///< 1-based profile id as requested
  std::uint64_t seed = 0;  ///< sweep seed value
  std::string fault = "none";   ///< fault scenario name
  std::string origin = "none";  ///< origin-tier mode name

  bool ok = false;
  std::string error;  ///< populated when !ok

  /// The cell kept failing its wall-time budget (net::WatchdogError) through
  /// every permitted retry and was quarantined. Quarantined cells are never
  /// silently dropped: they appear in sweep_jsonl, the grid report and the
  /// CLI table as explicit QUARANTINED rows. Implies !ok.
  bool quarantined = false;
  /// Session attempts actually made (1 on the happy path; up to
  /// 1 + cell_retries when the watchdog kept firing).
  int attempts = 0;

  core::SessionResult result;  ///< valid only when ok

  /// Per-cell metrics captured at session end (SweepConfig::collect_metrics
  /// or an observe callback). Deterministic, so merging these in grid order
  /// (batch/report.h) is byte-identical at any `jobs`.
  bool has_metrics = false;
  obs::MetricsSnapshot metrics;

  /// Trace ring accounting at session end (zeros when the cell ran without
  /// an observer or with tracing off). trace_dropped > 0 means the cell's
  /// event window is truncated and trace-derived analyses (diag) are
  /// working from partial evidence; the report renders it as a warning.
  std::uint64_t trace_emitted = 0;
  std::uint64_t trace_dropped = 0;

  /// "(H1, profile 7, seed 0)" — the coordinate string used in diagnostics;
  /// ", fault <name>" / ", origin <mode>" are appended when non-trivial.
  std::string coordinates() const;
};

/// The FaultPlan a cell runs under: its scenario, seeded by
/// fault_seed_for(); nullopt for "none". Throws ConfigError on an unknown
/// scenario name. The sweep engine and every post-hoc analysis (diag
/// rollups, validation) derive a cell's plan here, so they always agree.
std::optional<faults::FaultPlan> fault_plan_for(const CellResult& cell);

struct SweepConfig {
  std::vector<services::ServiceSpec> services;
  std::vector<int> profiles;               ///< 1-based Fig.-3 profile ids
  std::vector<std::uint64_t> seeds = {0};  ///< 0 = paper-default seeds

  /// Fault scenarios by catalog name (faults::scenario()); "none" runs the
  /// cell without a fault plan. The default single-entry vector leaves the
  /// legacy grid order untouched.
  std::vector<std::string> fault_scenarios = {"none"};

  /// Origin-tier modes ("none" | "naive" | "hardened",
  /// origin::parse_mode()); the innermost axis, inside fault. "none" runs
  /// the plain single-origin path, so the default vector multiplies the
  /// grid by exactly 1 and changes nothing.
  std::vector<std::string> origin_modes = {"none"};

  Seconds session_duration = 600;
  Seconds content_duration = 600;
  core::QoeOptions qoe_options;

  /// Worker threads; 0 = one per hardware thread. Output is identical for
  /// every value.
  int jobs = 1;

  /// Simulator core every cell runs on (forwarded to SessionConfig). The
  /// event core and the fixed-tick reference produce identical cells by
  /// contract; the differential test harness sweeps both and compares.
  net::SimCore sim_core = net::SimCore::kEvent;

  /// Capture a per-cell MetricsSnapshot into CellResult::metrics. Each cell
  /// gets its own registry (event tracing stays off unless `observe` is also
  /// set); snapshots are taken in the worker at session end, which is safe —
  /// the cell owns its observer — and deterministic.
  bool collect_metrics = false;

  /// When set, each cell runs with its own obs::Observer and the callback is
  /// invoked once per cell *after* the whole grid has finished, in grid
  /// order (single-threaded, deterministic).
  std::function<void(const CellResult&, const obs::Observer&)> observe;

  /// Optional completion ticker for progress display. Invoked from worker
  /// threads (serialized by the engine) in *completion* order, which is not
  /// deterministic — do not derive results from it.
  std::function<void(const CellResult&, std::size_t done, std::size_t total)>
      progress;

  // --- Self-healing (vodx::chaos) ---------------------------------------
  /// Wall-clock budget per cell *attempt* in seconds (0 = unlimited). A
  /// cell that exhausts it is aborted via net::WatchdogError instead of
  /// hanging the whole sweep. Abort-only: a cell that finishes within
  /// budget is untouched, so determinism of successful output holds.
  Seconds cell_wall_budget = 0;
  /// Bound on events fired at one simulated instant per cell (0 = off);
  /// deterministic livelock detector, forwarded to SessionConfig.
  std::uint64_t cell_max_events_per_instant = 0;
  /// Extra attempts after a watchdog abort before the cell is quarantined.
  /// Only watchdog aborts are retried — deterministic failures (bad config,
  /// session exceptions) would fail identically again.
  int cell_retries = 1;
  /// Test/instrumentation hook: runs on the worker right before each cell
  /// attempt, after the engine has filled the SessionConfig. Lets tests
  /// sabotage one coordinate deterministically (e.g. inflate a cell's
  /// duration so its wall budget trips). Must be thread-safe.
  std::function<void(const Cell&, core::SessionConfig&)> prepare;
};

struct SweepResult {
  std::vector<CellResult> cells;  ///< grid order, one per cell
  int failed = 0;                 ///< number of cells with ok == false
  int quarantined = 0;            ///< subset of failed: watchdog quarantines
  int retried = 0;                ///< cells that needed more than one attempt
};

/// Expands the grid and runs every cell, honouring the guarantees above.
SweepResult run_sweep(const SweepConfig& config);

/// All 12 catalog services × all 14 profiles × seed 0 with paper-default
/// durations — the full-artefact sweep.
SweepConfig full_grid();

/// {1, 2, ..., trace::kProfileCount}.
std::vector<int> all_profile_ids();

/// CSV of all successful cells in grid order:
/// "service,profile,seed,fault,origin," + the core QoE columns. Byte-stable
/// across job counts and repeat runs.
std::string sweep_csv(const SweepResult& result);

/// One JSON object per cell (including failed cells, which carry an
/// "error" member instead of metrics), grid order, byte-stable.
std::string sweep_jsonl(const SweepResult& result);

}  // namespace vodx::batch
