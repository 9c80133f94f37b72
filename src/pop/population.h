// Population-scale multi-session simulation on shared cells.
//
// The paper measures one session per run; the production-scale question
// (ROADMAP item 1) is what happens when many sessions contend for the same
// cell. One net::Simulator per tower hosts N core::HostedSessions whose TCP
// flows share the tower's net::Link bottleneck; viewers arrive by a Poisson
// process with diurnal modulation and optional flash crowds, watch for a
// while, and depart (their flows detach and the link redistributes the
// share max-min fairly on the next tick). Per-session ground truth folds
// into population QoE distributions: p50/p95/p99 startup delay and stall
// time, Jain fairness over per-session throughput, peak concurrency.
//
// Determinism contract (same as batch::run_sweep): every stochastic draw
// derives from batch::derive_seed over pure coordinates — (seed, tower,
// slot) for arrivals, (seed, tower, ordinal) for per-session material — and
// towers are keyed by index, so `--jobs 1/2/8` produce byte-identical
// reports.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/units.h"
#include "faults/fault_plan.h"
#include "net/simulator.h"
#include "obs/timeline.h"
#include "origin/origin.h"
#include "pop/pop_diag.h"

namespace vodx::pop {

/// Seed-pure arrival/departure process for one tower.
struct ArrivalProcess {
  /// Base Poisson arrival rate, viewers per minute per tower.
  double rate_per_min = 6.0;
  /// Diurnal modulation depth in [0, 1]: the instantaneous rate is
  /// rate * (1 + amplitude * sin(2*pi*t / period)), floored at zero.
  double diurnal_amplitude = 0.0;
  Seconds diurnal_period = 3600;
  /// Flash crowd: `flash_arrivals` extra viewers spread uniformly over
  /// [flash_at, flash_at + flash_window). Disabled while flash_at < 0.
  Seconds flash_at = -1;
  Seconds flash_window = 30;
  int flash_arrivals = 0;
};

struct PopulationConfig {
  /// Service-name pool sessions draw from (empty = the whole catalog).
  std::vector<std::string> services;
  /// One entry per tower: the 1-based cellular profile its link follows.
  std::vector<int> towers = {7};
  std::uint64_t seed = 1;
  /// Observation window; sessions still live at the horizon are folded in
  /// as-of that instant.
  Seconds horizon = 1800;
  ArrivalProcess arrivals;
  /// Watch-time model: lognormal with median `watch_time` and sigma
  /// `watch_sigma` (0 = every viewer watches exactly watch_time).
  Seconds watch_time = 600;
  double watch_sigma = 0.0;
  Seconds content_duration = 600;
  /// Per-tower session cap (keeps a runaway rate bounded); 0 = uncapped.
  int max_sessions_per_tower = 0;
  /// Worker threads across towers (0 = hardware); output invariant.
  int jobs = 1;
  /// Simulator core every tower runs on (`vodx pop --core`); both cores
  /// produce byte-identical reports.
  net::SimCore sim_core = net::SimCore::kEvent;

  // --- Telemetry (DESIGN.md §15) -----------------------------------------
  /// Sample every tower into an obs::Timeline (per-bin concurrency, stall /
  /// startup fractions, rung mix, goodput vs capacity); towers merge into a
  /// population timeline post-join. Off by default: the sampler costs one
  /// forced tick plus an O(live sessions) walk per bin.
  bool collect_timeline = false;
  /// Timeline bin width, seconds.
  Seconds timeline_bin = 1.0;
  /// Diagnose sessions with vodx::diag and fold blame rollups per tower and
  /// per time bin. Implies collect_timeline (the fair-share capacity
  /// evidence is synthesised from the timeline).
  bool diagnose = false;
  /// Per-tower cap on diagnosed sessions, first-arrival order (diagnosis
  /// needs a per-session trace + the full finish() analysis); 0 = all.
  int diag_session_budget = 64;

  // --- Origin tier (DESIGN.md §16) ---------------------------------------
  /// Origin/CDN tier every session runs behind (mode kNone = disabled, the
  /// historical path). When enabled, each tower owns ONE shared OriginState:
  /// its edge cache and breaker are shared by every session the tower hosts
  /// (the tower's simulator is single-threaded, so this is determinism- and
  /// TSan-safe).
  origin::OriginOptions origin;
  /// Flash-crowd content model: all of a tower's sessions stream the same
  /// title (one shared content seed per tower), so the tower's edge cache
  /// sees real cross-session hits. Off by default — per-session titles keep
  /// the historical outputs byte-identical.
  bool shared_content = false;
  /// Fault plan applied to every session. Windows are in tower-sim time
  /// (interceptors see sim.now()), so a dc_blackout at t=28s darkens the
  /// primary for every session of the tower, whenever each one arrived. The
  /// per-session injector seed derives from (seed, tower, ordinal); the
  /// default empty plan adds no interceptor at all.
  faults::FaultPlan fault_plan;
};

/// One generated viewer: when they arrive, how long they intend to watch,
/// what they stream.
struct Arrival {
  Seconds at = 0;
  Seconds watch = 0;
  int service_index = 0;           ///< into the resolved service pool
  std::uint64_t content_seed = 0;  ///< per-session content generation
};

/// The tower's full arrival schedule, sorted by time — a pure function of
/// (config, tower_index, service_count). Exposed so determinism tests can
/// pin the process without running any session. When the schedule exceeds
/// `max_sessions_per_tower` it is truncated to the cap (earliest arrivals
/// keep their slots) and `capped`, when non-null, receives the number of
/// arrivals dropped.
std::vector<Arrival> tower_arrivals(const PopulationConfig& config,
                                    int tower_index, int service_count,
                                    int* capped = nullptr);

/// Per-session ground-truth outcome, folded into the distributions.
struct SessionOutcome {
  int tower = 0;
  int ordinal = 0;  ///< arrival order on its tower
  Seconds arrival = 0;
  Seconds departure = 0;  ///< actual: min(arrival + watch, horizon)
  std::string service;
  Seconds startup_delay = -1;  ///< -1: playback never started
  Seconds stall_time = 0;
  int stall_count = 0;
  Bytes total_bytes = 0;
  double mbps = 0;  ///< wire throughput over the session's active span
  std::string final_state;
};

struct TowerReport {
  int profile_id = 0;
  int sessions = 0;
  /// Arrivals dropped by max_sessions_per_tower — a capped tower's
  /// distributions describe a censored population, so every exporter
  /// surfaces this count rather than truncating silently.
  int capped_arrivals = 0;
  /// Origin content builds: one per distinct title the tower hosted.
  int content_builds = 0;
  int peak_concurrent = 0;
  /// Simulated time the peak was first reached (0 when no session arrived).
  Seconds time_of_peak = 0;
  QuantileSummary startup;  ///< over sessions whose playback started
  QuantileSummary stall;    ///< stall seconds, all sessions
  double jain = 0;          ///< fairness over per-session throughput
  double mean_mbps = 0;
  std::vector<SessionOutcome> outcomes;  ///< arrival order
  /// Telemetry timeline (empty unless collect_timeline/diagnose).
  obs::Timeline timeline;
  /// Attribution rollup (zero unless diagnose).
  TowerDiag diag;
  /// The tower's shared origin-tier totals (zero unless origin enabled).
  origin::OriginState::Totals origin_totals;
};

/// The population axis of the paper's per-service tables: Table 2's issue
/// metrics (startup delay, stalls) re-measured as distributions over every
/// session of one service across all towers.
struct ServiceRollup {
  std::string service;
  int sessions = 0;
  QuantileSummary startup;
  QuantileSummary stall;
  double mean_mbps = 0;
};

struct PopulationReport {
  std::vector<TowerReport> towers;  ///< tower-index order
  int total_sessions = 0;
  int never_started = 0;  ///< sessions whose playback never began
  /// Sum of the towers' content builds; no exporter prints it.
  int content_builds = 0;
  QuantileSummary startup;
  QuantileSummary stall;
  std::vector<ServiceRollup> by_service;  ///< service-pool order
  /// Per-tower timelines folded in tower order (empty unless collected).
  obs::Timeline timeline;
  /// Per-tower attribution rollups folded in tower order.
  TowerDiag diag;
  bool diagnosed = false;  ///< whether the diag rollup was populated
  /// Origin-tier totals folded across towers; printed only when enabled, so
  /// origin-free reports stay byte-identical to the historical output.
  origin::OriginState::Totals origin_totals;
  bool origin_enabled = false;
};

/// Runs every tower (parallel across towers, deterministic at any jobs
/// value) and folds the distributions. Throws ConfigError on unknown
/// services or out-of-range tower profiles.
PopulationReport run_population(const PopulationConfig& config);

/// Fixed-width human-readable rollup; byte-stable. Capped towers draw a
/// warning line; diagnosed runs append the stall-blame table.
std::string population_text(const PopulationReport& report);
/// Per-tower summary objects (type "tower") followed by one JSON object per
/// session, tower-index then arrival order.
std::string population_jsonl(const PopulationReport& report);
/// Per-session CSV with header, same order as the jsonl's session lines.
std::string population_csv(const PopulationReport& report);
/// One CSV row per tower: sessions, cap drops, peak (+ when it happened),
/// the tower's QoE quantiles and, on diagnosed runs, attribution columns.
std::string population_tower_csv(const PopulationReport& report);

}  // namespace vodx::pop
