#include "batch/sweep.h"

#include <algorithm>
#include <mutex>

#include "batch/thread_pool.h"
#include "net/simulator.h"
#include "common/strings.h"
#include "obs/profiler.h"
#include "core/qoe.h"
#include "core/report.h"
#include "core/session_factory.h"
#include "faults/fault_plan.h"
#include "services/content_factory.h"

namespace vodx::batch {

namespace {

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t a, std::uint64_t b,
                          std::uint64_t c) {
  std::uint64_t x = base;
  x = mix64(x ^ (a + 0x9E3779B97F4A7C15ULL));
  x = mix64(x ^ (b + 0xD1B54A32D192ED03ULL));
  x = mix64(x ^ (c + 0x8CB92BA72F3D8DD7ULL));
  return x;
}

std::uint64_t trace_seed_for(std::uint64_t sweep_seed) {
  if (sweep_seed == 0) return kLegacyTraceSeed;
  return derive_seed(kLegacyTraceSeed, sweep_seed, /*b=*/1);
}

std::uint64_t content_seed_for(std::uint64_t sweep_seed) {
  if (sweep_seed == 0) return kLegacyContentSeed;
  return derive_seed(kLegacyContentSeed, sweep_seed, /*b=*/2);
}

std::uint64_t fault_seed_for(std::uint64_t sweep_seed, int service_index,
                             int profile_index, int fault_index) {
  // Chained so the fault schedule decorrelates across *all* coordinates:
  // the same scenario on a neighbouring profile draws a different schedule.
  return derive_seed(derive_seed(sweep_seed, /*a=*/3),
                     static_cast<std::uint64_t>(service_index),
                     static_cast<std::uint64_t>(profile_index),
                     static_cast<std::uint64_t>(fault_index));
}

std::optional<faults::FaultPlan> fault_plan_for(const CellResult& cell) {
  if (cell.fault == "none") return std::nullopt;
  faults::FaultPlan plan = faults::scenario(cell.fault);
  plan.seed = fault_seed_for(cell.seed, cell.cell.service_index,
                             cell.cell.profile_index, cell.cell.fault_index);
  return plan;
}

std::string CellResult::coordinates() const {
  std::string out =
      format("(%s, profile %d, seed %llu", service.c_str(), profile_id,
             static_cast<unsigned long long>(seed));
  if (fault != "none") out += format(", fault %s", fault.c_str());
  if (origin != "none") out += format(", origin %s", origin.c_str());
  return out + ")";
}

SweepResult run_sweep(const SweepConfig& config) {
  const std::size_t n_services = config.services.size();
  const std::size_t n_profiles = config.profiles.size();
  const std::size_t n_seeds = config.seeds.size();
  const std::size_t n_faults = config.fault_scenarios.size();
  const std::size_t n_origins = config.origin_modes.size();
  const std::size_t total =
      n_services * n_profiles * n_seeds * n_faults * n_origins;

  SweepResult out;
  out.cells.resize(total);
  if (total == 0) return out;

  // Touch every immutable-after-init shared input on this thread, before any
  // worker exists: the service catalog's magic static and the profile-mean
  // table. Cells never mutate these; warming them here removes even the
  // benign first-use races from the TSan picture.
  services::catalog();
  for (int id : config.profiles) {
    if (id >= 1 && id <= trace::kProfileCount) trace::profile_mean(id);
  }

  // One observer per cell when requested, allocated up front so a worker
  // only ever touches the observer owned by its claimed index. Metrics-only
  // collection keeps the event ring off: counters and histograms are what
  // the aggregation layer folds, and tracing every cell of a large grid
  // would dominate the run's memory.
  std::vector<std::unique_ptr<obs::Observer>> observers;
  if (config.observe || config.collect_metrics) {
    observers.resize(total);
    for (auto& o : observers) {
      o = std::make_unique<obs::Observer>();
      if (!config.observe) o->trace.set_enabled(false);
    }
  }

  // One construction path for every cell: the shared knobs are threaded
  // into the factory once, here, and never per cell.
  core::SessionFactory factory;
  factory.session_duration = config.session_duration;
  factory.content_duration = config.content_duration;
  factory.qoe_options = config.qoe_options;
  factory.sim_core = config.sim_core;
  factory.wall_budget = config.cell_wall_budget;
  factory.max_events_per_instant = config.cell_max_events_per_instant;

  // Cells of one title share one immutable origin build while any of them
  // is in flight (DESIGN.md §14).
  services::ContentCache content;

  std::mutex progress_mutex;
  std::size_t done = 0;

  parallel_for(total, config.jobs, [&](std::size_t index) {
    VODX_PROFILE_ZONE("sweep.cell");
    const std::size_t per_service = n_profiles * n_seeds * n_faults * n_origins;
    const std::size_t per_profile = n_seeds * n_faults * n_origins;
    const std::size_t per_seed = n_faults * n_origins;
    CellResult& cell = out.cells[index];
    cell.cell.service_index = static_cast<int>(index / per_service);
    cell.cell.profile_index =
        static_cast<int>((index % per_service) / per_profile);
    cell.cell.seed_index =
        static_cast<int>((index % per_profile) / per_seed);
    cell.cell.fault_index = static_cast<int>((index % per_seed) / n_origins);
    cell.cell.origin_index = static_cast<int>(index % n_origins);

    const services::ServiceSpec& spec =
        config.services[static_cast<std::size_t>(cell.cell.service_index)];
    cell.service = spec.name;
    cell.profile_id =
        config.profiles[static_cast<std::size_t>(cell.cell.profile_index)];
    cell.seed = config.seeds[static_cast<std::size_t>(cell.cell.seed_index)];
    cell.fault = config.fault_scenarios[static_cast<std::size_t>(
        cell.cell.fault_index)];
    cell.origin = config.origin_modes[static_cast<std::size_t>(
        cell.cell.origin_index)];

    // A config-rejected cell never enters the attempt loop: the error is
    // deterministic and must count zero attempts.
    bool profile_ok = true;
    try {
      core::SessionFactory::validate_profile(cell.profile_id);
    } catch (const std::exception& e) {
      cell.error = e.what();
      profile_ok = false;
    }
    if (profile_ok) {
      // Self-healing attempt loop: watchdog aborts (wall budget, event
      // livelock) get a bounded number of fresh attempts; any other failure
      // is deterministic and fails the cell immediately. A cell that burns
      // every attempt is quarantined, not dropped.
      const int max_attempts = 1 + std::max(0, config.cell_retries);
      for (int attempt = 0; attempt < max_attempts; ++attempt) {
        ++cell.attempts;
        try {
          core::SessionConfig session =
              factory.config(spec, cell.profile_id, trace_seed_for(cell.seed),
                             content_seed_for(cell.seed));
          // Unknown scenario names throw ConfigError here and become a
          // per-cell failure with coordinates, like a bad profile id.
          session.fault_plan = fault_plan_for(cell);
          if (cell.origin != "none") {
            // Unknown modes throw ConfigError like unknown scenarios; the
            // jitter seed decorrelates across coordinates the same way the
            // fault seed does.
            session.origin = origin::preset(origin::parse_mode(cell.origin));
            session.origin.seed = derive_seed(
                derive_seed(cell.seed, /*a=*/4),
                static_cast<std::uint64_t>(cell.cell.service_index),
                static_cast<std::uint64_t>(cell.cell.profile_index),
                static_cast<std::uint64_t>(cell.cell.origin_index));
          }
          if (config.prepare) config.prepare(cell.cell, session);
          // Keyed after prepare: the hook may edit the spec or durations.
          session.content = content.get(services::ContentKey(
              session.spec, session.content_duration, session.content_seed));
          if (!observers.empty()) {
            // A retry must not fold the aborted attempt's counters into the
            // final snapshot; give the cell a fresh observer.
            if (attempt > 0) {
              auto fresh = std::make_unique<obs::Observer>();
              if (!config.observe) fresh->trace.set_enabled(false);
              observers[index] = std::move(fresh);
            }
            session.observer = observers[index].get();
          }
          cell.result = core::run_session(session);
          cell.ok = true;
          cell.quarantined = false;
          cell.error.clear();
          if (!observers.empty()) {
            cell.metrics =
                observers[index]->metrics.snapshot(cell.result.session_end);
            cell.has_metrics = true;
            cell.trace_emitted = observers[index]->trace.emitted();
            cell.trace_dropped = observers[index]->trace.dropped();
          }
          break;
        } catch (const net::WatchdogError& e) {
          cell.error = e.what();
          cell.quarantined = true;  // stands unless a later attempt succeeds
        } catch (const std::exception& e) {
          cell.error = e.what();
          break;  // deterministic failure: retrying reproduces it
        }
      }
    }

    if (config.progress) {
      std::lock_guard<std::mutex> lock(progress_mutex);
      config.progress(cell, ++done, total);
    }
  });

  for (const CellResult& cell : out.cells) {
    if (!cell.ok) ++out.failed;
    if (cell.quarantined) ++out.quarantined;
    if (cell.attempts > 1) ++out.retried;
  }
  if (config.observe) {
    for (std::size_t i = 0; i < total; ++i) {
      config.observe(out.cells[i], *observers[i]);
    }
  }
  return out;
}

SweepConfig full_grid() {
  SweepConfig config;
  config.services = services::catalog();
  config.profiles = all_profile_ids();
  return config;
}

std::vector<int> all_profile_ids() {
  std::vector<int> ids;
  ids.reserve(trace::kProfileCount);
  for (int id = 1; id <= trace::kProfileCount; ++id) ids.push_back(id);
  return ids;
}

namespace {

/// The sweep's one column set: cell coordinates, then (JSONL only) the
/// outcome, then the shared core QoE columns, then (JSONL only) the final
/// player state. A failed cell leaves its QoE cells empty and an ok cell its
/// failure cells, so each JSONL record carries only the members that apply.
Table sweep_table(const SweepResult& result, bool with_outcome) {
  using Column = Table::Column;
  const std::vector<Column> qoe = core::qoe_columns();
  std::vector<Column> columns = {"service", Column::number("profile"),
                                 Column::number("seed"), "fault", "origin"};
  if (with_outcome) {
    columns.insert(columns.end(),
                   {Column::number("ok"), Column::number("quarantined"),
                    Column::number("attempts"), "error"});
  }
  columns.insert(columns.end(), qoe.begin(), qoe.end());
  if (with_outcome) {
    columns.insert(columns.end(),
                   {"final_state", Column::number("session_end_s")});
  }

  Table table(std::move(columns));
  for (const CellResult& cell : result.cells) {
    if (!cell.ok && !with_outcome) continue;
    std::vector<std::string> outcome = {"true", "", "", ""};
    std::vector<std::string> qoe_cells(qoe.size());
    std::vector<std::string> final_state(2);
    if (cell.ok) {
      qoe_cells = core::qoe_cells(cell.result);
      final_state = {player::to_string(cell.result.final_state),
                     format("%.2f", cell.result.session_end)};
    } else {
      outcome = {"false", cell.quarantined ? "true" : "false",
                 std::to_string(cell.attempts), cell.error};
    }
    std::vector<std::string> row = {cell.service,
                                    std::to_string(cell.profile_id),
                                    std::to_string(cell.seed), cell.fault,
                                    cell.origin};
    if (with_outcome) row.insert(row.end(), outcome.begin(), outcome.end());
    row.insert(row.end(), qoe_cells.begin(), qoe_cells.end());
    if (with_outcome) {
      row.insert(row.end(), final_state.begin(), final_state.end());
    }
    table.add_row(std::move(row));
  }
  return table;
}

}  // namespace

std::string sweep_csv(const SweepResult& result) {
  return sweep_table(result, /*with_outcome=*/false).csv();
}

std::string sweep_jsonl(const SweepResult& result) {
  return sweep_table(result, /*with_outcome=*/true).jsonl();
}

}  // namespace vodx::batch
