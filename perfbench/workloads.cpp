#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <sys/resource.h>

#include "batch/thread_pool.h"
#include "common/error.h"
#include "common/strings.h"
#include "core/buffer_inference.h"
#include "core/session_factory.h"
#include "core/traffic_analyzer.h"
#include "diag/diagnose.h"
#include "diag/rollup.h"
#include "faults/fault_plan.h"
#include "net/link.h"
#include "origin/origin.h"
#include "services/content_factory.h"

namespace perfbench {

using vodx::format;
namespace batch = vodx::batch;
namespace core = vodx::core;
namespace diag = vodx::diag;
namespace faults = vodx::faults;
namespace net = vodx::net;
namespace obs = vodx::obs;
namespace origin = vodx::origin;
namespace pop = vodx::pop;
namespace services = vodx::services;

namespace {

// Low-, mid- and high-bandwidth cellular profiles (Fig. 3 ids).
const std::vector<int> kProfiles = {3, 7, 11};
// Sweep seeds per sweep_paper grid: 12 services x 3 profiles x 3 = 108 cells.
constexpr int kSweepSeeds = 3;
const std::vector<std::string> kFaults = {"none", "flaky-origin", "resets",
                                          "blackout"};

std::size_t cell_count(const batch::SweepConfig& c) {
  return c.services.size() * c.profiles.size() * c.seeds.size() *
         c.fault_scenarios.size() * c.origin_modes.size();
}

/// Grid order as batch::run_sweep expands it (service-major, origin
/// innermost).
std::size_t grid_index(const batch::SweepConfig& c, const batch::Cell& cell) {
  std::size_t index = static_cast<std::size_t>(cell.service_index);
  index = index * c.profiles.size() + static_cast<std::size_t>(cell.profile_index);
  index = index * c.seeds.size() + static_cast<std::size_t>(cell.seed_index);
  index = index * c.fault_scenarios.size() +
          static_cast<std::size_t>(cell.fault_index);
  return index * c.origin_modes.size() +
         static_cast<std::size_t>(cell.origin_index);
}

batch::Cell grid_cell(const batch::SweepConfig& c, std::size_t index) {
  batch::Cell cell;
  cell.origin_index = static_cast<int>(index % c.origin_modes.size());
  index /= c.origin_modes.size();
  cell.fault_index = static_cast<int>(index % c.fault_scenarios.size());
  index /= c.fault_scenarios.size();
  cell.seed_index = static_cast<int>(index % c.seeds.size());
  index /= c.seeds.size();
  cell.profile_index = static_cast<int>(index % c.profiles.size());
  cell.service_index = static_cast<int>(index / c.profiles.size());
  return cell;
}

template <typename T>
const T& at(const std::vector<T>& v, int i) {
  return v[static_cast<std::size_t>(i)];
}

core::SessionFactory factory_for(const batch::SweepConfig& c) {
  core::SessionFactory factory;
  factory.session_duration = c.session_duration;
  factory.content_duration = c.content_duration;
  factory.qoe_options = c.qoe_options;
  factory.sim_core = c.sim_core;
  factory.wall_budget = c.cell_wall_budget;
  factory.max_events_per_instant = c.cell_max_events_per_instant;
  return factory;
}

core::SessionConfig profile_config(const batch::SweepConfig& c,
                                   const core::SessionFactory& factory,
                                   const batch::Cell& cell) {
  const std::uint64_t seed = at(c.seeds, cell.seed_index);
  return factory.config(at(c.services, cell.service_index),
                        at(c.profiles, cell.profile_index),
                        batch::trace_seed_for(seed),
                        batch::content_seed_for(seed));
}

/// The fault plan and origin options run_sweep gives a cell, derived from
/// its coordinates by the engine's public seed functions.
void apply_cell_options(const batch::SweepConfig& c, const batch::Cell& cell,
                        core::SessionConfig& session) {
  const std::uint64_t seed = at(c.seeds, cell.seed_index);
  const std::string& fault = at(c.fault_scenarios, cell.fault_index);
  if (fault != "none") {
    faults::FaultPlan plan = faults::scenario(fault);
    plan.seed = batch::fault_seed_for(seed, cell.service_index,
                                      cell.profile_index, cell.fault_index);
    session.fault_plan = std::move(plan);
  }
  const std::string& mode = at(c.origin_modes, cell.origin_index);
  if (mode != "none") {
    session.origin = origin::preset(origin::parse_mode(mode));
    session.origin.seed = batch::derive_seed(
        batch::derive_seed(seed, /*a=*/4),
        static_cast<std::uint64_t>(cell.service_index),
        static_cast<std::uint64_t>(cell.profile_index),
        static_cast<std::uint64_t>(cell.origin_index));
  }
}

std::string cell_key(const batch::SweepConfig& c, const batch::Cell& cell) {
  return format("%05zu/%s/p%d/s%llu/%s/%s", grid_index(c, cell),
                at(c.services, cell.service_index).name.c_str(),
                at(c.profiles, cell.profile_index),
                static_cast<unsigned long long>(at(c.seeds, cell.seed_index)),
                at(c.fault_scenarios, cell.fault_index).c_str(),
                at(c.origin_modes, cell.origin_index).c_str());
}

Row session_row(std::string key, const core::SessionResult& r) {
  const core::QoeReport& truth = r.ground_truth;
  const core::QoeReport& inferred = r.qoe;
  Row row;
  row.key = std::move(key);
  row.labels = {{"final_state", vodx::player::to_string(r.final_state)}};
  row.counts = {
      {"ok", 1},
      {"stalls", truth.stall_count},
      {"switches", truth.switch_count},
      {"total_bytes", truth.total_bytes},
      {"media_bytes", truth.media_bytes},
      {"wasted_bytes", truth.wasted_bytes},
      {"downloads", static_cast<long long>(r.traffic.downloads.size())},
      {"inferred_stalls", inferred.stall_count},
      {"faults_fired", r.faults.rejected + r.faults.errors + r.faults.resets +
                           r.faults.delayed}};
  row.reals = {{"startup_s", truth.startup_delay},
               {"stall_s", truth.total_stall},
               {"bitrate_bps", truth.average_declared_bitrate},
               {"inferred_startup_s", inferred.startup_delay},
               {"inferred_stall_s", inferred.total_stall},
               {"inferred_bitrate_bps", inferred.average_declared_bitrate},
               {"position_s", r.final_position},
               {"end_s", r.session_end}};
  return row;
}

Row failed_row(std::string key, const std::string& error) {
  Row row;
  row.key = std::move(key);
  row.labels = {{"error", error}};
  row.counts = {{"ok", 0}};
  return row;
}

Row cell_row(const batch::SweepConfig& c, const batch::CellResult& cell) {
  std::string key = cell_key(c, cell.cell);
  return cell.ok ? session_row(std::move(key), cell.result)
                 : failed_row(std::move(key), cell.error);
}

Row rollup_row(const std::string& scope, const diag::DiagRollup& r) {
  Row row;
  row.key = "diag/" + scope + "/" + r.key;
  row.counts = {{"cells", r.cells},
                {"trace_dropped", static_cast<long long>(r.trace_dropped)}};
  row.reals = {{"problem_s", r.problem_s},
               {"stall_s", r.stall_s},
               {"startup_s", r.startup_s}};
  for (diag::Cause cause : diag::all_causes()) {
    row.reals.emplace_back(std::string("blamed_") + diag::to_string(cause),
                           r.blamed_s[static_cast<int>(cause)]);
  }
  return row;
}

void append_diag_rows(const diag::SweepDiagnosis& d, std::vector<Row>& rows) {
  Row summary;
  summary.key = "diag/summary";
  summary.counts = {{"cells", d.total_cells}, {"failed", d.failed}};
  rows.push_back(summary);
  rows.push_back(rollup_row("overall", d.overall));
  for (const auto& r : d.by_service) rows.push_back(rollup_row("service", r));
  for (const auto& r : d.by_profile) rows.push_back(rollup_row("profile", r));
  for (const auto& r : d.by_fault) rows.push_back(rollup_row("fault", r));
}

diag::DiagRollup& rollup_for(std::vector<diag::DiagRollup>& rollups,
                             const std::string& key) {
  for (diag::DiagRollup& rollup : rollups) {
    if (rollup.key == key) return rollup;
  }
  rollups.emplace_back();
  rollups.back().key = key;
  return rollups.back();
}

void append_population_rows(const pop::PopulationReport& report,
                            std::vector<Row>& rows) {
  Row summary;
  summary.key = "population";
  summary.counts = {{"sessions", report.total_sessions},
                    {"never_started", report.never_started}};
  rows.push_back(summary);
  for (std::size_t t = 0; t < report.towers.size(); ++t) {
    const pop::TowerReport& tower = report.towers[t];
    const origin::OriginState::Totals& o = tower.origin_totals;
    Row row;
    row.key = format("tower%zu", t);
    row.counts = {{"sessions", tower.sessions},
                  {"capped", tower.capped_arrivals},
                  {"peak_concurrent", tower.peak_concurrent},
                  {"origin_hits", o.hits},
                  {"origin_misses", o.misses},
                  {"origin_expired", o.expired},
                  {"origin_coalesced", o.coalesced},
                  {"origin_retries", o.retries},
                  {"origin_secondary", o.secondary},
                  {"origin_errors", o.errors}};
    row.reals = {{"time_of_peak_s", tower.time_of_peak},
                 {"jain", tower.jain}};
    rows.push_back(row);
    for (const pop::SessionOutcome& s : tower.outcomes) {
      Row session;
      session.key = format("tower%zu/%05d", t, s.ordinal);
      session.labels = {{"service", s.service},
                        {"final_state", s.final_state}};
      session.counts = {{"stalls", s.stall_count},
                        {"total_bytes", s.total_bytes}};
      session.reals = {{"arrival_s", s.arrival},
                       {"departure_s", s.departure},
                       {"startup_s", s.startup_delay},
                       {"stall_s", s.stall_time},
                       {"mbps", s.mbps}};
      rows.push_back(session);
    }
  }
}

void sort_rows(std::vector<Row>& rows) {
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.key < b.key; });
}

std::string json_string(const std::string& raw) {
  std::string out = "\"";
  for (char ch : raw) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += format("\\u%04x", ch);
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (std::isnan(value)) return "NaN";
  if (std::isinf(value)) return value > 0 ? "Infinity" : "-Infinity";
  return format("%.17g", value);
}

/// Current resident set in KiB (/proc/self/statm), or 0 if unreadable.
double current_rss_kib() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long pages = 0;
  long resident = 0;
  const int read = std::fscanf(f, "%ld %ld", &pages, &resident);
  std::fclose(f);
  return read == 2 ? static_cast<double>(resident) * 4.0 : 0.0;
}

// --- End-to-end repeats ----------------------------------------------------

Repeat repeat_sweep(const Inputs& in) {
  batch::SweepConfig c = in.sweep;
  const std::size_t n = cell_count(c);
  Repeat r;
  std::vector<double> started(n, -1.0);
  double busy = 0;
  double last_done = 0;
  // prepare and progress for one cell run on the same worker thread, and
  // the engine serializes progress callbacks, so neither needs a lock.
  c.prepare = [&](const batch::Cell& cell, core::SessionConfig&) {
    double& start = started[grid_index(c, cell)];
    if (start < 0) start = now_s();  // first attempt, if retried
  };
  c.progress = [&](const batch::CellResult& cell, std::size_t, std::size_t) {
    const double done = now_s();
    const double wall = done - started[grid_index(c, cell.cell)];
    r.cell_ms.push_back(wall * 1e3);
    busy += wall;
    last_done = done;
    r.rows.push_back(cell_row(c, cell));
    if (!cell.ok) ++r.failed;
    if (cell.quarantined) ++r.quarantined;
    if (cell.attempts > 1) ++r.retried;
    r.trace_events += cell.trace_emitted;
    r.trace_dropped += cell.trace_dropped;
  };

  const double t0 = now_s();
  std::optional<diag::SweepDiagnosis> diagnosis;
  if (in.kind == Kind::kDiagnosis) {
    diagnosis = diag::diagnose_sweep(c);
  } else {
    batch::run_sweep(c);
  }
  const double t1 = now_s();

  r.wall_s = t1 - t0;
  r.sessions = static_cast<long>(n) - r.failed;
  r.post_join_s = t1 - last_done;
  const double workers = static_cast<double>(
      std::min<std::size_t>(n, static_cast<std::size_t>(
                                   batch::resolve_jobs(c.jobs))));
  r.busy_frac = busy / (workers * (last_done - t0));
  if (diagnosis) append_diag_rows(*diagnosis, r.rows);
  sort_rows(r.rows);
  return r;
}

Repeat repeat_population(const Inputs& in) {
  Repeat r;
  const double t0 = now_s();
  try {
    const pop::PopulationReport report = pop::run_population(in.population);
    r.wall_s = now_s() - t0;
    r.sessions = report.total_sessions;
    append_population_rows(report, r.rows);
  } catch (const std::exception& e) {
    r.wall_s = now_s() - t0;
    std::fprintf(stderr, "run_population threw: %s\n", e.what());
    for (const auto& tower : in.arrivals) {
      r.failed += static_cast<long>(tower.size());
    }
    r.rows.push_back(failed_row("population", e.what()));
  }
  r.cell_ms.push_back(r.wall_s * 1e3);
  sort_rows(r.rows);
  return r;
}

// --- Traced passes ---------------------------------------------------------

struct TracedCell {
  Row row;
  Ledger ledger;
  core::SessionResult result;
  std::optional<faults::FaultPlan> plan;
  std::unique_ptr<obs::Observer> observer;
};

/// One cell through the public calls run_session is built from, in its
/// order, with spans around each. Returns the spans unmerged.
CellTrace trace_cell(const Inputs& in, const core::SessionFactory& factory,
                     std::size_t index, int pass, TracedCell& out) {
  const batch::SweepConfig& c = in.sweep;
  const batch::Cell coords = grid_cell(c, index);
  CellTrace t(static_cast<long>(index), pass);
  const int cell = t.begin("cell", -1);

  const int profile = t.begin("trace.profile", cell);
  core::SessionConfig config = profile_config(c, factory, coords);
  t.end(profile);
  apply_cell_options(c, coords, config);
  out.plan = config.fault_plan;
  std::shared_ptr<origin::OriginState> origin_state;
  if (config.origin.mode != origin::Mode::kNone) {
    origin_state = std::make_shared<origin::OriginState>();
    config.origin_state = origin_state;
  }
  if (in.kind == Kind::kDiagnosis) {
    out.observer = std::make_unique<obs::Observer>();
    config.observer = out.observer.get();
  }

  net::Simulator sim(config.tick);
  sim.set_core(config.sim_core);
  sim.set_wall_budget(config.wall_budget);
  sim.set_max_events_per_instant(config.max_events_per_instant);
  const bool has_blackouts =
      config.fault_plan && !config.fault_plan->blackouts.empty();
  net::Link link(sim,
                 has_blackouts
                     ? faults::apply_blackouts(config.trace,
                                               config.fault_plan->blackouts)
                     : config.trace,
                 config.rtt);
  obs::Observer* observer = config.observer;
  int track = 0;
  if (observer != nullptr) {
    sim.set_observer(observer);
    link.set_observer(observer);
    // The session-level span run_session adds around the run; the summary
    // instants it emits after finish() are not reproduced (diag does not
    // read them).
    track = observer->trace.track("session");
    if (observer->trace.enabled(obs::Category::kSession)) {
      observer->trace.begin(
          0, obs::Category::kSession, "session", track,
          {obs::Field::t("service", config.spec.name),
           obs::Field::n("duration_s", config.session_duration)});
    }
  }

  const int hosted = t.begin("core.HostedSession", cell);
  core::HostedSession session(sim, link, config);
  t.end(hosted);
  session.start();
  const int run = t.begin("net.run_until", cell);
  sim.run_until(config.session_duration);
  t.end(run);
  const int finish = t.begin("core.finish", cell);
  out.result = session.finish(sim.now());
  t.end(finish);
  if (observer != nullptr) {
    const vodx::Seconds end = out.result.session_end;
    if (observer->trace.enabled(obs::Category::kSession)) {
      observer->trace.end(
          end, obs::Category::kSession, "session", track,
          {obs::Field::t("final_state",
                         vodx::player::to_string(out.result.final_state)),
           obs::Field::n("position_s", out.result.final_position)});
    }
    observer->trace.set_clock([end] { return end; });
  }
  t.end(cell);

  t.shadow("services.make_origin", hosted, [&] {
    services::make_origin(config.spec, config.content_duration,
                          config.content_seed);
  });
  t.shadow("core.analyze_traffic", finish, [&] {
    try {
      core::analyze_traffic(session.proxy().log());
    } catch (const vodx::ParseError&) {
      // finish() takes the same path for an unanalyzable log.
    }
  });
  t.shadow("core.infer_buffer", finish, [&] {
    core::infer_buffer(out.result.traffic, out.result.ui,
                       out.result.session_end);
  });

  const vodx::http::TrafficLog& log = session.proxy().log();
  Ledger& l = out.ledger;
  l["net.ticks_executed"] = static_cast<long long>(sim.ticks_executed());
  l["net.ticks_covered"] = static_cast<long long>(sim.ticks_covered());
  l["http.requests"] = static_cast<long long>(log.records().size());
  l["http.bytes"] = log.total_bytes();
  l["services.builds"] = 1;
  const faults::FaultInjector::Stats& f = out.result.faults;
  l["faults.fired"] = f.rejected + f.errors + f.resets + f.delayed;
  if (origin_state != nullptr) {
    const origin::OriginState::Totals& o = origin_state->totals;
    l["origin.hits"] = o.hits;
    l["origin.lookups"] = o.hits + o.misses + o.expired;
    l["origin.coalesced"] = o.coalesced;
    l["origin.secondary"] = o.secondary;
  }
  out.row = session_row(cell_key(c, coords), out.result);
  return t;
}

TracedPass traced_sweep(const Inputs& in, SpanLog& log, int pass) {
  const batch::SweepConfig& c = in.sweep;
  const std::size_t n = cell_count(c);
  const core::SessionFactory factory = factory_for(c);
  std::vector<TracedCell> cells(n);
  TracedPass p;

  const double t0 = now_s();
  batch::parallel_for(n, in.jobs, [&](std::size_t i) {
    log.merge(trace_cell(in, factory, i, pass, cells[i]));
  });
  if (in.kind == Kind::kDiagnosis) {
    // diagnose_sweep diagnoses serially, in grid order, after the join.
    diag::SweepDiagnosis d;
    d.total_cells = static_cast<int>(n);
    CellTrace t(-1, pass);
    const int tail = t.begin("diag.post_join", -1);
    for (std::size_t i = 0; i < n; ++i) {
      const batch::Cell coords = grid_cell(c, i);
      const int span = t.begin("diag.diagnose", tail);
      const diag::Diagnosis diagnosis =
          diag::diagnose(cells[i].result, *cells[i].observer, cells[i].plan);
      t.end(span);
      d.overall.fold(diagnosis);
      rollup_for(d.by_service, at(c.services, coords.service_index).name)
          .fold(diagnosis);
      rollup_for(d.by_profile,
                 format("profile %d", at(c.profiles, coords.profile_index)))
          .fold(diagnosis);
      rollup_for(d.by_fault, at(c.fault_scenarios, coords.fault_index))
          .fold(diagnosis);
    }
    t.end(tail);
    log.merge(std::move(t));
    append_diag_rows(d, p.rows);
    p.figures["diag.attributed_frac"] = d.overall.attributed_fraction();
  }
  p.wall_s = now_s() - t0;

  for (TracedCell& cell : cells) {
    for (const auto& [name, count] : cell.ledger) p.ledger[name] += count;
    p.rows.push_back(std::move(cell.row));
  }
  sort_rows(p.rows);
  return p;
}

TracedPass traced_population(const Inputs& in, SpanLog& log, int pass) {
  const pop::PopulationConfig& config = in.population;
  TracedPass p;
  CellTrace t(-1, pass);
  const double rss_before = current_rss_kib();
  const double t0 = now_s();
  const int run = t.begin("pop.run_population", -1);
  const pop::PopulationReport report = pop::run_population(config);
  t.end(run);
  const double rss_growth = peak_rss_kib() - rss_before;

  // Every hosted session builds its own content, shared title or not; the
  // shadow re-times one build per session with that session's service.
  // Inside run_population the builds run on every worker at once, so the
  // serial shadows are separate roots, not subtracted from the run.
  long long bytes = 0;
  int peak = 0;
  int busiest = 0;
  for (std::size_t tower = 0; tower < report.towers.size(); ++tower) {
    const pop::TowerReport& r = report.towers[tower];
    peak = std::max(peak, r.peak_concurrent);
    busiest = std::max(busiest, r.sessions);
    for (const pop::SessionOutcome& s : r.outcomes) {
      bytes += s.total_bytes;
      const pop::Arrival& a =
          in.arrivals[tower][static_cast<std::size_t>(s.ordinal)];
      t.shadow("services.make_origin", -1, [&] {
        services::make_origin(services::service(s.service),
                              config.content_duration, a.content_seed);
      });
    }
  }
  log.merge(std::move(t));
  p.wall_s = now_s() - t0;

  const origin::OriginState::Totals& o = report.origin_totals;
  p.ledger = {{"pop.sessions", report.total_sessions},
              {"pop.peak_concurrent", peak},
              {"services.builds", report.total_sessions},
              {"http.bytes", bytes},
              {"origin.hits", o.hits},
              {"origin.lookups", o.hits + o.misses + o.expired},
              {"origin.coalesced", o.coalesced},
              {"origin.secondary", o.secondary}};
  const double sessions = std::max(1, report.total_sessions);
  p.figures["pop.tower_sessions_max_over_mean"] =
      busiest * static_cast<double>(report.towers.size()) / sessions;
  // ru_maxrss is a process high-water mark: only the first population run
  // of a process measures its own growth.
  if (pass == 0) p.figures["pop.rss_kb_per_session"] = rss_growth / sessions;
  append_population_rows(report, p.rows);
  sort_rows(p.rows);
  return p;
}

}  // namespace

double peak_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss);  // KiB on Linux
}

std::string Row::json() const {
  std::string out = "{\"key\":" + json_string(key) + ",\"labels\":{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    out += (i ? "," : "") + json_string(labels[i].first) + ":" +
           json_string(labels[i].second);
  }
  out += "},\"counts\":{";
  for (std::size_t i = 0; i < counts.size(); ++i) {
    out += (i ? "," : "") + json_string(counts[i].first) + ":" +
           std::to_string(counts[i].second);
  }
  out += "},\"reals\":{";
  for (std::size_t i = 0; i < reals.size(); ++i) {
    out += (i ? "," : "") + json_string(reals[i].first) + ":" +
           json_number(reals[i].second);
  }
  return out + "}}";
}

bool known_workload(const std::string& name) {
  return name == "sweep_paper" || name == "pop_flash" ||
         name == "diag_faults";
}

Inputs make_inputs(const std::string& workload, std::uint64_t seed,
                   int jobs) {
  if (!known_workload(workload)) {
    throw vodx::ConfigError("unknown workload \"" + workload + "\"");
  }
  Inputs in;
  in.seed = seed;
  in.jobs = jobs;
  if (workload == "pop_flash") {
    in.kind = Kind::kPopulation;
    pop::PopulationConfig& p = in.population;
    p.towers = {3, 7, 11, 14, 3, 7, 11, 14};
    p.seed = seed;
    p.horizon = 300;
    p.watch_time = 150;
    p.watch_sigma = 0.5;
    p.arrivals.rate_per_min = 15;
    p.arrivals.flash_at = 60;
    p.arrivals.flash_window = 30;
    p.arrivals.flash_arrivals = 100;
    p.shared_content = true;
    p.origin = origin::preset(origin::Mode::kHardened);
    p.jobs = jobs;
    const int pool = static_cast<int>(services::catalog().size());
    for (std::size_t t = 0; t < p.towers.size(); ++t) {
      core::SessionFactory::validate_profile(p.towers[t]);
      in.arrivals.push_back(pop::tower_arrivals(p, static_cast<int>(t), pool));
    }
    return in;
  }

  in.kind = workload == "sweep_paper" ? Kind::kSweep : Kind::kDiagnosis;
  batch::SweepConfig& c = in.sweep;
  c.services = services::catalog();
  c.profiles = kProfiles;
  c.jobs = jobs;
  c.seeds.clear();
  const int n_seeds = in.kind == Kind::kSweep ? kSweepSeeds : 1;
  for (int i = 0; i < n_seeds; ++i) {
    c.seeds.push_back(batch::derive_seed(seed, 0x5eed,
                                         static_cast<std::uint64_t>(i)) &
                      0xffffffffu);
  }
  if (in.kind == Kind::kDiagnosis) {
    c.fault_scenarios = kFaults;
    c.origin_modes = {"hardened"};
  }
  // Build every cell's config the way the engine will, so an invalid input
  // fails here, before anything is timed.
  const core::SessionFactory factory = factory_for(c);
  for (std::size_t i = 0; i < cell_count(c); ++i) {
    const batch::Cell cell = grid_cell(c, i);
    core::SessionConfig session = profile_config(c, factory, cell);
    apply_cell_options(c, cell, session);
  }
  return in;
}

Repeat run_repeat(const Inputs& inputs) {
  return inputs.kind == Kind::kPopulation ? repeat_population(inputs)
                                          : repeat_sweep(inputs);
}

TracedPass run_traced(const Inputs& inputs, SpanLog& log, int pass) {
  return inputs.kind == Kind::kPopulation
             ? traced_population(inputs, log, pass)
             : traced_sweep(inputs, log, pass);
}

}  // namespace perfbench
