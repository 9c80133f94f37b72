#include "pop/population.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "batch/sweep.h"
#include "batch/thread_pool.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/table.h"
#include "core/session_factory.h"
#include "diag/cause.h"
#include "net/link.h"
#include "obs/observer.h"
#include "obs/profiler.h"
#include "player/player.h"
#include "pop/pop_timeline.h"
#include "services/content_factory.h"
#include "services/service_catalog.h"
#include "trace/cellular_profiles.h"

namespace vodx::pop {

namespace {

// Coordinate tags for batch::derive_seed — distinct per draw family so the
// streams never correlate.
constexpr std::uint64_t kTraceTag = 0x746F7765ULL;    // "towe"
constexpr std::uint64_t kSlotTag = 0x736C6F74ULL;     // "slot"
constexpr std::uint64_t kFlashTag = 0x666C6173ULL;    // "flas"
constexpr std::uint64_t kContentTag = 0x636F6E74ULL;  // "cont"
constexpr std::uint64_t kOriginTag = 0x6F726967ULL;   // "orig"
constexpr std::uint64_t kFaultTag = 0x6661756CULL;    // "faul"

// A tower's shared link and every session it hosts run on the
// core::SessionConfig defaults, so all of them agree on one tick and RTT.
constexpr Seconds kTick = 0.01;
constexpr Seconds kRtt = 0.07;

/// Knuth's product-of-uniforms Poisson draw; fine for the per-second rates
/// a cell sees (lambda well under ~30).
int poisson(Rng& rng, double lambda) {
  if (lambda <= 0) return 0;
  const double limit = std::exp(-lambda);
  int k = 0;
  double product = 1.0;
  do {
    ++k;
    product *= rng.uniform(0, 1);
  } while (product > limit);
  return k - 1;
}

/// Instantaneous arrival rate per second at simulated time t.
double rate_at(const ArrivalProcess& process, Seconds t) {
  double rate = process.rate_per_min / 60.0;
  if (process.diurnal_amplitude > 0 && process.diurnal_period > 0) {
    constexpr double kTwoPi = 6.283185307179586476925286766559;
    rate *= 1.0 + process.diurnal_amplitude *
                      std::sin(kTwoPi * t / process.diurnal_period);
  }
  return std::max(0.0, rate);
}

/// Per-arrival material drawn from the slot's (or the flash window's) own
/// stream; `counter` is the tower-local generation ordinal that keys the
/// content seed.
Arrival draw_arrival(const PopulationConfig& config, Rng& rng, Seconds at,
                     int tower_index, int service_count, int counter) {
  Arrival arrival;
  arrival.at = at;
  arrival.watch =
      config.watch_sigma > 0
          ? std::max(1.0, rng.lognormal(config.watch_time, config.watch_sigma))
          : config.watch_time;
  arrival.service_index =
      static_cast<int>(rng.uniform_int(0, service_count - 1));
  arrival.content_seed =
      batch::derive_seed(config.seed, kContentTag,
                         static_cast<std::uint64_t>(tower_index),
                         static_cast<std::uint64_t>(counter));
  return arrival;
}

}  // namespace

std::vector<Arrival> tower_arrivals(const PopulationConfig& config,
                                    int tower_index, int service_count,
                                    int* capped) {
  if (capped != nullptr) *capped = 0;
  VODX_ASSERT(service_count > 0, "empty service pool");
  std::vector<Arrival> arrivals;
  int counter = 0;
  // Poisson-by-1s-slot: each slot's draw count and placements come from the
  // slot's own stream, keyed (seed, tower, slot) — a worker can regenerate
  // any tower's schedule without any shared state.
  const int slots = static_cast<int>(config.horizon);
  for (int slot = 0; slot < slots; ++slot) {
    const double lambda =
        rate_at(config.arrivals, static_cast<Seconds>(slot) + 0.5);
    Rng rng(batch::derive_seed(config.seed, kSlotTag,
                               static_cast<std::uint64_t>(tower_index),
                               static_cast<std::uint64_t>(slot)));
    const int n = poisson(rng, lambda);
    for (int k = 0; k < n; ++k) {
      const Seconds at = static_cast<Seconds>(slot) + rng.uniform(0, 1);
      arrivals.push_back(draw_arrival(config, rng, at, tower_index,
                                      service_count, counter++));
    }
  }
  const ArrivalProcess& process = config.arrivals;
  if (process.flash_at >= 0 && process.flash_arrivals > 0) {
    Rng rng(batch::derive_seed(config.seed, kFlashTag,
                               static_cast<std::uint64_t>(tower_index)));
    for (int k = 0; k < process.flash_arrivals; ++k) {
      const Seconds at =
          process.flash_at +
          rng.uniform(0, std::max(1e-3, process.flash_window));
      if (at >= config.horizon) continue;
      arrivals.push_back(draw_arrival(config, rng, at, tower_index,
                                      service_count, counter++));
    }
  }
  // Stable by time: same-instant arrivals keep generation order, so the
  // schedule is reproducible float for float.
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [](const Arrival& a, const Arrival& b) {
                     return a.at < b.at;
                   });
  if (config.max_sessions_per_tower > 0 &&
      static_cast<int>(arrivals.size()) > config.max_sessions_per_tower) {
    if (capped != nullptr) {
      *capped = static_cast<int>(arrivals.size()) -
                config.max_sessions_per_tower;
    }
    arrivals.resize(static_cast<std::size_t>(config.max_sessions_per_tower));
  }
  return arrivals;
}

namespace {

TowerReport run_tower(const PopulationConfig& config, int tower_index,
                      const std::vector<services::ServiceSpec>& pool) {
  VODX_PROFILE_ZONE("pop.tower");
  const int profile_id =
      config.towers[static_cast<std::size_t>(tower_index)];
  core::SessionFactory::validate_profile(profile_id);

  net::Simulator sim(kTick);
  sim.set_core(config.sim_core);
  net::Link link(
      sim,
      trace::cellular_profile(
          profile_id,
          batch::derive_seed(config.seed, kTraceTag,
                             static_cast<std::uint64_t>(tower_index))),
      kRtt);

  int capped = 0;
  const std::vector<Arrival> arrivals = tower_arrivals(
      config, tower_index, static_cast<int>(pool.size()), &capped);

  core::SessionFactory factory;
  factory.session_duration = config.horizon;
  factory.content_duration = config.content_duration;
  factory.sim_core = config.sim_core;

  // One origin state per tower: every session the tower hosts shares this
  // edge cache and breaker (the tower's simulator is single-threaded, so
  // the sharing is race-free by construction). shared_content collapses the
  // tower onto one title so the cache sees real cross-session hits.
  const bool with_origin = config.origin.mode != origin::Mode::kNone;
  std::shared_ptr<origin::OriginState> origin_state;
  if (with_origin) origin_state = std::make_shared<origin::OriginState>();
  const std::uint64_t tower_content_seed = batch::derive_seed(
      config.seed, kContentTag, static_cast<std::uint64_t>(tower_index));
  // Sessions of one title share one immutable origin build. The cache is
  // the tower's own and the tower runs on one thread, so the build count
  // does not depend on --jobs.
  services::ContentCache content;

  struct Hosted {
    std::unique_ptr<core::HostedSession> session;
    Seconds departure = 0;  ///< min(arrival + watch, horizon)
  };
  std::vector<Hosted> hosted(arrivals.size());
  int live = 0;
  int peak = 0;
  Seconds peak_time = 0;

  // Per-session observers for the diagnosed prefix of the arrival order.
  // Masked to the evidence categories diag reads, so undiagnosed-category
  // emission sites stay on their null-observer fast path.
  const bool diagnose = config.diagnose;
  std::vector<std::unique_ptr<obs::Observer>> observers(
      diagnose ? arrivals.size() : 0);
  const auto diagnosed_ordinal = [&](std::size_t i) {
    return diagnose && (config.diag_session_budget <= 0 ||
                        static_cast<int>(i) < config.diag_session_budget);
  };

  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const Arrival& a = arrivals[i];
    sim.schedule(a.at, [&, i] {
      const Arrival& arr = arrivals[i];
      core::SessionConfig session_config = factory.config(
          pool[static_cast<std::size_t>(arr.service_index)],
          net::BandwidthTrace());  // the shared link already embodies it
      session_config.content_seed =
          config.shared_content ? tower_content_seed : arr.content_seed;
      session_config.content = content.get(services::ContentKey(
          session_config.spec, session_config.content_duration,
          session_config.content_seed));
      session_config.tick = kTick;
      session_config.rtt = kRtt;
      if (with_origin) {
        session_config.origin = config.origin;
        // Per-session jitter stream, keyed like every other pop draw.
        session_config.origin.seed = batch::derive_seed(
            config.seed, kOriginTag, static_cast<std::uint64_t>(tower_index),
            static_cast<std::uint64_t>(i));
        session_config.origin_state = origin_state;
      }
      if (!config.fault_plan.empty()) {
        faults::FaultPlan plan = config.fault_plan;
        plan.seed = batch::derive_seed(config.seed, kFaultTag,
                                       static_cast<std::uint64_t>(tower_index),
                                       static_cast<std::uint64_t>(i));
        session_config.fault_plan = std::move(plan);
      }
      if (diagnosed_ordinal(i)) {
        observers[i] = std::make_unique<obs::Observer>(std::size_t{1} << 15);
        observers[i]->trace.set_category_mask(
            obs::bit(obs::Category::kTcp) | obs::bit(obs::Category::kFault) |
            obs::bit(obs::Category::kLink) |
            obs::bit(obs::Category::kOrigin));
        observers[i]->trace.set_clock([&sim] { return sim.now(); });
        session_config.observer = observers[i].get();
      }
      Hosted& slot = hosted[i];
      slot.session =
          std::make_unique<core::HostedSession>(sim, link, session_config);
      slot.session->start();
      ++live;
      if (live > peak) {
        peak = live;
        peak_time = sim.now();
      }
      slot.departure = std::min(arr.at + arr.watch, config.horizon);
      if (slot.departure < config.horizon) {
        sim.schedule(std::max(0.0, slot.departure - sim.now()), [&, i] {
          hosted[i].session->stop();
          --live;
        });
      }
    });
  }

  // Telemetry: prefill the schedule-derived and trace-derived series, then
  // register the skip-aware sampler (after the Link, so a bin close reads
  // the bin's final link state).
  const bool with_timeline = config.collect_timeline || diagnose;
  obs::Timeline timeline;
  std::unique_ptr<TowerSampler> sampler;
  if (with_timeline) {
    timeline = make_tower_timeline(config.timeline_bin, config.horizon,
                                   diagnose);
    record_schedule(timeline, arrivals, config.horizon);
    record_capacity(timeline, link.trace(), config.horizon);
    sampler = std::make_unique<TowerSampler>(timeline, link, [&] {
      LiveSample sample;
      for (const Hosted& h : hosted) {
        if (h.session == nullptr) continue;
        const core::HostedSession::Sample s = h.session->sample();
        if (s.state == player::PlayerState::kEnded) continue;  // departed
        ++sample.concurrent;
        if (s.state == player::PlayerState::kRebuffering) ++sample.stalled;
        if (s.state == player::PlayerState::kResolving ||
            s.state == player::PlayerState::kStartup) {
          ++sample.in_startup;
        }
        if (s.rung >= 0) ++sample.rung[std::min(s.rung, kRungBuckets - 1)];
      }
      return sample;
    });
    sim.add_tick_client(sampler.get());
  }

  sim.run_until(config.horizon);
  if (sampler != nullptr) sampler->finalize(config.horizon);

  TowerReport report;
  report.profile_id = profile_id;
  report.capped_arrivals = capped;
  report.content_builds = content.builds();
  report.peak_concurrent = peak;
  report.time_of_peak = peak_time;

  std::vector<double> startups;
  std::vector<double> stalls;
  std::vector<double> rates;
  for (std::size_t i = 0; i < hosted.size(); ++i) {
    if (hosted[i].session == nullptr) continue;  // arrival beyond the run
    const Arrival& a = arrivals[i];
    const core::SessionResult result =
        hosted[i].session->finish_light(sim.now());

    SessionOutcome outcome;
    outcome.tower = tower_index;
    outcome.ordinal = static_cast<int>(report.outcomes.size());
    outcome.arrival = a.at;
    outcome.departure = hosted[i].departure;
    outcome.service =
        pool[static_cast<std::size_t>(a.service_index)].name;
    outcome.startup_delay = result.ground_truth.startup_delay;
    outcome.stall_time = result.ground_truth.total_stall;
    outcome.stall_count = result.ground_truth.stall_count;
    outcome.total_bytes = result.ground_truth.total_bytes;
    const Seconds active =
        std::max(kTick, outcome.departure - outcome.arrival);
    outcome.mbps =
        static_cast<double>(outcome.total_bytes) * 8.0 / active / 1e6;
    outcome.final_state = player::to_string(result.final_state);

    if (outcome.startup_delay >= 0) startups.push_back(outcome.startup_delay);
    stalls.push_back(outcome.stall_time);
    rates.push_back(outcome.mbps);
    report.outcomes.push_back(std::move(outcome));
  }

  if (diagnose) {
    const std::vector<obs::Event> capacity_events =
        fair_share_capacity_events(timeline);
    for (std::size_t i = 0; i < hosted.size(); ++i) {
      if (hosted[i].session == nullptr) continue;
      if (observers[i] == nullptr) {
        ++report.diag.sessions_skipped;
        continue;
      }
      // Diagnosis reads the full finish() analysis (finish_light leaves
      // result.traffic empty, blinding the deficit/ABR evidence); outcomes
      // above still fold from finish_light, so they are byte-identical
      // whether diagnosis is on or off.
      const core::SessionResult full = hosted[i].session->finish(sim.now());
      const diag::Diagnosis diagnosis =
          diagnose_session(full, *observers[i], capacity_events);
      report.diag.fold(diagnosis);
      fold_blame_bins(timeline, diagnosis);
    }
  }
  report.timeline = std::move(timeline);
  if (with_origin) report.origin_totals = origin_state->totals;

  // Sessions must be destroyed before sim + link leave scope; explicit for
  // clarity (the vector would go out of scope in the right order anyway).
  hosted.clear();

  report.sessions = static_cast<int>(report.outcomes.size());
  report.startup = quantiles(startups);
  report.stall = quantiles(stalls);
  report.jain = jain_index(rates);
  report.mean_mbps = mean(rates);
  return report;
}

}  // namespace

PopulationReport run_population(const PopulationConfig& config) {
  // Resolve the service pool up front: unknown names throw here, once, and
  // the catalog's magic static warms before any worker spawns (same
  // rationale as batch::run_sweep).
  std::vector<services::ServiceSpec> pool;
  if (config.services.empty()) {
    pool = services::catalog();
  } else {
    for (const std::string& name : config.services) {
      pool.push_back(services::service(name));
    }
  }
  for (int id : config.towers) core::SessionFactory::validate_profile(id);
  for (int id : config.towers) trace::profile_mean(id);

  PopulationReport report;
  report.towers = batch::parallel_map<TowerReport>(
      config.towers.size(), config.jobs,
      [&](std::size_t index) {
        return run_tower(config, static_cast<int>(index), pool);
      });

  std::vector<double> startups;
  std::vector<double> stalls;
  struct PerService {
    std::vector<double> startups, stalls, rates;
  };
  std::vector<PerService> per_service(pool.size());
  report.diagnosed = config.diagnose;
  report.origin_enabled = config.origin.mode != origin::Mode::kNone;
  for (const TowerReport& tower : report.towers) {
    report.total_sessions += tower.sessions;
    report.content_builds += tower.content_builds;
    report.timeline.merge_from(tower.timeline);
    report.diag.merge_from(tower.diag);
    report.origin_totals.merge_from(tower.origin_totals);
    for (const SessionOutcome& outcome : tower.outcomes) {
      if (outcome.startup_delay >= 0) {
        startups.push_back(outcome.startup_delay);
      } else {
        ++report.never_started;
      }
      stalls.push_back(outcome.stall_time);
      for (std::size_t s = 0; s < pool.size(); ++s) {
        if (pool[s].name != outcome.service) continue;
        if (outcome.startup_delay >= 0) {
          per_service[s].startups.push_back(outcome.startup_delay);
        }
        per_service[s].stalls.push_back(outcome.stall_time);
        per_service[s].rates.push_back(outcome.mbps);
        break;
      }
    }
  }
  report.startup = quantiles(startups);
  report.stall = quantiles(stalls);
  for (std::size_t s = 0; s < pool.size(); ++s) {
    ServiceRollup rollup;
    rollup.service = pool[s].name;
    rollup.sessions = static_cast<int>(per_service[s].stalls.size());
    rollup.startup = quantiles(per_service[s].startups);
    rollup.stall = quantiles(per_service[s].stalls);
    rollup.mean_mbps = mean(per_service[s].rates);
    report.by_service.push_back(std::move(rollup));
  }
  return report;
}

std::string population_text(const PopulationReport& report) {
  std::string out = format(
      "population: %zu tower(s), %d session(s), %d never started playback\n",
      report.towers.size(), report.total_sessions, report.never_started);
  out +=
      "tower profile sessions capped  peak   peak_t  start_p50  start_p95  "
      "start_p99  stall_p50  stall_p95  stall_p99   jain  mean_mbps\n";
  for (std::size_t i = 0; i < report.towers.size(); ++i) {
    const TowerReport& t = report.towers[i];
    out += format(
        "%5zu %7d %8d %6d %5d %8.1f %10.2f %10.2f %10.2f %10.2f %10.2f "
        "%10.2f %6.3f %10.3f\n",
        i, t.profile_id, t.sessions, t.capped_arrivals, t.peak_concurrent,
        t.time_of_peak, t.startup.p50, t.startup.p95, t.startup.p99,
        t.stall.p50, t.stall.p95, t.stall.p99, t.jain, t.mean_mbps);
  }
  for (std::size_t i = 0; i < report.towers.size(); ++i) {
    const TowerReport& t = report.towers[i];
    if (t.capped_arrivals == 0) continue;
    out += format(
        "warning: tower %zu dropped %d arrival(s) at the "
        "max-sessions-per-tower cap; its distributions are censored\n",
        i, t.capped_arrivals);
  }
  out += "service  sessions  start_p50  start_p95  start_p99  stall_p50  "
         "stall_p95  stall_p99  mean_mbps\n";
  for (const ServiceRollup& s : report.by_service) {
    if (s.sessions == 0) continue;
    out += format(
        "%-7s %9d %10.2f %10.2f %10.2f %10.2f %10.2f %10.2f %10.3f\n",
        s.service.c_str(), s.sessions, s.startup.p50, s.startup.p95,
        s.startup.p99, s.stall.p50, s.stall.p95, s.stall.p99, s.mean_mbps);
  }
  out += format(
      "overall: startup p50/p95/p99 = %.2f/%.2f/%.2f s, "
      "stall p50/p95/p99 = %.2f/%.2f/%.2f s\n",
      report.startup.p50, report.startup.p95, report.startup.p99,
      report.stall.p50, report.stall.p95, report.stall.p99);
  if (report.diagnosed) {
    const TowerDiag& d = report.diag;
    out += format(
        "diag: %d session(s) diagnosed, %d skipped (budget); "
        "stall %.2f s, startup %.2f s, stall attribution %.1f%%\n",
        d.cells, d.sessions_skipped, d.stall_s, d.startup_s,
        d.stall_attributed_fraction() * 100.0);
    out += "cause                 blamed_s    stall_s  stall_share\n";
    for (int c = 0; c < diag::kCauseCount; ++c) {
      const double share =
          d.stall_s > 0 ? d.stall_blamed_s[c] / d.stall_s : 0.0;
      out += format("%-22s %8.2f %10.2f %12.3f\n",
                    diag::to_string(static_cast<diag::Cause>(c)),
                    d.blamed_s[c], d.stall_blamed_s[c], share);
    }
    if (d.trace_dropped > 0) {
      out += format(
          "warning: %llu trace event(s) dropped across diagnosed sessions; "
          "evidence may be incomplete\n",
          static_cast<unsigned long long>(d.trace_dropped));
    }
  }
  if (report.origin_enabled) {
    const origin::OriginState::Totals& o = report.origin_totals;
    const std::int64_t lookups = o.hits + o.misses;
    const double hit_rate =
        lookups > 0 ? static_cast<double>(o.hits) / lookups : 0.0;
    out += format(
        "origin: %lld hit(s) / %lld miss(es) (%.1f%% hit rate), "
        "%lld expired, %lld coalesced, %lld duplicate fill(s), "
        "%lld flush(es)\n",
        static_cast<long long>(o.hits), static_cast<long long>(o.misses),
        hit_rate * 100.0, static_cast<long long>(o.expired),
        static_cast<long long>(o.coalesced),
        static_cast<long long>(o.dup_fills),
        static_cast<long long>(o.flushes));
    out += format(
        "origin failover: %lld retry(ies), %lld breaker trip(s), "
        "%lld probe(s), %lld served by secondary, %lld error(s)\n",
        static_cast<long long>(o.retries), static_cast<long long>(o.trips),
        static_cast<long long>(o.probes),
        static_cast<long long>(o.secondary),
        static_cast<long long>(o.errors));
    if (o.consistency_failures > 0) {
      out += format(
          "warning: %lld cache-consistency failure(s) — cached bytes "
          "diverged from the origin copy\n",
          static_cast<long long>(o.consistency_failures));
    }
  }
  return out;
}

namespace {

Table session_table(const PopulationReport& report) {
  using Column = Table::Column;
  Table table({Column::number("tower"), Column::number("profile"),
               Column::number("ordinal"), "service",
               Column::number("arrival_s"), Column::number("departure_s"),
               Column::number("startup_delay_s"),
               Column::number("stall_time_s"), Column::number("stall_count"),
               Column::number("total_bytes"), Column::number("mbps"),
               "final_state"});
  for (const TowerReport& tower : report.towers) {
    for (const SessionOutcome& s : tower.outcomes) {
      table.add_row({std::to_string(s.tower), std::to_string(tower.profile_id),
                     std::to_string(s.ordinal), s.service,
                     format("%.3f", s.arrival), format("%.3f", s.departure),
                     format("%.3f", s.startup_delay),
                     format("%.3f", s.stall_time),
                     std::to_string(s.stall_count),
                     std::to_string(static_cast<long long>(s.total_bytes)),
                     format("%.4f", s.mbps), s.final_state});
    }
  }
  return table;
}

/// One row per tower. The JSONL tower records are the summary prefix of
/// the CSV's columns, tagged "type":"tower"; the CSV adds the QoE
/// quantiles and, on diagnosed runs, the attribution columns.
Table tower_table(const PopulationReport& report, bool summary) {
  const bool diagnosed = !summary && report.diagnosed;
  std::vector<std::string> names = {"tower",           "profile",
                                    "sessions",        "capped_arrivals",
                                    "peak_concurrent", "time_of_peak_s"};
  if (!summary) {
    names.insert(names.end(), {"startup_p50", "startup_p95", "startup_p99",
                               "stall_p50", "stall_p95", "stall_p99", "jain",
                               "mean_mbps"});
  }
  if (diagnosed) {
    names.insert(names.end(), {"sessions_diagnosed", "sessions_skipped",
                               "stall_attributed_frac"});
    for (int c = 0; c < diag::kCauseCount; ++c) {
      names.push_back(
          format("stall_s_%s", diag::to_string(static_cast<diag::Cause>(c))));
    }
  }
  std::vector<Table::Column> columns;
  if (summary) columns.push_back("type");
  for (std::string& name : names) {
    columns.push_back(Table::Column::number(std::move(name)));
  }
  Table table(std::move(columns));
  for (std::size_t i = 0; i < report.towers.size(); ++i) {
    const TowerReport& t = report.towers[i];
    std::vector<std::string> row;
    if (summary) row.push_back("tower");
    row.insert(row.end(),
               {std::to_string(i), std::to_string(t.profile_id),
                std::to_string(t.sessions), std::to_string(t.capped_arrivals),
                std::to_string(t.peak_concurrent),
                format("%.3f", t.time_of_peak)});
    if (!summary) {
      for (double v : {t.startup.p50, t.startup.p95, t.startup.p99,
                       t.stall.p50, t.stall.p95, t.stall.p99}) {
        row.push_back(format("%.3f", v));
      }
      row.push_back(format("%.4f", t.jain));
      row.push_back(format("%.4f", t.mean_mbps));
    }
    if (diagnosed) {
      row.push_back(std::to_string(t.diag.cells));
      row.push_back(std::to_string(t.diag.sessions_skipped));
      row.push_back(format("%.4f", t.diag.stall_attributed_fraction()));
      for (int c = 0; c < diag::kCauseCount; ++c) {
        row.push_back(format("%.3f", t.diag.stall_blamed_s[c]));
      }
    }
    table.add_row(std::move(row));
  }
  return table;
}

}  // namespace

std::string population_jsonl(const PopulationReport& report) {
  return tower_table(report, /*summary=*/true).jsonl() +
         session_table(report).jsonl();
}

std::string population_csv(const PopulationReport& report) {
  return session_table(report).csv();
}

std::string population_tower_csv(const PopulationReport& report) {
  return tower_table(report, /*summary=*/false).csv();
}

}  // namespace vodx::pop
