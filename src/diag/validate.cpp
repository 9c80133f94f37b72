#include "diag/validate.h"

#include <algorithm>

#include "batch/sweep.h"
#include "common/strings.h"
#include "common/table.h"
#include "faults/fault_plan.h"
#include "services/service_catalog.h"

namespace vodx::diag {

namespace {

/// Profile 2 leaves little bandwidth margin, so injected faults actually
/// turn into stalls that overlap their windows — a fault-free profile would
/// make the harness vacuously pass.
constexpr int kProfileId = 2;
/// Slack appended to truth windows when scoring precision, covering
/// bounded carry-forward past the influence window.
constexpr Seconds kCarryGrace = 16.0;

struct Span {
  Seconds start = 0;
  Seconds end = 0;
};

/// Sort + coalesce overlapping/adjacent spans so overlap arithmetic never
/// double-counts time covered by several fault windows.
std::vector<Span> merge_spans(std::vector<Span> spans) {
  std::sort(spans.begin(), spans.end(),
            [](const Span& a, const Span& b) { return a.start < b.start; });
  std::vector<Span> out;
  for (const Span& span : spans) {
    if (span.end <= span.start) continue;
    if (!out.empty() && span.start <= out.back().end) {
      out.back().end = std::max(out.back().end, span.end);
      continue;
    }
    out.push_back(span);
  }
  return out;
}

Seconds overlap(const std::vector<Span>& merged, Seconds start, Seconds end) {
  Seconds total = 0;
  for (const Span& span : merged) {
    const Seconds lo = std::max(span.start, start);
    const Seconds hi = std::min(span.end, end);
    if (hi > lo) total += hi - lo;
  }
  return total;
}

/// Ground truth: every fired fault instant and every plan blackout window,
/// extended by the influence window the attributor itself uses.
std::vector<Span> truth_windows(const std::vector<obs::Event>& events,
                                const std::optional<faults::FaultPlan>& plan) {
  std::vector<Span> spans;
  for (const obs::Event& event : events) {
    if (event.category != obs::Category::kFault) continue;
    if (event.kind != obs::EventKind::kInstant) continue;
    spans.push_back({event.sim_time, event.sim_time + kFaultInfluence});
  }
  if (plan.has_value()) {
    for (const faults::BlackoutFault& b : plan->blackouts) {
      spans.push_back({b.start, b.start + b.duration + kFaultInfluence});
    }
  }
  return merge_spans(spans);
}

std::vector<Span> widen(const std::vector<Span>& merged, Seconds grace) {
  std::vector<Span> spans;
  spans.reserve(merged.size());
  for (const Span& span : merged) {
    spans.push_back({span.start, span.end + grace});
  }
  return merge_spans(spans);
}

/// One addition to a ScenarioScore's sums. A cell's parts are recorded on
/// its worker in scoring order and replayed in grid order afterwards, so
/// every sum adds the same terms in the same order at any job count.
struct ScorePart {
  Seconds truth_s = 0;
  Seconds truth_hit_s = 0;
  Seconds blamed_s = 0;
  Seconds blamed_hit_s = 0;
};

/// Scores one successful cell: one part per problem interval (its overlap
/// with the truth windows), then one per fault.injected blame span.
std::vector<ScorePart> score_cell(const batch::CellResult& cell,
                                  const obs::Observer& observer) {
  const std::optional<faults::FaultPlan> plan = batch::fault_plan_for(cell);
  const std::vector<obs::Event> events = observer.trace.snapshot();
  const Diagnosis diagnosis = diagnose(cell.result, events, plan);
  const std::vector<Span> truth = truth_windows(events, plan);
  const std::vector<Span> lenient = widen(truth, kCarryGrace);
  std::vector<ScorePart> parts;
  for (const IntervalDiagnosis& interval : diagnosis.intervals) {
    parts.push_back(
        {.truth_s = overlap(truth, interval.start, interval.end)});
    for (const BlameSpan& span : interval.spans) {
      if (span.cause != Cause::kFaultInjected) continue;
      parts.push_back(
          {.truth_hit_s = overlap(truth, span.start, span.end),
           .blamed_s = span.duration(),
           .blamed_hit_s = overlap(lenient, span.start, span.end)});
    }
  }
  return parts;
}

}  // namespace

double ValidationReport::min_precision() const {
  double best = 1;
  for (const ScenarioScore& score : scores) {
    best = std::min(best, score.precision());
  }
  return best;
}

double ValidationReport::min_recall() const {
  double best = 1;
  for (const ScenarioScore& score : scores) {
    best = std::min(best, score.recall());
  }
  return best;
}

bool ValidationReport::pass(double threshold) const {
  return min_precision() >= threshold && min_recall() >= threshold;
}

ValidationReport validate(const ValidateOptions& options) {
  std::vector<services::ServiceSpec> specs;
  for (const std::string& name : options.services) {
    specs.push_back(services::service(name));
  }

  ValidationReport report;
  for (const faults::Scenario& scenario : faults::scenario_catalog()) {
    ScenarioScore score;
    score.scenario = scenario.name;

    batch::SweepConfig config;
    config.services = specs;
    config.profiles = {kProfileId};
    config.fault_scenarios = {scenario.name};
    config.session_duration = options.duration;
    config.content_duration = options.duration;
    // Scored on the workers into per-cell slots (nullopt: the cell failed),
    // summed in grid order below.
    std::vector<std::optional<std::vector<ScorePart>>> cells(
        batch::grid_size(config));
    config.observe = [&cells](std::size_t index,
                              const batch::CellResult& cell,
                              const obs::Observer& observer) {
      if (cell.ok) cells[index] = score_cell(cell, observer);
    };
    batch::run_sweep(config);
    for (const auto& parts : cells) {
      if (!parts) continue;
      ++score.cells;
      for (const ScorePart& part : *parts) {
        score.truth_s += part.truth_s;
        score.truth_hit_s += part.truth_hit_s;
        score.blamed_s += part.blamed_s;
        score.blamed_hit_s += part.blamed_hit_s;
      }
    }
    report.scores.push_back(std::move(score));
  }
  return report;
}

std::string validation_text(const ValidationReport& report,
                            double threshold) {
  std::string out = "fault-attribution validation (per catalog scenario):\n";
  Table table({"scenario", "cells", "truth_s", "fault_blamed_s", "precision",
               "recall"});
  for (const ScenarioScore& score : report.scores) {
    table.add_row({score.scenario, std::to_string(score.cells),
                   format("%.2f", score.truth_s),
                   format("%.2f", score.blamed_s),
                   format("%.3f", score.precision()),
                   format("%.3f", score.recall())});
  }
  out += table.render();
  out += format("\nminimum precision %.3f, minimum recall %.3f vs "
                "threshold %.2f: %s\n",
                report.min_precision(), report.min_recall(), threshold,
                report.pass(threshold) ? "PASS" : "FAIL");
  return out;
}

}  // namespace vodx::diag
