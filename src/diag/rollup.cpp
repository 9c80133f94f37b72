#include "diag/rollup.h"

#include "common/strings.h"
#include "common/table.h"
#include "faults/fault_plan.h"

namespace vodx::diag {

namespace {

Table diag_table(const std::vector<DiagRollup>& rollups) {
  std::vector<Table::Column> header = {"key",     "cells",      "problem_s",
                                      "stall_s", "attributed", "conf"};
  for (Cause cause : all_causes()) header.push_back(short_label(cause));
  Table table(header);
  for (const DiagRollup& rollup : rollups) {
    std::vector<std::string> row = {
        rollup.key,
        std::to_string(rollup.cells),
        format("%.2f", rollup.problem_s),
        format("%.2f", rollup.stall_s),
        format("%.1f%%", 100 * rollup.attributed_fraction()),
        rollup.mean_confidence() > 0
            ? format("%.2f", rollup.mean_confidence())
            : "-"};
    for (Cause cause : all_causes()) {
      const double s = rollup.blamed_s[static_cast<int>(cause)];
      row.push_back(s > 0 ? format("%.2f", s) : "-");
    }
    table.add_row(std::move(row));
  }
  return table;
}

/// {"<cause>":<blamed seconds>,...} in Cause order.
std::string causes_json(const DiagRollup& rollup) {
  std::string out = "{";
  for (Cause cause : all_causes()) {
    if (out.size() > 1) out += ",";
    out += format("\"%s\":%.3f", to_string(cause),
                  rollup.blamed_s[static_cast<int>(cause)]);
  }
  return out + "}";
}

}  // namespace

void DiagRollup::fold(const Diagnosis& diagnosis) {
  ++cells;
  problem_s += diagnosis.problem_s();
  stall_s += diagnosis.stall_s();
  startup_s += diagnosis.problem_s() - diagnosis.stall_s();
  for (int c = 0; c < kCauseCount; ++c) {
    blamed_s[c] += diagnosis.blamed_s[c];
    stall_blamed_s[c] += diagnosis.stall_blamed_s[c];
    conf_weight[c] += diagnosis.confidence[c] * diagnosis.blamed_s[c];
  }
  trace_dropped += diagnosis.trace_dropped;
}

void DiagRollup::merge_from(const DiagRollup& other) {
  cells += other.cells;
  problem_s += other.problem_s;
  stall_s += other.stall_s;
  startup_s += other.startup_s;
  for (int c = 0; c < kCauseCount; ++c) {
    blamed_s[c] += other.blamed_s[c];
    stall_blamed_s[c] += other.stall_blamed_s[c];
    conf_weight[c] += other.conf_weight[c];
  }
  trace_dropped += other.trace_dropped;
}

double DiagRollup::attributed_fraction() const {
  if (problem_s <= 0) return 1;
  return 1.0 - blamed_s[static_cast<int>(Cause::kUnknown)] / problem_s;
}

double DiagRollup::stall_attributed_fraction() const {
  if (stall_s <= 0) return 1;
  return 1.0 - stall_blamed_s[static_cast<int>(Cause::kUnknown)] / stall_s;
}

double DiagRollup::mean_confidence() const {
  double weight = 0;
  double time = 0;
  for (Cause cause : all_causes()) {
    if (cause == Cause::kUnknown) continue;
    const int c = static_cast<int>(cause);
    weight += conf_weight[c];
    time += blamed_s[c];
  }
  return time > 0 ? weight / time : 0;
}

void fold_cell(SweepDiagnosis& out, const batch::CellResult& cell,
               const obs::Observer& observer) {
  ++out.total_cells;
  if (!cell.ok) {
    ++out.failed;
    return;
  }
  const Diagnosis diagnosis =
      diagnose(cell.result, observer, batch::fault_plan_for(cell));
  out.fold_cell(cell, [&diagnosis](DiagRollup& rollup) {
    rollup.fold(diagnosis);
  });
}

SweepDiagnosis diagnose_sweep(batch::SweepConfig config) {
  SweepDiagnosis out;

  // The observe callback fires post-join in grid order on one thread, so
  // the fold sequence — and therefore every rendered table — is independent
  // of the job count.
  config.observe = [&out](const batch::CellResult& cell,
                          const obs::Observer& observer) {
    fold_cell(out, cell, observer);
  };

  batch::run_sweep(config);
  return out;
}

std::string diag_text(const SweepDiagnosis& diagnosis) {
  const DiagRollup& o = diagnosis.overall;
  std::string out = format(
      "sweep diagnosis: %d cells (%d failed), %.2fs problem time "
      "(%.2fs stalls), %.1f%% attributed (%.1f%% of stall time)\n",
      diagnosis.total_cells, diagnosis.failed, o.problem_s, o.stall_s,
      100 * o.attributed_fraction(), 100 * o.stall_attributed_fraction());
  if (o.trace_dropped > 0) {
    out += format(
        "WARNING: trace rings dropped %llu events — attribution is partial\n",
        static_cast<unsigned long long>(o.trace_dropped));
  }
  out += "\n== overall root causes ==\n";
  out += diag_table({o}).render();
  for (const auto& dim : diagnosis.dimensions()) {
    out += format("\n== root causes by %s ==\n", dim.name);
    out += diag_table(*dim.buckets).render();
  }
  return out;
}

std::string diag_jsonl(const SweepDiagnosis& diagnosis) {
  using Column = Table::Column;
  const DiagRollup& o = diagnosis.overall;
  Table summary({"scope", Column::number("cells"),
                 Column::number("failed"), Column::number("problem_s"),
                 Column::number("stall_s"), Column::number("attributed"),
                 Column::number("stall_attributed")});
  summary.add_row({"diag", std::to_string(diagnosis.total_cells),
                   std::to_string(diagnosis.failed),
                   format("%.3f", o.problem_s), format("%.3f", o.stall_s),
                   format("%.4f", o.attributed_fraction()),
                   format("%.4f", o.stall_attributed_fraction())});

  Table rollups({"scope", "key", Column::number("cells"),
                 Column::number("problem_s"), Column::number("stall_s"),
                 Column::number("attributed"), Column::json("causes")});
  auto add = [&rollups](const std::string& scope, const DiagRollup& rollup) {
    rollups.add_row({scope, rollup.key, std::to_string(rollup.cells),
                     format("%.3f", rollup.problem_s),
                     format("%.3f", rollup.stall_s),
                     format("%.4f", rollup.attributed_fraction()),
                     causes_json(rollup)});
  };
  add("diag.overall", o);
  for (const auto& dim : diagnosis.dimensions()) {
    for (const DiagRollup& rollup : *dim.buckets) {
      add(std::string("diag.") + dim.name, rollup);
    }
  }
  return summary.jsonl() + rollups.jsonl();
}

std::string diag_html_section(const SweepDiagnosis& diagnosis) {
  const DiagRollup& o = diagnosis.overall;
  std::string out = "<h2>root-cause attribution</h2>\n";
  out += format(
      "<p>%d cells (%d failed): %.2fs problem time (%.2fs stalls), "
      "%.1f%% attributed to a known cause.</p>\n",
      diagnosis.total_cells, diagnosis.failed, o.problem_s, o.stall_s,
      100 * o.attributed_fraction());
  if (o.trace_dropped > 0) {
    out += format(
        "<p>WARNING: trace rings dropped %llu events — attribution is "
        "partial.</p>\n",
        static_cast<unsigned long long>(o.trace_dropped));
  }
  out += diag_table({o}).html();
  for (const auto& dim : diagnosis.dimensions()) {
    out += format("<h3>root causes by %s</h3>\n", dim.name);
    out += diag_table(*dim.buckets).html();
  }
  out += "<h3>cause taxonomy</h3>\n<ul>\n";
  for (Cause cause : all_causes()) {
    out += format("<li><b>%s</b> (%s): %s</li>\n",
                  html_escape(to_string(cause)).c_str(),
                  html_escape(short_label(cause)).c_str(),
                  html_escape(describe(cause)).c_str());
  }
  out += "</ul>\n";
  return out;
}

std::string diag_html(const SweepDiagnosis& diagnosis) {
  return html_page("vodx root-cause report", kReportCss,
                   "<h1>vodx root-cause report</h1>\n" +
                       diag_html_section(diagnosis));
}

}  // namespace vodx::diag
