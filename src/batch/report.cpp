#include "batch/report.h"

#include "common/strings.h"
#include "common/table.h"
#include "obs/export.h"

namespace vodx::batch {

namespace {

// --- Headline columns ------------------------------------------------------
//
// Rollup snapshots are generic bags of metrics; the per-dimension tables
// pull out the headline subset every instrumented session registers. A
// metric a dimension never saw renders as "-" (e.g. faults.injected on a
// fault-free sweep).

std::string counter_cell(const obs::MetricsSnapshot& snapshot,
                         const char* name) {
  const obs::MetricsSnapshot::Entry* entry = snapshot.find(name);
  if (entry == nullptr) return "-";
  return format("%lld", static_cast<long long>(entry->count));
}

std::string counter_mb_cell(const obs::MetricsSnapshot& snapshot,
                            const char* name) {
  const obs::MetricsSnapshot::Entry* entry = snapshot.find(name);
  if (entry == nullptr) return "-";
  return format("%.1f", static_cast<double>(entry->count) / 1e6);
}

std::string histogram_p50_cell(const obs::MetricsSnapshot& snapshot,
                               const char* name) {
  const obs::MetricsSnapshot::Entry* entry = snapshot.find(name);
  if (entry == nullptr || entry->count == 0) return "-";
  return format("%.2f", entry->p50);
}

Table headline_table(const std::vector<Rollup>& rollups) {
  Table table({"key", "cells", "stalls", "switches", "MB", "wasted_MB",
               "fetch_fail", "faults", "goodput_p50"});
  for (const Rollup& rollup : rollups) {
    const obs::MetricsSnapshot& m = rollup.metrics;
    table.add_row({rollup.key, std::to_string(rollup.cells),
                   counter_cell(m, "session.stalls"),
                   counter_cell(m, "session.switches"),
                   counter_mb_cell(m, "session.total_bytes"),
                   counter_mb_cell(m, "session.wasted_bytes"),
                   counter_cell(m, "player.fetch_failures"),
                   counter_cell(m, "faults.injected"),
                   histogram_p50_cell(m, "tcp.goodput_mbps")});
  }
  return table;
}

}  // namespace

SweepMetrics aggregate_metrics(const SweepResult& result) {
  SweepMetrics out;
  out.total_cells = static_cast<int>(result.cells.size());
  out.failed = result.failed;
  out.quarantined = result.quarantined;
  for (const CellResult& cell : result.cells) {
    if (cell.quarantined) {
      out.quarantined_cells.push_back(
          format("%s: %s", cell.coordinates().c_str(), cell.error.c_str()));
    }
    if (cell.trace_dropped > 0) {
      out.trace_dropped += cell.trace_dropped;
      out.dropped_cells.push_back(format(
          "%s: trace ring dropped %llu of %llu events",
          cell.coordinates().c_str(),
          static_cast<unsigned long long>(cell.trace_dropped),
          static_cast<unsigned long long>(cell.trace_emitted)));
    }
    if (!cell.has_metrics) continue;
    out.fold_cell(cell, [&cell](Rollup& rollup) {
      rollup.metrics.merge_from(cell.metrics);
      ++rollup.cells;
    });
  }
  return out;
}

std::string report_text(const SweepMetrics& metrics) {
  // The quarantine clause only appears when non-zero, so quarantine-free
  // reports stay byte-identical to the historical format (golden-pinned).
  std::string failure_clause = format("%d failed", metrics.failed);
  if (metrics.quarantined > 0) {
    failure_clause += format(", %d quarantined", metrics.quarantined);
  }
  std::string out = format(
      "sweep metrics: %d cells (%s), %d merged\n\n== overall ==\n",
      metrics.total_cells, failure_clause.c_str(), metrics.overall.cells);
  out += obs::metrics_table(metrics.overall.metrics).render();
  if (!metrics.quarantined_cells.empty()) {
    out += "\n== quarantined ==\n";
    for (const std::string& line : metrics.quarantined_cells) {
      out += format("QUARANTINED %s\n", line.c_str());
    }
  }
  // Like the quarantine section: only rendered when something was actually
  // dropped, so clean sweeps keep the golden-pinned byte layout.
  if (!metrics.dropped_cells.empty()) {
    out += "\n== warnings ==\n";
    for (const std::string& line : metrics.dropped_cells) {
      out += format("WARNING %s — trace-derived analyses are partial\n",
                    line.c_str());
    }
  }
  for (const auto& dim : metrics.dimensions()) {
    out += format("\n== by %s ==\n", dim.name);
    out += headline_table(*dim.buckets).render();
  }
  return out;
}

std::string report_jsonl(const SweepResult& result,
                         const SweepMetrics& metrics) {
  using Column = Table::Column;
  Table summary({"scope", Column::number("cells"), Column::number("failed"),
                 Column::number("quarantined"), Column::number("merged")});
  summary.add_row({"sweep", std::to_string(metrics.total_cells),
                   std::to_string(metrics.failed),
                   std::to_string(metrics.quarantined),
                   std::to_string(metrics.overall.cells)});

  // Optional members (quarantined, trace_dropped, snapshot) stay empty, and
  // so absent, on cells they do not apply to.
  Table cells({"scope", "service", Column::number("profile"),
               Column::number("seed"), "fault", Column::number("ok"),
               Column::number("quarantined"), Column::number("trace_dropped"),
               Column::json("snapshot")});
  for (const CellResult& cell : result.cells) {
    cells.add_row(
        {"cell", cell.service, std::to_string(cell.profile_id),
         std::to_string(cell.seed), cell.fault, cell.ok ? "true" : "false",
         cell.quarantined ? "true" : "",
         cell.trace_dropped > 0 ? std::to_string(cell.trace_dropped) : "",
         cell.has_metrics ? obs::metrics_json(cell.metrics) : ""});
  }

  Table rollups({"scope", "key", Column::number("cells"),
                 Column::json("snapshot")});
  auto add = [&rollups](const char* scope, const Rollup& rollup) {
    rollups.add_row({scope, rollup.key, std::to_string(rollup.cells),
                     obs::metrics_json(rollup.metrics)});
  };
  for (const auto& dim : metrics.dimensions()) {
    for (const Rollup& rollup : *dim.buckets) add(dim.name, rollup);
  }
  add("overall", metrics.overall);
  return summary.jsonl() + cells.jsonl() + rollups.jsonl();
}

std::string report_html(const SweepMetrics& metrics,
                        const std::string& appendix) {
  std::string body = format(
      "<h1>vodx sweep report</h1>\n"
      "<p>%d cells (%d failed, %d quarantined), %d merged into "
      "the rollups below.</p>\n",
      metrics.total_cells, metrics.failed, metrics.quarantined,
      metrics.overall.cells);
  if (!metrics.quarantined_cells.empty()) {
    body += "<h2>quarantined</h2>\n<ul>\n";
    for (const std::string& line : metrics.quarantined_cells) {
      body += "<li>QUARANTINED " + html_escape(line) + "</li>\n";
    }
    body += "</ul>\n";
  }
  if (!metrics.dropped_cells.empty()) {
    body += "<h2>warnings</h2>\n<ul>\n";
    for (const std::string& line : metrics.dropped_cells) {
      body += "<li>WARNING " + html_escape(line) +
              " — trace-derived analyses are partial</li>\n";
    }
    body += "</ul>\n";
  }
  body += "<h2>overall</h2>\n";
  body += obs::metrics_table(metrics.overall.metrics).html();
  for (const auto& dim : metrics.dimensions()) {
    body += format("<h2>by %s</h2>\n", dim.name);
    body += headline_table(*dim.buckets).html();
  }
  return html_page("vodx sweep report", kReportCss, body + appendix);
}

}  // namespace vodx::batch
