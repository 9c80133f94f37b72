#include "core/report.h"

#include "common/strings.h"
#include "core/qoe.h"

namespace vodx::core {

std::vector<Table::Column> qoe_columns() {
  std::vector<Table::Column> columns;
  for (const char* name :
       {"startup_delay_s", "stall_count", "stall_time_s",
        "avg_declared_bitrate_bps", "low_quality_fraction", "switches",
        "nonconsecutive_switches", "media_bytes", "total_bytes",
        "wasted_bytes", "qoe_score"}) {
    columns.push_back(Table::Column::number(name));
  }
  return columns;
}

std::vector<std::string> qoe_cells(const SessionResult& result) {
  const QoeReport& q = result.qoe;
  return {format("%.2f", q.startup_delay),
          std::to_string(q.stall_count),
          format("%.2f", q.total_stall),
          format("%.0f", q.average_declared_bitrate),
          format("%.4f", q.low_quality_fraction),
          std::to_string(q.switch_count),
          std::to_string(q.nonconsecutive_switch_count),
          std::to_string(static_cast<long long>(q.media_bytes)),
          std::to_string(static_cast<long long>(q.total_bytes)),
          std::to_string(static_cast<long long>(q.wasted_bytes)),
          format("%.3f", qoe_score(q, result.session_end))};
}

std::string qoe_csv(const std::string& label, const SessionResult& result) {
  std::vector<Table::Column> columns = qoe_columns();
  columns.insert(columns.begin(), "label");
  std::vector<std::string> row = qoe_cells(result);
  row.insert(row.begin(), label);
  Table table(std::move(columns));
  table.add_row(std::move(row));
  return table.csv();
}

std::string buffer_csv(const SessionResult& result) {
  std::string out = "wall_s,video_buffer_s,audio_buffer_s\n";
  for (const BufferSample& s : result.buffer) {
    out += format("%.0f,%.2f,%.2f\n", s.wall, s.video_buffer, s.audio_buffer);
  }
  return out;
}

}  // namespace vodx::core
