// Machine-readable exports of session results, for spreadsheets/plotters.
#pragma once

#include <string>
#include <vector>

#include "common/table.h"
#include "core/session.h"

namespace vodx::core {

/// The QoE column set every per-session export shares (the sweep CSV/JSONL
/// and qoe_csv): startup_delay_s ... qoe_score.
std::vector<Table::Column> qoe_columns();

/// One session's cells for qoe_columns(), in the same order.
std::vector<std::string> qoe_cells(const SessionResult& result);

/// One session's QoE report as CSV: the header "label," + qoe_columns(),
/// then its one row.
std::string qoe_csv(const std::string& label, const SessionResult& result);

/// Buffer-occupancy timeline as CSV (wall,video_buffer,audio_buffer).
std::string buffer_csv(const SessionResult& result);

}  // namespace vodx::core
