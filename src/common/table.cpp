#include "common/table.h"

#include <algorithm>
#include <cstdio>

#include "common/error.h"
#include "common/strings.h"

namespace vodx {

Table::Table(std::vector<Column> columns) {
  for (Column& column : columns) {
    header_.push_back(std::move(column.name));
    kinds_.push_back(column.kind);
  }
}

void Table::add_row(std::vector<std::string> cells) {
  VODX_ASSERT(cells.size() == header_.size(), "table row arity mismatch");
  rows_.push_back(std::move(cells));
}

std::string Table::render() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t i = 0; i < header_.size(); ++i) widths[i] = header_[i].size();
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }

  auto render_row = [&](const std::vector<std::string>& row) {
    std::string line;
    for (std::size_t i = 0; i < row.size(); ++i) {
      line += row[i];
      if (i + 1 < row.size()) {
        line.append(widths[i] - row[i].size() + 2, ' ');
      }
    }
    line += '\n';
    return line;
  };

  std::string out = render_row(header_);
  std::size_t total = 0;
  for (std::size_t w : widths) total += w + 2;
  out.append(total > 2 ? total - 2 : total, '-');
  out += '\n';
  for (const auto& row : rows_) out += render_row(row);
  return out;
}

void Table::print() const { std::fputs(render().c_str(), stdout); }

std::string Table::csv() const {
  std::string out;
  auto line = [&out](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (i > 0) out += ',';
      out += cells[i];
    }
    out += '\n';
  };
  line(header_);
  for (const auto& row : rows_) line(row);
  return out;
}

std::string Table::jsonl() const {
  std::string out;
  for (const auto& row : rows_) {
    std::string members;
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (row[i].empty()) continue;
      members += members.empty() ? "\"" : ",\"";
      members += json_escape(header_[i]) + "\":";
      members += kinds_[i] == Kind::kString ? '"' + json_escape(row[i]) + '"'
                                            : row[i];
    }
    out += "{" + members + "}\n";
  }
  return out;
}

std::string Table::html() const {
  std::string out = "<table>";
  auto line = [&out](const std::vector<std::string>& cells, const char* tag) {
    out += "<tr>";
    for (const std::string& cell : cells) {
      out += format("<%s>%s</%s>", tag, html_escape(cell).c_str(), tag);
    }
    out += "</tr>\n";
  };
  line(header_, "th");
  for (const auto& row : rows_) line(row, "td");
  return out + "</table>\n";
}

std::string json_escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += format("\\u%04x", c);
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string html_escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

const char* const kReportCss =
    "body{font:14px/1.4 system-ui,sans-serif;margin:2em;color:#222}\n"
    "h1{font-size:1.4em}h2{font-size:1.1em;margin-top:1.5em}\n"
    "table{border-collapse:collapse;margin:.5em 0}\n"
    "th,td{border:1px solid #ccc;padding:3px 9px;text-align:right;"
    "font-variant-numeric:tabular-nums}\n"
    "th{background:#f0f0f0}\n"
    "th:first-child,td:first-child{text-align:left;font-family:monospace}\n";

std::string html_page(const std::string& title, const std::string& css,
                      const std::string& body) {
  return "<!doctype html><html><head><meta charset=\"utf-8\"><title>" +
         html_escape(title) + "</title><style>\n" + css +
         "</style></head><body>\n" + body + "</body></html>\n";
}

}  // namespace vodx
