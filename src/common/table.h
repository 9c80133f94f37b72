// The one tabular report type: a header of typed columns plus rows of
// pre-formatted cells, so every writer prints the same digits. render() is
// aligned text, csv() a header line plus one line per row, jsonl() one
// object per row, html() one <table>; html_page() is the one page shell.
//
// A column's kind only matters to jsonl(): string cells are quoted and
// escaped, number and raw-JSON cells are written verbatim. An empty cell is
// omitted from its JSONL object, so records with optional members (a failed
// cell's error, a snapshot that was not collected) share one column set.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace vodx {

class Table {
 public:
  enum class Kind {
    kString,  ///< quoted + escaped in JSONL
    kNumber,  ///< verbatim in JSONL (also true/false)
    kJson,    ///< verbatim in JSONL: a nested object or array
  };

  /// A plain name is a string column.
  struct Column {
    Column(const char* name) : name(name) {}
    Column(std::string name, Kind kind = Kind::kString)
        : name(std::move(name)), kind(kind) {}

    static Column number(std::string name) {
      return {std::move(name), Kind::kNumber};
    }
    static Column json(std::string name) {
      return {std::move(name), Kind::kJson};
    }

    std::string name;
    Kind kind = Kind::kString;
  };

  explicit Table(std::vector<Column> columns);

  /// Appends a row; must have the same arity as the header.
  void add_row(std::vector<std::string> cells);

  /// Renders with column alignment and a header separator.
  std::string render() const;

  /// Convenience: render straight to stdout.
  void print() const;

  std::string csv() const;
  std::string jsonl() const;
  /// Cells are HTML-escaped.
  std::string html() const;

 private:
  std::vector<std::string> header_;
  std::vector<Kind> kinds_;
  std::vector<std::vector<std::string>> rows_;
};

/// JSON string-literal escaping (quotes, backslashes, control characters).
std::string json_escape(const std::string& raw);

/// HTML text/attribute escaping (&, <, >, ").
std::string html_escape(const std::string& raw);

/// Stylesheet of the sweep and root-cause report pages.
extern const char* const kReportCss;

/// The one page shell: doctype, utf-8, <title>, inline <style>, `body`.
std::string html_page(const std::string& title, const std::string& css,
                      const std::string& body);

}  // namespace vodx
