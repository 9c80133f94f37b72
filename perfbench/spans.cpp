#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>

namespace perfbench {

namespace {

int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int index = next++;
  return index;
}

std::string format_double(const char* fmt, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, fmt, value);
  return buf;
}

}  // namespace

double now_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

CellTrace::CellTrace(long cell, int pass) : cell_(cell), pass_(pass) {}

int CellTrace::begin(const char* name, int parent) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.cell = cell_;
  span.pass = pass_;
  span.thread = thread_index();
  span.start = now_s();
  spans_.push_back(span);
  return static_cast<int>(spans_.size()) - 1;
}

void CellTrace::end(int id) {
  spans_[static_cast<std::size_t>(id)].end = now_s();
}

void SpanLog::merge(CellTrace&& trace) {
  std::lock_guard<std::mutex> lock(mutex_);
  const int base = static_cast<int>(spans_.size());
  for (Span& span : trace.spans_) {
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(span);
  }
}

std::map<std::string, LayerTime> SpanLog::layers(int pass) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_time[static_cast<std::size_t>(span.parent)] += span.duration();
    }
  }
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (pass >= 0 && span.pass != pass) continue;
    LayerTime& layer = out[span.name];
    ++layer.calls;
    layer.total_s += span.duration();
    layer.self_s += span.duration() - child_time[i];
  }
  return out;
}

double SpanLog::root_time(int pass) const {
  std::lock_guard<std::mutex> lock(mutex_);
  double total = 0;
  for (const Span& span : spans_) {
    if (span.parent < 0 && span.pass == pass) total += span.duration();
  }
  return total;
}

std::string SpanLog::chrome_trace(int pass) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"traceEvents\":[\n";
  int max_thread = 0;
  for (const Span& span : spans_) {
    if (span.pass != pass) continue;
    max_thread = std::max(max_thread, span.thread);
    out += "{\"name\":\"" + std::string(span.name) +
           "\",\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(span.thread) +
           ",\"ts\":" + format_double("%.3f", span.start * 1e6) +
           ",\"dur\":" + format_double("%.3f", span.duration() * 1e6) +
           ",\"args\":{\"cell\":" + std::to_string(span.cell) +
           ",\"pass\":" + std::to_string(span.pass);
    if (span.parent >= 0) {
      out += ",\"parent\":\"" +
             std::string(spans_[static_cast<std::size_t>(span.parent)].name) +
             "\"";
    }
    if (span.shadow) out += ",\"shadow\":true";
    out += "}},\n";
  }
  for (int t = 0; t <= max_thread; ++t) {
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
           std::to_string(t) + ",\"args\":{\"name\":\"thread " +
           std::to_string(t) + "\"}}" + (t < max_thread ? ",\n" : "\n");
  }
  return out + "]}\n";
}

std::string SpanLog::self_time_table(int passes) const {
  const std::map<std::string, LayerTime> all = layers(-1);
  double roots = 0;
  for (int p = 0; p < passes; ++p) roots += root_time(p);
  std::string out = "# " + std::to_string(passes) +
        " traced pass(es); self = duration minus direct children (shadow "
        "spans included); root wall " +
        format_double("%.6f", roots) + " s\n";
  char line[160];
  std::snprintf(line, sizeof line, "%-24s %10s %14s %14s %8s\n", "span",
                "calls", "total_s", "self_s", "self_%");
  out += line;
  for (const auto& [name, layer] : all) {
    std::snprintf(line, sizeof line, "%-24s %10ld %14.6f %14.6f %7.2f%%\n",
                  name.c_str(), layer.calls, layer.total_s, layer.self_s,
                  roots > 0 ? 100 * layer.self_s / roots : 0.0);
    out += line;
  }
  return out;
}

}  // namespace perfbench
