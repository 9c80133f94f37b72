// In-memory span recording for the benchmark's traced run.
//
// Spans are recorded by the benchmark around its own calls into vodx's
// public functions; nothing inside the library is instrumented. A span has
// a name, host start/end, the span that caused it and the grid cell it
// belongs to. Spans stay in memory and are written once, at exit, as a
// Chrome trace plus a self-time table.
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Host seconds on the steady clock since the first call in the process.
double now_s();

struct Span {
  const char* name = "";
  double start = 0;
  double end = 0;
  int parent = -1;  ///< index into the owning log; -1 = root
  long cell = -1;   ///< grid cell (or -1 for whole-run spans)
  int pass = 0;     ///< which traced pass of the run
  int thread = 0;   ///< small per-thread id for the trace viewer
  /// A shadow span re-times, with the same arguments but outside its
  /// parent's interval, work the parent performs internally and that cannot
  /// be timed from outside (the content build inside HostedSession's
  /// constructor, the analyses inside finish()). Its duration is charged
  /// against the parent's self time instead of being nested in it; a root
  /// shadow is charged to nothing.
  bool shadow = false;
  double duration() const { return end - start; }
};

/// Spans of one unit of work (a cell, or a whole population run), built on
/// one thread without locking and merged into the SpanLog when done.
class CellTrace {
 public:
  CellTrace(long cell, int pass);
  int begin(const char* name, int parent);
  void end(int id);
  /// Runs `fn` and records it as a shadow span charged to `parent`.
  template <typename F>
  void shadow(const char* name, int parent, F&& fn) {
    const int id = begin(name, parent);
    spans_[static_cast<std::size_t>(id)].shadow = true;
    fn();
    end(id);
  }

 private:
  friend class SpanLog;
  std::vector<Span> spans_;
  long cell_;
  int pass_;
};

struct LayerTime {
  long calls = 0;
  double total_s = 0;
  double self_s = 0;
};

class SpanLog {
 public:
  /// Thread-safe: appends one unit's spans, re-basing parent indices.
  void merge(CellTrace&& trace);

  /// Per span name, summed over `pass` (all passes when pass < 0). Self time
  /// is the duration minus the direct children's durations, shadows
  /// included.
  std::map<std::string, LayerTime> layers(int pass) const;

  /// Root spans' total duration in `pass`: the traced wall the layer self
  /// times must account for.
  double root_time(int pass) const;

  /// Chrome trace-event JSON of one pass ("X" events, one track per worker
  /// thread).
  std::string chrome_trace(int pass) const;

  /// Fixed-width self-time table over every recorded pass.
  std::string self_time_table(int passes) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
