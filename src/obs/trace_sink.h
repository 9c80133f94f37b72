// Ring-buffered event trace.
//
// Single-writer by design (the simulator is single-threaded), so "lock-free"
// is literal: emission is an enabled-mask check, a couple of stores and a
// ring index increment — no mutex, no allocation beyond the event's own
// fields. When the ring fills, the oldest events are overwritten and counted
// as dropped; exporters always see a contiguous, emission-ordered window
// ending at the newest event.
//
// Cost when disabled: callers are expected to guard emission with
// `enabled(category)` (or the `trace_on` helper in observer.h), which is an
// inline read of two plain members — no fields are even constructed.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/event.h"

namespace vodx::obs {

class TraceSink {
 public:
  /// `capacity` = number of retained events (oldest dropped beyond that).
  /// Capacity 0 is legal: nothing is retained, every emission counts as
  /// dropped, and emitted()/dropped() stay exact.
  explicit TraceSink(std::size_t capacity = 1 << 16);

  // --- Enabling -----------------------------------------------------------

  bool enabled(Category category) const {
    return enabled_ && (mask_ & bit(category)) != 0;
  }
  void set_enabled(bool on) { enabled_ = on; }

  /// Per-category mask; defaults to everything.
  void set_category_mask(std::uint32_t mask) { mask_ = mask; }
  void enable(Category category) { mask_ |= bit(category); }
  void disable(Category category) { mask_ &= ~bit(category); }

  // --- Tracks -------------------------------------------------------------

  /// Returns a stable id for a named timeline ("player", "tcp conn0", ...),
  /// registering it on first use. Ids are small ints, assigned in order.
  int track(const std::string& name);
  const std::vector<std::string>& track_names() const { return tracks_; }

  // --- Clock (for scoped spans) ------------------------------------------

  /// Spans closed by ScopedSpan destructors need "now"; the session wires
  /// this to the simulator clock. Unset, spans end at their begin time.
  void set_clock(std::function<Seconds()> clock) { clock_ = std::move(clock); }
  Seconds now() const { return clock_ ? clock_() : 0; }

  // --- Emission -----------------------------------------------------------

  /// Appends `event` (seq is assigned here). Category masking is NOT
  /// re-checked: guard call sites with enabled() so disabled categories pay
  /// nothing.
  void emit(Event event);

  void instant(Seconds time, Category category, const char* name, int track,
               std::vector<Field> fields = {});
  void begin(Seconds time, Category category, const char* name, int track,
             std::vector<Field> fields = {});
  void end(Seconds time, Category category, const char* name, int track,
           std::vector<Field> fields = {});
  void counter(Seconds time, Category category, const char* name, int track,
               double value);

  // --- Inspection ---------------------------------------------------------

  std::uint64_t emitted() const { return emitted_; }
  std::uint64_t dropped() const { return dropped_; }
  std::size_t size() const { return count_; }
  std::size_t capacity() const { return capacity_; }

  /// Retained events, oldest first (emission order; seq is monotonic).
  std::vector<Event> snapshot() const;

  /// Visits retained events oldest-first without copying.
  void for_each(const std::function<void(const Event&)>& fn) const;

  void clear();

 private:
  bool enabled_ = true;
  std::uint32_t mask_ = kAllCategories;
  std::size_t capacity_;
  std::vector<Event> ring_;  ///< grows to capacity_, then wraps
  std::size_t next_ = 0;     ///< ring slot the next event lands in
  std::size_t count_ = 0;
  std::uint64_t emitted_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<std::string> tracks_;
  std::function<Seconds()> clock_;
};

/// RAII span: begin on construction, end on destruction (at the sink's
/// clock time). Inactive when the sink is null or the category disabled.
class ScopedSpan {
 public:
  ScopedSpan(TraceSink* sink, Category category, const char* name, int track,
             Seconds begin_time, std::vector<Field> fields = {});
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceSink* sink_ = nullptr;
  Category category_ = Category::kSim;
  const char* name_ = "";
  int track_ = 0;
  Seconds begin_time_ = 0;
};

}  // namespace vodx::obs
