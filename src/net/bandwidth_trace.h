// Time-varying bottleneck bandwidth, the simulated analogue of the paper's
// `tc`-based network emulator fed with recorded cellular throughput traces.
//
// A trace is piecewise-constant: sample i holds from its start time until the
// next sample's start. Queries beyond the end wrap around (the paper replays
// 10-minute traces for arbitrarily long sessions the same way).
#pragma once

#include <string>
#include <vector>

#include "common/units.h"

namespace vodx::net {

class BandwidthTrace {
 public:
  struct Sample {
    Seconds start = 0;
    Bps bandwidth = 0;
  };

  /// One constant stretch of the trace in absolute time: at(t) == bandwidth
  /// and next_change_after(t) == end for every t in [start, end). A constant
  /// trace is one piece from -infinity to +infinity.
  struct Piece {
    Seconds start = 0;
    Seconds end = 0;
    Bps bandwidth = 0;
  };

  /// A flat profile at `bandwidth` for `duration` seconds.
  static BandwidthTrace constant(Bps bandwidth, Seconds duration);

  /// A step profile: `before` until `step_at`, then `after` until `duration`.
  static BandwidthTrace step(Bps before, Bps after, Seconds step_at,
                             Seconds duration);

  /// Builds from explicit samples; they must be time-ordered and non-negative.
  static BandwidthTrace from_samples(std::vector<Sample> samples,
                                     Seconds duration);

  /// One sample per second, in the order given (the format the paper's trace
  /// collection produces: throughput recorded every second).
  static BandwidthTrace per_second(const std::vector<Bps>& samples);

  /// Bandwidth at absolute time t; t past the end wraps around.
  Bps at(Seconds t) const { return piece_at(t).bandwidth; }

  /// The piece containing absolute time t (honouring wrap-around).
  Piece piece_at(Seconds t) const;

  /// First absolute time strictly after t at which at() can change value —
  /// the next sample boundary (honouring wrap-around), +infinity for a
  /// constant trace. Conservative: adjacent samples with equal bandwidth
  /// still report their boundary. This is what lets the event-driven core
  /// wake the link exactly at trace steps so the obs capacity timeline
  /// stays lossless without per-tick sampling.
  Seconds next_change_after(Seconds t) const { return piece_at(t).end; }

  /// Average bandwidth over one full trace length.
  Bps mean() const;

  Bps peak() const;

  /// Integral of bandwidth (bits) over [t0, t1), honouring wrap-around.
  double bits_between(Seconds t0, Seconds t1) const;

  /// Extracts [start, start + length) as a standalone trace.
  BandwidthTrace slice(Seconds start, Seconds length) const;

  Seconds duration() const { return duration_; }
  const std::vector<Sample>& samples() const { return samples_; }

  /// Optional label used by bench output ("Profile 3", "step 4->1 Mbps").
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

 private:
  std::vector<Sample> samples_;
  Seconds duration_ = 0;
  std::string name_;
};

/// Reads a trace at successive tick times without a lookup per read: the
/// current piece is cached and reused while the query time stays inside it.
/// Times within 1e-9 of a piece boundary always take the full lookup, so a
/// cursor read equals BandwidthTrace::at bit for bit at every time.
class TraceCursor {
 public:
  /// `trace` must outlive the cursor.
  explicit TraceCursor(const BandwidthTrace& trace) : trace_(&trace) {}

  /// The piece containing t; equal to trace.piece_at(t).
  const BandwidthTrace::Piece& piece(Seconds t) {
    if (t != looked_up_ && (t < piece_.start + kBoundaryGuard ||
                            t >= piece_.end - kBoundaryGuard)) {
      piece_ = trace_->piece_at(t);
      looked_up_ = t;
    }
    return piece_;
  }
  Bps at(Seconds t) { return piece(t).bandwidth; }

 private:
  /// Far wider than the float error of a piece's absolute bounds (a few
  /// ulps of t), far narrower than any tick.
  static constexpr Seconds kBoundaryGuard = 1e-9;

  const BandwidthTrace* trace_;
  BandwidthTrace::Piece piece_;  ///< empty until the first read
  Seconds looked_up_ = -1;       ///< the time piece_ was looked up for
};

}  // namespace vodx::net
