#include "net/bandwidth_trace.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"

namespace vodx::net {

BandwidthTrace BandwidthTrace::constant(Bps bandwidth, Seconds duration) {
  return from_samples({{0.0, bandwidth}}, duration);
}

BandwidthTrace BandwidthTrace::step(Bps before, Bps after, Seconds step_at,
                                    Seconds duration) {
  VODX_ASSERT(step_at >= 0 && step_at <= duration, "step outside trace");
  return from_samples({{0.0, before}, {step_at, after}}, duration);
}

BandwidthTrace BandwidthTrace::from_samples(std::vector<Sample> samples,
                                            Seconds duration) {
  if (samples.empty()) throw ConfigError("bandwidth trace needs samples");
  if (duration <= 0) throw ConfigError("bandwidth trace needs duration > 0");
  Seconds prev = -1;
  for (const Sample& s : samples) {
    if (s.start < 0 || s.start >= duration || s.start <= prev) {
      throw ConfigError("bandwidth trace samples must be ordered in [0, dur)");
    }
    if (s.bandwidth < 0) throw ConfigError("negative bandwidth");
    prev = s.start;
  }
  if (samples.front().start != 0) {
    throw ConfigError("bandwidth trace must start at t=0");
  }
  BandwidthTrace trace;
  trace.samples_ = std::move(samples);
  trace.duration_ = duration;
  return trace;
}

BandwidthTrace BandwidthTrace::per_second(const std::vector<Bps>& samples) {
  std::vector<Sample> out;
  out.reserve(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    out.push_back({static_cast<Seconds>(i), samples[i]});
  }
  return from_samples(std::move(out), static_cast<Seconds>(samples.size()));
}

BandwidthTrace::Piece BandwidthTrace::piece_at(Seconds t) const {
  if (samples_.size() == 1) {
    // One piece: replays are identical, so the value never changes.
    return {-std::numeric_limits<double>::infinity(),
            std::numeric_limits<double>::infinity(), samples_.front().bandwidth};
  }
  Seconds local = std::fmod(t, duration_);
  if (local < 0) local += duration_;
  const Seconds base = t - local;  // start of the replay containing t
  // First sample whose start > local; the piece is the one before it.
  auto it = std::upper_bound(
      samples_.begin(), samples_.end(), local,
      [](Seconds value, const Sample& s) { return value < s.start; });
  VODX_ASSERT(it != samples_.begin(), "trace lookup before first sample");
  const Sample& sample = *std::prev(it);
  const Seconds end = it == samples_.end() ? base + duration_  // wrap boundary
                                           : base + it->start;
  return {base + sample.start, end, sample.bandwidth};
}

Bps BandwidthTrace::mean() const {
  return bits_between(0, duration_) / duration_;
}

Bps BandwidthTrace::peak() const {
  Bps best = 0;
  for (const Sample& s : samples_) best = std::max(best, s.bandwidth);
  return best;
}

double BandwidthTrace::bits_between(Seconds t0, Seconds t1) const {
  VODX_ASSERT(t1 >= t0, "inverted interval");
  double bits = 0;
  // Walk in pieces that never cross a wrap boundary or a sample boundary.
  Seconds t = t0;
  while (t < t1) {
    Seconds local = std::fmod(t, duration_);
    if (local < 0) local += duration_;
    auto it = std::upper_bound(
        samples_.begin(), samples_.end(), local,
        [](Seconds value, const Sample& s) { return value < s.start; });
    Seconds piece_end_local =
        (it == samples_.end()) ? duration_ : it->start;
    Seconds piece = std::min(piece_end_local - local, t1 - t);
    bits += std::prev(it)->bandwidth * piece;
    t += piece;
  }
  return bits;
}

BandwidthTrace BandwidthTrace::slice(Seconds start, Seconds length) const {
  VODX_ASSERT(length > 0, "slice needs positive length");
  std::vector<Sample> out;
  Seconds t = 0;
  while (t < length) {
    Bps bw = at(start + t);
    if (out.empty() || bw != out.back().bandwidth) out.push_back({t, bw});
    // Advance to the next sample boundary after (start + t).
    Seconds local = std::fmod(start + t, duration_);
    if (local < 0) local += duration_;
    auto it = std::upper_bound(
        samples_.begin(), samples_.end(), local,
        [](Seconds value, const Sample& s) { return value < s.start; });
    Seconds next_local = (it == samples_.end()) ? duration_ : it->start;
    t += next_local - local;
  }
  BandwidthTrace trace = from_samples(std::move(out), length);
  trace.set_name(name_);
  return trace;
}

}  // namespace vodx::net
