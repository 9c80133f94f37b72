#include "core/qoe.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace vodx::core {

namespace {

/// Finds the first wall time at which the (1 Hz, integer) playing position
/// reached a given position. Queried with non-decreasing positions it scans
/// the samples once: the first sample at or past a position is never before
/// the first one at or past a smaller position, whatever seeks did.
class PositionReached {
 public:
  explicit PositionReached(const std::vector<ProgressSample>& samples)
      : samples_(samples) {}

  /// -1 if the position was never reached.
  Seconds wall(Seconds position) {
    const Seconds threshold = position - 1e-9;
    if (threshold < last_threshold_) next_ = 0;
    last_threshold_ = threshold;
    while (next_ < samples_.size() &&
           !(static_cast<Seconds>(samples_[next_].progress) >= threshold)) {
      ++next_;
    }
    return next_ < samples_.size() ? samples_[next_].wall : -1;
  }

 private:
  const std::vector<ProgressSample>& samples_;
  std::size_t next_ = 0;
  Seconds last_threshold_ = std::numeric_limits<Seconds>::lowest();
};

/// Completed video downloads grouped by segment index, each group in
/// download order: a flat counting sort, one pass over the downloads.
struct DownloadsByIndex {
  std::vector<std::size_t> begin;  ///< group i is [begin[i], begin[i+1])
  std::vector<const SegmentDownload*> downloads;

  DownloadsByIndex(const std::vector<SegmentDownload>& all,
                   int segment_count)
      : begin(static_cast<std::size_t>(segment_count) + 1, 0) {
    auto counted = [segment_count](const SegmentDownload& d) {
      if (d.type != media::ContentType::kVideo || d.aborted ||
          d.completed_at < 0) {
        return false;
      }
      return d.index >= 0 && d.index < segment_count;
    };
    for (const SegmentDownload& d : all) {
      if (counted(d)) ++begin[static_cast<std::size_t>(d.index) + 1];
    }
    for (std::size_t i = 1; i < begin.size(); ++i) begin[i] += begin[i - 1];
    downloads.resize(begin.back());
    std::vector<std::size_t> fill(begin.begin(), begin.end() - 1);
    for (const SegmentDownload& d : all) {
      if (counted(d)) downloads[fill[static_cast<std::size_t>(d.index)]++] = &d;
    }
  }
};

/// Fills `report.displayed` and `report.wasted_bytes` from the two
/// observation channels.
void infer_displayed(const AnalyzedTraffic& traffic, const UiInference& ui,
                     QoeReport& report) {
  if (traffic.video_tracks.empty()) return;

  const Seconds final_position =
      ui.samples.empty()
          ? 0
          : static_cast<Seconds>(ui.samples.back().progress);

  // Reconstruct which rendition of every index actually rendered: the last
  // download of that index completed before its play time wins (§4.1.1 —
  // only the most recent download stays in the buffer).
  const AnalyzedTrack& reference = traffic.video_tracks.front();
  const int segment_count =
      static_cast<int>(reference.segment_durations.size());
  std::vector<const SegmentDownload*> winners(
      static_cast<std::size_t>(segment_count), nullptr);
  const DownloadsByIndex by_index(traffic.downloads, segment_count);
  PositionReached reached(ui.samples);

  // Summed in index order, as AnalyzedTrack::segment_start does.
  Seconds seg_start = 0;
  for (int index = 0; index < segment_count; ++index) {
    const auto i = static_cast<std::size_t>(index);
    if (index > 0) seg_start += reference.segment_durations[i - 1];
    if (seg_start >= final_position - 1e-9) break;
    const Seconds play_wall = reached.wall(seg_start);
    const SegmentDownload* winner = nullptr;
    const SegmentDownload* earliest = nullptr;
    for (std::size_t k = by_index.begin[i]; k < by_index.begin[i + 1]; ++k) {
      const SegmentDownload& d = *by_index.downloads[k];
      if (earliest == nullptr || d.completed_at < earliest->completed_at) {
        earliest = &d;
      }
      if (play_wall >= 0 && d.completed_at <= play_wall + 1.0) {
        if (winner == nullptr || d.completed_at > winner->completed_at) {
          winner = &d;
        }
      }
    }
    if (winner == nullptr) winner = earliest;
    if (winner == nullptr) continue;
    winners[i] = winner;

    DisplayedSegment shown;
    shown.index = index;
    shown.level = winner->level;
    shown.declared_bitrate = winner->declared_bitrate;
    shown.resolution = winner->resolution;
    const Seconds seg_end = seg_start + winner->duration;
    shown.seconds_shown = std::min(seg_end, final_position) - seg_start;
    shown.play_wall = play_wall;
    if (shown.seconds_shown <= 0) continue;
    report.displayed.push_back(shown);
  }

  // Waste: aborted transfers plus downloads that never rendered.
  for (const SegmentDownload& d : traffic.downloads) {
    if (d.aborted) {
      report.wasted_bytes += d.bytes;
      continue;
    }
    if (d.type != media::ContentType::kVideo) continue;
    if (d.index < 0 || d.index >= segment_count) continue;
    const SegmentDownload* winner =
        winners[static_cast<std::size_t>(d.index)];
    if (winner != nullptr && winner != &d) report.wasted_bytes += d.bytes;
  }
}

/// The part of the summary both QoE views share: byte totals from the wire
/// log, then quality and switch aggregates over `report.displayed`, summed
/// in displayed order.
void summarize(const AnalyzedTraffic& traffic, const QoeOptions& options,
               QoeReport& report) {
  report.total_bytes = traffic.total_payload_bytes;
  for (const SegmentDownload& d : traffic.downloads) {
    report.media_bytes += d.bytes;
  }

  double bitrate_weighted = 0;
  for (const DisplayedSegment& s : report.displayed) {
    report.displayed_time += s.seconds_shown;
    bitrate_weighted += s.declared_bitrate * s.seconds_shown;
    report.time_by_height[s.resolution.height] += s.seconds_shown;
  }
  if (report.displayed_time > 0) {
    report.average_declared_bitrate = bitrate_weighted / report.displayed_time;
  }
  report.low_quality_fraction =
      report.fraction_at_or_below(options.low_quality_max_height);

  for (std::size_t i = 1; i < report.displayed.size(); ++i) {
    const int delta =
        std::abs(report.displayed[i].level - report.displayed[i - 1].level);
    if (delta > 0) ++report.switch_count;
    if (delta > 1) ++report.nonconsecutive_switch_count;
  }
}

}  // namespace

double QoeReport::fraction_at_or_below(int height) const {
  if (displayed_time <= 0) return 0;
  Seconds below = 0;
  for (const auto& [h, secs] : time_by_height) {
    if (h <= height) below += secs;
  }
  return below / displayed_time;
}

QoeReport compute_qoe(const AnalyzedTraffic& traffic, const UiInference& ui,
                      const QoeOptions& options) {
  QoeReport report;
  report.startup_delay = ui.startup_delay;
  report.total_stall = ui.total_stall;
  report.stall_count = static_cast<int>(ui.stalls.size());
  infer_displayed(traffic, ui, report);
  summarize(traffic, options, report);
  return report;
}

QoeReport qoe_from_events(const player::PlayerEvents& events,
                          const AnalyzedTraffic& traffic, Seconds session_end,
                          const QoeOptions& options) {
  QoeReport report;
  report.startup_delay = events.startup_delay();
  report.total_stall = events.total_stall_time(session_end);
  report.stall_count = static_cast<int>(events.stalls.size());
  for (std::size_t i = 0; i < events.displayed.size(); ++i) {
    const player::DisplayEvent& e = events.displayed[i];
    // Wall time is interrupted by stalls; displayed *media* seconds are the
    // position delta to the next event (the last one shows its duration).
    const Seconds next_position = i + 1 < events.displayed.size()
                                      ? events.displayed[i + 1].position
                                      : e.position + e.duration;
    const Seconds shown = std::max(0.0, next_position - e.position);
    if (shown <= 0) continue;
    DisplayedSegment d;
    d.index = e.index;
    d.level = e.level;
    d.declared_bitrate = e.declared_bitrate;
    d.resolution = e.resolution;
    d.seconds_shown = shown;
    d.play_wall = e.wall_time;
    report.displayed.push_back(d);
  }
  for (const player::ReplacementEvent& r : events.replacements) {
    report.wasted_bytes += r.old_bytes;
  }
  summarize(traffic, options, report);
  return report;
}

double qoe_score(const QoeReport& report, Seconds session_length,
                 const QoeScoreWeights& weights) {
  if (report.displayed_time <= 0 || session_length <= 0) return 0;
  // Concave (logarithmic) bitrate utility, time-weighted over what was
  // actually displayed.
  double utility = 0;
  for (const DisplayedSegment& s : report.displayed) {
    const double ratio =
        std::max(0.1, s.declared_bitrate / weights.reference_bitrate);
    utility += std::log2(ratio) * s.seconds_shown;
  }
  utility /= report.displayed_time;

  const double stall_fraction = report.total_stall / session_length;
  const double switches_per_minute =
      report.switch_count / (report.displayed_time / 60.0);
  const double startup =
      report.startup_delay > 0 ? report.startup_delay : 0;

  return utility - weights.stall_penalty * stall_fraction -
         weights.startup_penalty * startup -
         weights.switch_penalty * switches_per_minute;
}

}  // namespace vodx::core
