// Hand-built inputs for the post-run analysis stages.
//
// infer_buffer, download_progress and compute_qoe read nothing but an
// AnalyzedTraffic and a UiInference, so their edge cases (tied completions,
// gaps, aborts, seeks) are built here directly instead of being provoked
// through a simulated session. Differential tests run the same inputs
// through the library and through a straightforward reference
// implementation and require identical output.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/traffic_analyzer.h"
#include "core/ui_monitor.h"

namespace vodx::testing {

/// One ladder rung; level L declares 400 kbps × 2^L (audio: 96 kbps).
inline core::AnalyzedTrack analyzed_track(media::ContentType type, int level,
                                          std::vector<Seconds> durations) {
  static const int kHeights[] = {240, 360, 480, 720, 1080, 1440};
  core::AnalyzedTrack track;
  track.type = type;
  track.level = level;
  track.declared_bitrate =
      type == media::ContentType::kVideo ? 400e3 * (1 << level) : 96e3;
  const int height = type == media::ContentType::kVideo
                         ? kHeights[std::min(level, 5)]
                         : 0;
  track.resolution = {height * 16 / 9, height};
  track.segment_durations = std::move(durations);
  return track;
}

/// A download of `index` from `track`. `completed_at` < 0 leaves it
/// unfinished; the index may lie outside the track.
inline core::SegmentDownload segment_download(
    const core::AnalyzedTrack& track, int index, Seconds requested_at,
    Seconds completed_at, bool aborted = false) {
  core::SegmentDownload d;
  d.type = track.type;
  d.level = track.level;
  d.index = index;
  d.declared_bitrate = track.declared_bitrate;
  d.resolution = track.resolution;
  const int count = static_cast<int>(track.segment_durations.size());
  d.duration = index >= 0 && index < count
                   ? track.segment_durations[static_cast<std::size_t>(index)]
                   : 4;
  d.bytes = static_cast<Bytes>(track.declared_bitrate * d.duration / 8);
  d.requested_at = requested_at;
  d.completed_at = completed_at;
  d.aborted = aborted;
  return d;
}

/// What the UI monitor infers from these (wall, position) samples.
inline core::UiInference ui_from(
    const std::vector<std::pair<Seconds, int>>& samples) {
  core::UiMonitor monitor;
  for (const auto& [wall, progress] : samples) {
    monitor.on_progress(wall, progress);
  }
  return monitor.infer(0);
}

/// 1 Hz samples from wall 0 to `until`: the position starts advancing at
/// `start` and then advances one second per second.
inline std::vector<std::pair<Seconds, int>> steady_playback(Seconds start,
                                                            int until) {
  std::vector<std::pair<Seconds, int>> samples;
  for (int t = 0; t <= until; ++t) {
    samples.emplace_back(t, std::max(0, static_cast<int>(t - start)));
  }
  return samples;
}

struct AnalysisCase {
  std::string name;
  core::AnalyzedTraffic traffic;
  core::UiInference ui;
  Seconds session_end = 0;
};

/// One hand-built session per edge case of the analysis stages.
inline std::vector<AnalysisCase> analysis_cases() {
  using media::ContentType;
  const std::vector<Seconds> four(10, 4.0);
  std::vector<AnalysisCase> cases;
  auto add = [&](std::string name, std::vector<core::AnalyzedTrack> video,
                 std::vector<core::AnalyzedTrack> audio,
                 std::vector<core::SegmentDownload> downloads,
                 core::UiInference ui, Seconds session_end) {
    AnalysisCase c;
    c.name = std::move(name);
    c.traffic.video_tracks = std::move(video);
    c.traffic.audio_tracks = std::move(audio);
    c.traffic.downloads = std::move(downloads);
    c.ui = std::move(ui);
    c.session_end = session_end;
    cases.push_back(std::move(c));
  };
  const core::AnalyzedTrack v0 = analyzed_track(ContentType::kVideo, 0, four);
  const core::AnalyzedTrack v1 = analyzed_track(ContentType::kVideo, 1, four);
  const core::AnalyzedTrack v2 = analyzed_track(ContentType::kVideo, 2, four);
  const core::AnalyzedTrack a0 = analyzed_track(
      ContentType::kAudio, 0, std::vector<Seconds>(20, 2.0));

  // Completions land out of index order, and the downloads are not listed
  // in completion order either.
  add("out_of_order_completions", {v0, v1}, {},
      {segment_download(v0, 2, 1, 3.5), segment_download(v0, 0, 0, 6),
       segment_download(v1, 1, 0.5, 2), segment_download(v0, 3, 2, 9.25),
       segment_download(v1, 4, 7, 11), segment_download(v0, 5, 8, 10.5)},
      ui_from(steady_playback(7, 30)), 30);

  // Three renditions of index 1 complete at the same instant; the first in
  // download order must win every tie.
  add("tied_duplicate_renditions", {v0, v1, v2}, {},
      {segment_download(v0, 0, 0, 1), segment_download(v2, 1, 1, 5),
       segment_download(v0, 1, 1.5, 5), segment_download(v1, 1, 2, 5),
       segment_download(v1, 2, 5, 7), segment_download(v2, 2, 5.5, 7),
       segment_download(v0, 3, 6, 9)},
      ui_from(steady_playback(2, 25)), 25);

  // Aborted, never-finished and out-of-range downloads count for nothing.
  add("aborted_unfinished_out_of_range", {v0, v1}, {},
      {segment_download(v0, 0, 0, 1), segment_download(v1, 1, 1, 2.5, true),
       segment_download(v0, 1, 2, -1), segment_download(v0, 1, 3, 4),
       segment_download(v0, -1, 3, 4.5), segment_download(v1, 10, 4, 5),
       segment_download(v1, 2, 5, -1, true), segment_download(v0, 2, 6, 8)},
      ui_from(steady_playback(2, 24)), 24);

  // Index 2 arrives last: progress jumps over 2..5 once the gap fills.
  add("gap_that_later_fills", {v0}, {},
      {segment_download(v0, 0, 0, 1), segment_download(v0, 1, 1, 2),
       segment_download(v0, 3, 2, 3), segment_download(v0, 4, 3, 4),
       segment_download(v0, 5, 4, 5), segment_download(v0, 2, 5, 12.5)},
      ui_from(steady_playback(3, 30)), 30);

  // Separate audio has its own ladder and its own progress.
  add("separate_audio", {v0, v1}, {a0},
      {segment_download(v0, 0, 0, 1), segment_download(a0, 0, 0, 0.5),
       segment_download(a0, 1, 0.5, 0.8), segment_download(v1, 1, 1, 3),
       segment_download(a0, 3, 1, 2), segment_download(a0, 2, 2, 4.5),
       segment_download(v0, 2, 3, 6), segment_download(a0, 4, 5, 5.5)},
      ui_from(steady_playback(2, 20)), 20);

  // The same downloads with audio muxed into the video segments.
  add("muxed_audio", {v0, v1}, {},
      {segment_download(v0, 0, 0, 1), segment_download(v1, 1, 1, 3),
       segment_download(v0, 2, 3, 6)},
      ui_from(steady_playback(2, 20)), 20);

  // The session ends between two 1 s sample points.
  add("session_end_off_grid", {v0}, {},
      {segment_download(v0, 0, 0, 0.75), segment_download(v0, 1, 0.75, 1.5),
       segment_download(v0, 2, 1.5, 2.25)},
      ui_from(steady_playback(1, 13)), 13.4);

  // Playback stalls for good at position 6: index 1 starts playing but the
  // position never reaches index 2's start, and later indices never play.
  {
    std::vector<std::pair<Seconds, int>> samples;
    for (int t = 0; t <= 30; ++t) samples.emplace_back(t, std::min(t, 6));
    add("position_never_reaches_segment", {v0, v1}, {},
        {segment_download(v0, 0, 0, 0.5), segment_download(v1, 1, 0.5, 1),
         segment_download(v1, 2, 1, 2), segment_download(v1, 3, 2, 3)},
        ui_from(samples), 30);
  }

  // A seek back replays earlier positions.
  {
    std::vector<std::pair<Seconds, int>> samples;
    for (int t = 0; t <= 30; ++t) {
      samples.emplace_back(t, t < 12 ? t : t - 8);
    }
    add("seek_back", {v0, v1}, {},
        {segment_download(v0, 0, 0, 0.5), segment_download(v0, 1, 1, 2),
         segment_download(v1, 1, 9, 10), segment_download(v1, 2, 2, 3),
         segment_download(v0, 3, 3, 4), segment_download(v1, 4, 4, 5),
         segment_download(v0, 5, 5, 6)},
        ui_from(samples), 30);
  }

  // No ladder at all, and a ladder of zero segments.
  add("empty_ladders", {}, {}, {}, ui_from(steady_playback(2, 10)), 10);
  add("zero_segment_ladder", {analyzed_track(ContentType::kVideo, 0, {})},
      {analyzed_track(ContentType::kAudio, 0, {})},
      {segment_download(v0, 0, 0, 1)}, ui_from(steady_playback(2, 10)), 10);
  // No UI samples: the position never moves.
  add("no_ui_samples", {v0}, {}, {segment_download(v0, 0, 0, 1)},
      ui_from({}), 5);
  return cases;
}

/// A random session: a 1–4 rung ladder with uneven segment durations,
/// optional separate audio, duplicate/aborted/unfinished/out-of-range
/// downloads listed out of completion order, and a UI channel with stalls
/// and seeks, ending off the 1 s grid.
inline AnalysisCase random_case(std::uint64_t seed) {
  Rng rng(seed);
  using media::ContentType;
  AnalysisCase c;
  c.name = "random seed " + std::to_string(seed);
  const int segments = static_cast<int>(rng.uniform_int(0, 40));
  std::vector<Seconds> durations;
  for (int i = 0; i < segments; ++i) {
    durations.push_back(rng.chance(0.5) ? 4.0 : rng.uniform(1, 6));
  }
  const int levels = static_cast<int>(rng.uniform_int(1, 4));
  for (int level = 0; level < levels; ++level) {
    c.traffic.video_tracks.push_back(
        analyzed_track(ContentType::kVideo, level, durations));
  }
  if (rng.chance(0.5)) {
    std::vector<Seconds> audio(static_cast<std::size_t>(segments * 2), 2.0);
    c.traffic.audio_tracks.push_back(
        analyzed_track(ContentType::kAudio, 0, audio));
  }

  auto add_downloads = [&](const std::vector<core::AnalyzedTrack>& ladder) {
    if (ladder.empty()) return;
    const int count =
        static_cast<int>(ladder.front().segment_durations.size());
    Seconds clock = 0;
    for (int index = -1; index <= count + 1; ++index) {
      const int copies = static_cast<int>(rng.uniform_int(0, 3));
      for (int k = 0; k < copies; ++k) {
        const core::AnalyzedTrack& track = ladder[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(ladder.size()) - 1))];
        clock += rng.uniform(0, 2);
        Seconds completed = clock + rng.uniform(0, 6);
        // Ties with an earlier completion, on the 1 s grid and on the +1 s
        // edge of compute_qoe's "completed before play" window.
        if (!c.traffic.downloads.empty() && rng.chance(0.2)) {
          completed = c.traffic.downloads.back().completed_at;
        } else if (rng.chance(0.15)) {
          completed = static_cast<Seconds>(static_cast<int>(completed));
        }
        const bool aborted = rng.chance(0.1);
        if (rng.chance(0.08)) completed = -1;
        c.traffic.downloads.push_back(
            segment_download(track, index, clock, completed, aborted));
      }
    }
  };
  add_downloads(c.traffic.video_tracks);
  add_downloads(c.traffic.audio_tracks);
  // List downloads out of completion order.
  for (std::size_t i = 1; i < c.traffic.downloads.size(); ++i) {
    if (rng.chance(0.3)) {
      std::swap(c.traffic.downloads[i - 1], c.traffic.downloads[i]);
    }
  }

  const int wall_end = static_cast<int>(rng.uniform_int(0, 200));
  int position = 0;
  bool started = false;
  std::vector<std::pair<Seconds, int>> samples;
  for (int t = 0; t <= wall_end; ++t) {
    if (!started) {
      started = rng.chance(0.2);
    } else if (rng.chance(0.03)) {
      position = static_cast<int>(rng.uniform_int(0, position + 20));
    } else if (!rng.chance(0.1)) {
      ++position;
    }
    samples.emplace_back(t, position);
  }
  c.ui = ui_from(samples);
  c.session_end = wall_end + rng.uniform(0, 1);
  return c;
}

}  // namespace vodx::testing
