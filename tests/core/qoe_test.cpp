#include "core/qoe.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/session.h"
#include "testing/analysis_cases.h"
#include "testing/fixtures.h"

namespace vodx::core {
namespace {

using vodx::testing::test_spec;

// Reference implementation: for every segment, rescan the UI samples for its
// play time and every download for its renditions. compute_qoe must produce
// exactly (not approximately) the same report.
Seconds reference_wall_when_position_reached(const UiInference& ui,
                                             Seconds position) {
  for (const ProgressSample& s : ui.samples) {
    if (static_cast<Seconds>(s.progress) >= position - 1e-9) return s.wall;
  }
  return -1;
}

QoeReport reference_compute_qoe(const AnalyzedTraffic& traffic,
                                const UiInference& ui,
                                const QoeOptions& options = {}) {
  QoeReport report;
  report.startup_delay = ui.startup_delay;
  report.total_stall = ui.total_stall;
  report.stall_count = static_cast<int>(ui.stalls.size());
  report.total_bytes = traffic.total_payload_bytes;
  for (const SegmentDownload& d : traffic.downloads) {
    report.media_bytes += d.bytes;
  }
  if (traffic.video_tracks.empty()) return report;
  const Seconds final_position =
      ui.samples.empty() ? 0
                         : static_cast<Seconds>(ui.samples.back().progress);
  const AnalyzedTrack& reference = traffic.video_tracks.front();
  const int segment_count =
      static_cast<int>(reference.segment_durations.size());
  std::vector<const SegmentDownload*> winners(
      static_cast<std::size_t>(segment_count), nullptr);
  for (int index = 0; index < segment_count; ++index) {
    const Seconds seg_start = reference.segment_start(index);
    if (seg_start >= final_position - 1e-9) break;
    const Seconds play_wall =
        reference_wall_when_position_reached(ui, seg_start);
    const SegmentDownload* winner = nullptr;
    const SegmentDownload* earliest = nullptr;
    for (const SegmentDownload& d : traffic.downloads) {
      if (d.type != media::ContentType::kVideo || d.index != index ||
          d.aborted || d.completed_at < 0) {
        continue;
      }
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
    winners[static_cast<std::size_t>(index)] = winner;
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
  return report;
}

void expect_same_report(const QoeReport& got, const QoeReport& want) {
  EXPECT_EQ(got.startup_delay, want.startup_delay);
  EXPECT_EQ(got.total_stall, want.total_stall);
  EXPECT_EQ(got.stall_count, want.stall_count);
  EXPECT_EQ(got.average_declared_bitrate, want.average_declared_bitrate);
  EXPECT_EQ(got.displayed_time, want.displayed_time);
  EXPECT_EQ(got.low_quality_fraction, want.low_quality_fraction);
  EXPECT_EQ(got.time_by_height, want.time_by_height);
  EXPECT_EQ(got.switch_count, want.switch_count);
  EXPECT_EQ(got.nonconsecutive_switch_count,
            want.nonconsecutive_switch_count);
  EXPECT_EQ(got.media_bytes, want.media_bytes);
  EXPECT_EQ(got.total_bytes, want.total_bytes);
  EXPECT_EQ(got.wasted_bytes, want.wasted_bytes);
  ASSERT_EQ(got.displayed.size(), want.displayed.size());
  for (std::size_t i = 0; i < want.displayed.size(); ++i) {
    const DisplayedSegment& g = got.displayed[i];
    const DisplayedSegment& w = want.displayed[i];
    EXPECT_EQ(g.index, w.index) << "displayed " << i;
    EXPECT_EQ(g.level, w.level) << "displayed " << i;
    EXPECT_EQ(g.declared_bitrate, w.declared_bitrate) << "displayed " << i;
    EXPECT_EQ(g.resolution, w.resolution) << "displayed " << i;
    EXPECT_EQ(g.seconds_shown, w.seconds_shown) << "displayed " << i;
    EXPECT_EQ(g.play_wall, w.play_wall) << "displayed " << i;
  }
}

TEST(Qoe, HandBuiltCasesMatchTheRescanningReference) {
  for (const vodx::testing::AnalysisCase& c : vodx::testing::analysis_cases()) {
    SCOPED_TRACE(c.name);
    expect_same_report(compute_qoe(c.traffic, c.ui),
                       reference_compute_qoe(c.traffic, c.ui));
  }
}

TEST(Qoe, RandomSessionsMatchTheRescanningReference) {
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    const vodx::testing::AnalysisCase c = vodx::testing::random_case(seed);
    SCOPED_TRACE(c.name);
    expect_same_report(compute_qoe(c.traffic, c.ui),
                       reference_compute_qoe(c.traffic, c.ui));
  }
}

TEST(Qoe, FirstDownloadInOrderWinsATiedCompletion) {
  const auto cases = vodx::testing::analysis_cases();
  const auto it = std::find_if(cases.begin(), cases.end(), [](const auto& c) {
    return c.name == "tied_duplicate_renditions";
  });
  ASSERT_NE(it, cases.end());
  const QoeReport report = compute_qoe(it->traffic, it->ui);
  ASSERT_GE(report.displayed.size(), 3u);
  EXPECT_EQ(report.displayed[1].level, 2);  // listed first of three at 5 s
  EXPECT_EQ(report.displayed[2].level, 1);
}

TEST(Qoe, GroundTruthFromHandBuiltEvents) {
  const media::Resolution p360{640, 360};
  const media::Resolution p480{854, 480};
  const media::Resolution p720{1280, 720};
  player::PlayerEvents events;
  events.session_start = 10;
  events.playback_started = 12;
  events.stalls = {{20, 23}, {50, -1}};  // the second is still open at 60 s
  // {wall, position, index, level, bitrate, resolution, duration}
  events.displayed = {
      {12, 0, 0, 0, 500e3, p360, 4},
      {16, 4, 1, 1, 1e6, p480, 4},
      {20, 8, 2, 3, 3e6, p720, 4},  // seek back to 2 s: never shown
      {25, 2, 0, 3, 3e6, p720, 4},
      {28, 5, 1, 2, 2e6, p720, 2.5},  // last: shown for its own duration
  };
  events.replacements = {{30, 3, 1, 2, 1000}, {40, 4, 0, 2, 2500}};

  AnalyzedTraffic traffic;
  traffic.total_payload_bytes = 100000;
  traffic.downloads.resize(2);
  traffic.downloads[0].bytes = 30000;
  traffic.downloads[1].bytes = 20000;
  traffic.downloads[1].aborted = true;

  const QoeReport report = qoe_from_events(events, traffic, 60);
  EXPECT_EQ(report.startup_delay, 2);
  EXPECT_EQ(report.total_stall, 13);
  EXPECT_EQ(report.stall_count, 2);

  ASSERT_EQ(report.displayed.size(), 4u);
  const int levels[] = {0, 1, 3, 2};
  const Seconds shown[] = {4, 4, 3, 2.5};
  const Seconds walls[] = {12, 16, 25, 28};
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(report.displayed[i].level, levels[i]) << "displayed " << i;
    EXPECT_EQ(report.displayed[i].seconds_shown, shown[i]) << "displayed " << i;
    EXPECT_EQ(report.displayed[i].play_wall, walls[i]) << "displayed " << i;
  }
  EXPECT_EQ(report.displayed_time, 13.5);
  EXPECT_EQ(report.average_declared_bitrate, 20e6 / 13.5);
  const std::map<int, Seconds> by_height = {{360, 4}, {480, 4}, {720, 5.5}};
  EXPECT_EQ(report.time_by_height, by_height);
  EXPECT_EQ(report.low_quality_fraction, 8 / 13.5);
  EXPECT_EQ(report.switch_count, 3);                 // 0->1, 1->3, 3->2
  EXPECT_EQ(report.nonconsecutive_switch_count, 1);  // 1->3

  EXPECT_EQ(report.wasted_bytes, 3500);  // replacements only, not aborts
  EXPECT_EQ(report.media_bytes, 50000);  // aborted transfers included
  EXPECT_EQ(report.total_bytes, 100000);
}

SessionResult run_qoe_session(Bps bandwidth, Seconds duration = 180,
                              manifest::Protocol protocol =
                                  manifest::Protocol::kHls) {
  SessionConfig config;
  config.spec = test_spec(protocol);
  config.trace = net::BandwidthTrace::constant(bandwidth, duration);
  config.session_duration = duration;
  config.content_duration = 600;
  return run_session(config);
}

TEST(Qoe, InferredMatchesGroundTruthBitrate) {
  SessionResult r = run_qoe_session(4e6);
  EXPECT_GT(r.qoe.average_declared_bitrate, 0);
  EXPECT_NEAR(r.qoe.average_declared_bitrate,
              r.ground_truth.average_declared_bitrate,
              0.05 * r.ground_truth.average_declared_bitrate);
}

TEST(Qoe, InferredStartupWithinASecond) {
  SessionResult r = run_qoe_session(4e6);
  EXPECT_NEAR(r.qoe.startup_delay, r.ground_truth.startup_delay, 1.5);
}

TEST(Qoe, SwitchCountsMatchGroundTruth) {
  SessionResult r = run_qoe_session(4e6);
  EXPECT_NEAR(r.qoe.switch_count, r.ground_truth.switch_count, 2);
}

TEST(Qoe, HigherBandwidthGivesHigherBitrate) {
  SessionResult slow = run_qoe_session(1e6);
  SessionResult fast = run_qoe_session(6e6);
  EXPECT_GT(fast.qoe.average_declared_bitrate,
            slow.qoe.average_declared_bitrate);
}

TEST(Qoe, LowQualityFractionTracksBandwidth) {
  SessionResult slow = run_qoe_session(0.8e6);
  SessionResult fast = run_qoe_session(6e6);
  EXPECT_GT(slow.qoe.low_quality_fraction, 0.8);
  EXPECT_LT(fast.qoe.low_quality_fraction, 0.4);
}

TEST(Qoe, TimeByHeightSumsToDisplayedTime) {
  SessionResult r = run_qoe_session(3e6);
  Seconds sum = 0;
  for (const auto& [height, secs] : r.qoe.time_by_height) sum += secs;
  EXPECT_NEAR(sum, r.qoe.displayed_time, 1e-6);
}

TEST(Qoe, FractionAtOrBelowIsMonotone) {
  SessionResult r = run_qoe_session(2e6);
  double previous = 0;
  for (int height : {240, 360, 480, 720, 1080}) {
    const double fraction = r.qoe.fraction_at_or_below(height);
    EXPECT_GE(fraction, previous);
    previous = fraction;
  }
  EXPECT_NEAR(previous, 1.0, 1e-9);
}

TEST(Qoe, NoWasteWithoutSrOrStalls) {
  SessionResult r = run_qoe_session(4e6);
  EXPECT_EQ(r.qoe.wasted_bytes, 0);
}

TEST(Qoe, StallTimeMatchesGroundTruth) {
  SessionConfig config;
  config.spec = test_spec(manifest::Protocol::kHls);
  config.trace = net::BandwidthTrace::from_samples(
      {{0, 4e6}, {30, 60e3}, {70, 4e6}}, 200);
  config.session_duration = 200;
  config.content_duration = 600;
  SessionResult r = run_session(config);
  ASSERT_GT(r.ground_truth.total_stall, 3);
  EXPECT_NEAR(r.qoe.total_stall, r.ground_truth.total_stall,
              0.2 * r.ground_truth.total_stall + 2);
}

TEST(Qoe, MediaBytesBelowTotalBytes) {
  SessionResult r = run_qoe_session(4e6);
  EXPECT_GT(r.qoe.media_bytes, 0);
  EXPECT_LT(r.qoe.media_bytes, r.qoe.total_bytes);
}

}  // namespace
}  // namespace vodx::core
