// Scaling guard for the post-run analysis stages.
//
// infer_buffer and compute_qoe run once per session, on its whole traffic
// log and UI channel. Both are linear in samples + downloads + segments; this
// test feeds them a 24 h session, where an implementation that rescans the
// downloads per sample (infer_buffer) or the downloads and UI samples per
// segment (compute_qoe) takes far longer than the ctest TIMEOUT set in
// tests/CMakeLists.txt, so such a regression fails the suite instead of
// showing up as benchmark noise. The segments are 1 s long so that there are
// as many of them as UI samples: with 4 s segments the per-segment rescans
// alone would stay under the timeout.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/buffer_inference.h"
#include "core/qoe.h"
#include "testing/analysis_cases.h"

namespace vodx::core {
namespace {

using vodx::testing::analyzed_track;
using vodx::testing::segment_download;

constexpr int kDay = 24 * 3600;

/// A day of playback: 1 s video segments on a three-rung ladder, 2 s
/// separate audio, 1 Hz UI samples. Downloads run 30 s ahead of playback;
/// every 25th video segment is fetched a second time at another rung, and
/// playback stalls for 5 s every 20 minutes.
testing::AnalysisCase day_long_session() {
  testing::AnalysisCase c;
  c.name = "24 h";
  const int video_segments = kDay;
  const int audio_segments = kDay / 2;
  for (int level = 0; level < 3; ++level) {
    c.traffic.video_tracks.push_back(analyzed_track(
        media::ContentType::kVideo, level,
        std::vector<Seconds>(static_cast<std::size_t>(video_segments), 1.0)));
  }
  c.traffic.audio_tracks.push_back(analyzed_track(
      media::ContentType::kAudio, 0,
      std::vector<Seconds>(static_cast<std::size_t>(audio_segments), 2.0)));

  for (int index = 0; index < video_segments; ++index) {
    const Seconds due = std::max(2.0, index - 30.0);
    const AnalyzedTrack& rung =
        c.traffic.video_tracks[static_cast<std::size_t>(index % 3)];
    c.traffic.downloads.push_back(
        segment_download(rung, index, due - 1.5, due + 0.25));
    if (index % 25 == 0) {
      c.traffic.downloads.push_back(segment_download(
          c.traffic.video_tracks[static_cast<std::size_t>((index + 1) % 3)],
          index, due + 2, due + 3.5));
    }
    if (index % 2 == 0) {
      c.traffic.downloads.push_back(
          segment_download(c.traffic.audio_tracks.front(), index / 2,
                           due - 1.5, due - 0.5));
    }
  }

  std::vector<std::pair<Seconds, int>> samples;
  int position = 0;
  for (int t = 0; t < kDay; ++t) {
    if (t >= 2 && t % 1200 >= 5) ++position;
    samples.emplace_back(t, position);
  }
  c.ui = testing::ui_from(samples);
  c.session_end = kDay;
  return c;
}

TEST(AnalysisScaling, DayLongSessionIsAnalyzedInLinearTime) {
  const testing::AnalysisCase c = day_long_session();
  ASSERT_EQ(c.ui.samples.size(), static_cast<std::size_t>(kDay));
  ASSERT_GT(c.traffic.downloads.size(), 130000u);

  const std::vector<BufferSample> buffer =
      infer_buffer(c.traffic, c.ui, c.session_end);
  ASSERT_EQ(buffer.size(), static_cast<std::size_t>(kDay) + 1);
  EXPECT_GT(buffer[kDay / 2].video_buffer, 0);
  EXPECT_GT(buffer[kDay / 2].audio_buffer, 0);

  const QoeReport qoe = compute_qoe(c.traffic, c.ui);
  EXPECT_GT(qoe.displayed.size(), static_cast<std::size_t>(kDay - 400));
  EXPECT_GT(qoe.switch_count, 0);
  EXPECT_GT(qoe.wasted_bytes, 0);
}

}  // namespace
}  // namespace vodx::core
