#include "core/buffer_inference.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/session.h"
#include "testing/analysis_cases.h"
#include "testing/fixtures.h"

namespace vodx::core {
namespace {

using vodx::testing::test_spec;

// Reference implementations: every sample rescans every download. The
// library must produce exactly (not approximately) the same numbers.
Seconds reference_download_progress(const AnalyzedTraffic& traffic,
                                    media::ContentType type, Seconds wall) {
  const auto& ladder = type == media::ContentType::kVideo
                           ? traffic.video_tracks
                           : traffic.audio_tracks;
  if (ladder.empty()) return 0;
  const AnalyzedTrack& reference = ladder.front();
  const int segment_count =
      static_cast<int>(reference.segment_durations.size());
  std::vector<Seconds> completed(static_cast<std::size_t>(segment_count), -1);
  for (const SegmentDownload& d : traffic.downloads) {
    if (d.type != type || d.aborted || d.completed_at < 0) continue;
    if (d.index < 0 || d.index >= segment_count) continue;
    Seconds& slot = completed[static_cast<std::size_t>(d.index)];
    if (slot < 0 || d.completed_at < slot) slot = d.completed_at;
  }
  Seconds progress = 0;
  for (int i = 0; i < segment_count; ++i) {
    const Seconds done = completed[static_cast<std::size_t>(i)];
    if (done < 0 || done > wall) break;
    progress += reference.segment_durations[static_cast<std::size_t>(i)];
  }
  return progress;
}

std::vector<BufferSample> reference_infer_buffer(const AnalyzedTraffic& traffic,
                                                 const UiInference& ui,
                                                 Seconds session_end) {
  std::vector<BufferSample> out;
  const bool separate_audio = !traffic.audio_tracks.empty();
  for (Seconds t = 0; t <= session_end + 1e-9; t += 1.0) {
    BufferSample sample;
    sample.wall = t;
    const Seconds position = ui.position_at(t);
    sample.video_buffer = std::max(
        0.0, reference_download_progress(traffic, media::ContentType::kVideo,
                                         t) -
                 position);
    sample.audio_buffer =
        separate_audio
            ? std::max(0.0, reference_download_progress(
                                traffic, media::ContentType::kAudio, t) -
                                position)
            : sample.video_buffer;
    out.push_back(sample);
  }
  return out;
}

void expect_matches_reference(const vodx::testing::AnalysisCase& c) {
  SCOPED_TRACE(c.name);
  const std::vector<BufferSample> want =
      reference_infer_buffer(c.traffic, c.ui, c.session_end);
  const std::vector<BufferSample> got =
      infer_buffer(c.traffic, c.ui, c.session_end);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].wall, want[i].wall) << "sample " << i;
    EXPECT_EQ(got[i].video_buffer, want[i].video_buffer) << "sample " << i;
    EXPECT_EQ(got[i].audio_buffer, want[i].audio_buffer) << "sample " << i;
  }
  // Between the sample points too: every completion instant, and just
  // either side of it.
  std::vector<Seconds> walls = {-1, 0, c.session_end + 5};
  for (const SegmentDownload& d : c.traffic.downloads) {
    walls.insert(walls.end(),
                 {d.completed_at, std::nextafter(d.completed_at, -1e9),
                  std::nextafter(d.completed_at, 1e9)});
  }
  for (const Seconds wall : walls) {
    for (const media::ContentType type :
         {media::ContentType::kVideo, media::ContentType::kAudio}) {
      EXPECT_EQ(download_progress(c.traffic, type, wall),
                reference_download_progress(c.traffic, type, wall))
          << "at " << wall;
    }
  }
}

TEST(BufferInference, HandBuiltCasesMatchTheRescanningReference) {
  for (const vodx::testing::AnalysisCase& c : vodx::testing::analysis_cases()) {
    expect_matches_reference(c);
  }
}

TEST(BufferInference, RandomSessionsMatchTheRescanningReference) {
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    expect_matches_reference(vodx::testing::random_case(seed));
  }
}

TEST(BufferInference, GapThatLaterFillsJumpsProgress) {
  const auto cases = vodx::testing::analysis_cases();
  const auto it = std::find_if(cases.begin(), cases.end(), [](const auto& c) {
    return c.name == "gap_that_later_fills";
  });
  ASSERT_NE(it, cases.end());
  // Indices 0 and 1 by wall 2; index 2 (and with it 3..5) only at 12.5.
  EXPECT_EQ(download_progress(it->traffic, media::ContentType::kVideo, 12),
            8);
  EXPECT_EQ(download_progress(it->traffic, media::ContentType::kVideo, 12.5),
            24);
}

SessionResult steady_session(manifest::Protocol protocol,
                             Bps bandwidth = 4e6) {
  SessionConfig config;
  config.spec = test_spec(protocol);
  config.trace = net::BandwidthTrace::constant(bandwidth, 180);
  config.session_duration = 180;
  config.content_duration = 600;
  return run_session(config);
}

TEST(BufferInference, TracksOscillateBetweenThresholds) {
  SessionResult r = steady_session(manifest::Protocol::kHls);
  // After warmup the inferred video buffer must live in
  // [resuming - slack, pausing + segment + slack].
  for (const BufferSample& s : r.buffer) {
    if (s.wall < 60) continue;
    EXPECT_GE(s.video_buffer, 25 - 8) << "at " << s.wall;
    EXPECT_LE(s.video_buffer, 30 + 4 + 4) << "at " << s.wall;
  }
}

TEST(BufferInference, MatchesGroundTruthDuringSteadyState) {
  SessionResult r = steady_session(manifest::Protocol::kDash);
  // Recompute the true buffer from the player events is not possible after
  // the fact, but the inferred buffer must be consistent with no stalls:
  // it never hits zero after startup.
  ASSERT_TRUE(r.events.stalls.empty());
  for (const BufferSample& s : r.buffer) {
    if (s.wall < 30 || s.wall > 170) continue;
    EXPECT_GT(s.video_buffer, 0) << "at " << s.wall;
  }
}

TEST(BufferInference, AudioTrackedSeparately) {
  SessionResult r = steady_session(manifest::Protocol::kDash);
  bool audio_differs = false;
  for (const BufferSample& s : r.buffer) {
    if (std::abs(s.audio_buffer - s.video_buffer) > 1.0) {
      audio_differs = true;
      break;
    }
  }
  EXPECT_TRUE(audio_differs) << "separate audio pipeline should not shadow "
                                "the video buffer exactly";
}

TEST(BufferInference, MuxedAudioMirrorsVideo) {
  SessionResult r = steady_session(manifest::Protocol::kHls);
  for (const BufferSample& s : r.buffer) {
    EXPECT_DOUBLE_EQ(s.audio_buffer, s.video_buffer);
  }
}

TEST(DownloadProgress, MonotoneNonDecreasing) {
  SessionResult r = steady_session(manifest::Protocol::kHls);
  Seconds previous = 0;
  for (Seconds t = 0; t <= 180; t += 5) {
    Seconds progress =
        download_progress(r.traffic, media::ContentType::kVideo, t);
    EXPECT_GE(progress, previous);
    previous = progress;
  }
}

TEST(DownloadProgress, ZeroBeforeFirstCompletion) {
  SessionResult r = steady_session(manifest::Protocol::kHls);
  EXPECT_DOUBLE_EQ(
      download_progress(r.traffic, media::ContentType::kVideo, 0.0), 0.0);
}

}  // namespace
}  // namespace vodx::core
