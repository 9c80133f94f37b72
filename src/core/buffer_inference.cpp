#include "core/buffer_inference.h"

#include <algorithm>

namespace vodx::core {

namespace {

/// Downloading progress of one ladder as a step function of wall time.
/// ready[k] is the wall time by which indices 0..k have all completed (an
/// index counts once any rendition of it has); it is non-decreasing and ends
/// at the first index that never completed. progress[k] is the duration of
/// indices 0..k-1, summed in index order.
struct ProgressSteps {
  std::vector<Seconds> ready;
  std::vector<Seconds> progress{0};

  /// Number of leading indices complete by `wall`.
  std::size_t complete_by(Seconds wall) const {
    return static_cast<std::size_t>(
        std::upper_bound(ready.begin(), ready.end(), wall) - ready.begin());
  }
};

ProgressSteps progress_steps(const AnalyzedTraffic& traffic,
                             media::ContentType type) {
  ProgressSteps steps;
  const auto& ladder = type == media::ContentType::kVideo
                           ? traffic.video_tracks
                           : traffic.audio_tracks;
  if (ladder.empty()) return steps;
  const std::vector<Seconds>& durations = ladder.front().segment_durations;
  const int segment_count = static_cast<int>(durations.size());

  // completion time per index = earliest completed download of any rendition.
  std::vector<Seconds> completed(static_cast<std::size_t>(segment_count), -1);
  for (const SegmentDownload& d : traffic.downloads) {
    if (d.type != type || d.aborted || d.completed_at < 0) continue;
    if (d.index < 0 || d.index >= segment_count) continue;
    Seconds& slot = completed[static_cast<std::size_t>(d.index)];
    if (slot < 0 || d.completed_at < slot) slot = d.completed_at;
  }

  for (int i = 0; i < segment_count; ++i) {
    const Seconds done = completed[static_cast<std::size_t>(i)];
    if (done < 0) break;  // contiguity ends here
    steps.ready.push_back(i == 0 ? done : std::max(steps.ready.back(), done));
    steps.progress.push_back(steps.progress.back() +
                             durations[static_cast<std::size_t>(i)]);
  }
  return steps;
}

}  // namespace

Seconds download_progress(const AnalyzedTraffic& traffic,
                          media::ContentType type, Seconds wall) {
  const ProgressSteps steps = progress_steps(traffic, type);
  return steps.progress[steps.complete_by(wall)];
}

std::vector<BufferSample> infer_buffer(const AnalyzedTraffic& traffic,
                                       const UiInference& ui,
                                       Seconds session_end, Seconds step) {
  std::vector<BufferSample> out;
  const bool separate_audio = !traffic.audio_tracks.empty();
  const ProgressSteps video =
      progress_steps(traffic, media::ContentType::kVideo);
  const ProgressSteps audio =
      separate_audio ? progress_steps(traffic, media::ContentType::kAudio)
                     : ProgressSteps{};
  // Sample times only grow, so each ladder's complete prefix only grows.
  std::size_t video_done = 0;
  std::size_t audio_done = 0;
  for (Seconds t = 0; t <= session_end + 1e-9; t += step) {
    while (video_done < video.ready.size() && video.ready[video_done] <= t) {
      ++video_done;
    }
    while (audio_done < audio.ready.size() && audio.ready[audio_done] <= t) {
      ++audio_done;
    }
    BufferSample sample;
    sample.wall = t;
    const Seconds position = ui.position_at(t);
    sample.video_buffer =
        std::max(0.0, video.progress[video_done] - position);
    sample.audio_buffer =
        separate_audio
            ? std::max(0.0, audio.progress[audio_done] - position)
            : sample.video_buffer;
    out.push_back(sample);
  }
  return out;
}

}  // namespace vodx::core
