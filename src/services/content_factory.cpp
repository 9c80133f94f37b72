#include "services/content_factory.h"

#include "common/rng.h"
#include "media/encoder.h"
#include "media/scene.h"

namespace vodx::services {

ContentKey::ContentKey(const ServiceSpec& spec, Seconds content_duration,
                       std::uint64_t seed)
    : name(spec.name),
      video_ladder(spec.video_ladder),
      segment_duration(spec.segment_duration),
      encoder(spec.encoder_config()),
      separate_audio(spec.separate_audio),
      audio_bitrate(spec.audio_bitrate),
      audio_segment_duration(spec.audio_segment_duration),
      origin(spec.origin_config()),
      content_duration(content_duration),
      seed(seed) {}

media::VideoAsset make_asset(const ContentKey& key) {
  Rng rng(key.seed);
  Rng scene_rng = rng.fork(1);
  Rng video_rng = rng.fork(2);
  Rng audio_rng = rng.fork(3);

  const media::SceneComplexity scenes =
      media::SceneComplexity::generate(key.content_duration, scene_rng);
  std::vector<media::Track> video = media::encode_video_ladder(
      key.video_ladder, key.content_duration, key.segment_duration,
      key.encoder, scenes, video_rng);

  std::vector<media::Track> audio;
  if (key.separate_audio) {
    audio.push_back(media::encode_audio_track(key.audio_bitrate,
                                              key.content_duration,
                                              key.audio_segment_duration,
                                              audio_rng));
  }
  return media::VideoAsset(key.name + "-asset", std::move(video),
                           std::move(audio));
}

http::OriginServer make_origin(const ContentKey& key) {
  return http::OriginServer(make_asset(key), key.origin);
}

std::shared_ptr<const http::OriginServer> make_shared_origin(
    const ContentKey& key) {
  return std::make_shared<const http::OriginServer>(make_origin(key));
}

media::VideoAsset make_asset(const ServiceSpec& spec, Seconds content_duration,
                             std::uint64_t seed) {
  return make_asset(ContentKey(spec, content_duration, seed));
}

http::OriginServer make_origin(const ServiceSpec& spec,
                               Seconds content_duration, std::uint64_t seed) {
  return make_origin(ContentKey(spec, content_duration, seed));
}

std::shared_ptr<const http::OriginServer> ContentCache::get(
    const ContentKey& key) {
  std::unique_lock<std::mutex> lock(mutex_);
  const Entry* entry = nullptr;
  built_.wait(lock, [&] {
    const auto it = entries_.find(key);
    entry = it == entries_.end() ? nullptr : &it->second;
    return entry == nullptr || !entry->building;
  });
  if (entry != nullptr) {
    if (auto content = entry->content.lock()) return content;
  }

  // A miss: forget every title nobody holds any more, then claim this key
  // so concurrent callers wait for this build instead of repeating it. The
  // build itself runs unlocked.
  std::erase_if(entries_, [](const auto& item) {
    return !item.second.building && item.second.content.expired();
  });
  entries_[key].building = true;
  lock.unlock();
  std::shared_ptr<const http::OriginServer> content;
  try {
    content = make_shared_origin(key);
  } catch (...) {
    lock.lock();
    entries_.erase(key);
    built_.notify_all();
    throw;
  }
  lock.lock();
  Entry& claimed = entries_.at(key);
  claimed.content = content;
  claimed.building = false;
  ++builds_;
  built_.notify_all();
  return content;
}

std::int64_t ContentCache::builds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return builds_;
}

}  // namespace vodx::services
