// Builds the server-side content (encoded asset + origin) for a service.
//
// A built origin is immutable (OriginServer::handle is const and proxies
// hold it by const pointer), so one build can serve every session that
// streams the same title. ContentKey names a title by every input the build
// reads; ContentCache shares one build per key for as long as some holder
// keeps it (DESIGN.md §14).
#pragma once

#include <compare>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "http/origin_server.h"
#include "media/video_asset.h"
#include "services/service_catalog.h"

namespace vodx::services {

/// Every input the content build reads, and nothing else: equal keys build
/// byte-identical content, so a key can stand for a built title.
struct ContentKey {
  ContentKey(const ServiceSpec& spec, Seconds content_duration,
             std::uint64_t seed);

  std::string name;
  std::vector<Bps> video_ladder;
  Seconds segment_duration = 0;
  media::EncoderConfig encoder;
  bool separate_audio = false;
  Bps audio_bitrate = 0;
  Seconds audio_segment_duration = 0;
  http::OriginConfig origin;
  Seconds content_duration = 0;
  std::uint64_t seed = 0;

  auto operator<=>(const ContentKey&) const = default;
};

/// Encodes the key's asset: the video ladder at the key's segment duration
/// and encoding, plus an audio track when the service separates audio.
/// Deterministic in the key.
media::VideoAsset make_asset(const ContentKey& key);
/// Asset + origin in one step.
http::OriginServer make_origin(const ContentKey& key);
/// The same build, in the form sessions hold it.
std::shared_ptr<const http::OriginServer> make_shared_origin(
    const ContentKey& key);

/// Convenience: the same builds keyed by ContentKey(spec, duration, seed).
media::VideoAsset make_asset(const ServiceSpec& spec, Seconds content_duration,
                             std::uint64_t seed);
http::OriginServer make_origin(const ServiceSpec& spec,
                               Seconds content_duration, std::uint64_t seed);

/// Run-scoped, thread-safe share of built origins. Entries are held weakly:
/// a title lives exactly as long as some caller holds the pointer get()
/// returned, and a later get() for an expired key builds it again.
/// Concurrent get()s for one key build it once; the others wait for it.
class ContentCache {
 public:
  std::shared_ptr<const http::OriginServer> get(const ContentKey& key);

  /// Builds made so far (one per miss).
  std::int64_t builds() const;

 private:
  struct Entry {
    std::weak_ptr<const http::OriginServer> content;
    bool building = false;
  };

  mutable std::mutex mutex_;
  std::condition_variable built_;
  std::map<ContentKey, Entry> entries_;
  std::int64_t builds_ = 0;
};

}  // namespace vodx::services
