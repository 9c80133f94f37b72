// ContentKey / ContentCache: one build per distinct title, every build input
// in the key, weak lifetime, concurrent gets, and sessions on shared content
// matching self-built ones. scripts/check.sh --tsan runs this suite.
#include "services/content_factory.h"

#include <gtest/gtest.h>

#include <functional>
#include <thread>
#include <vector>

#include "core/session_factory.h"

namespace vodx::services {
namespace {

constexpr Seconds kDuration = 60;

TEST(ContentCache, SameKeyReturnsSamePointer) {
  ContentCache cache;
  const ContentKey key(service("D2"), kDuration, 7);
  const auto first = cache.get(key);
  const auto second = cache.get(ContentKey(service("D2"), kDuration, 7));
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.builds(), 1);
  // The shared build is the one make_origin produces for the same inputs.
  const http::OriginServer direct = make_origin(service("D2"), kDuration, 7);
  EXPECT_EQ(first->manifest_url(), direct.manifest_url());
  const http::Request get{http::Method::kGet, direct.manifest_url(),
                          std::nullopt};
  EXPECT_EQ(first->handle(get).body, direct.handle(get).body);
}

TEST(ContentCache, EachKeyInputGivesDistinctBuild) {
  // D2 separates audio, so every audio input reaches the build.
  const ServiceSpec base = service("D2");
  using Edit = std::function<void(ServiceSpec&, Seconds&, std::uint64_t&)>;
  const std::vector<std::pair<const char*, Edit>> edits = {
      {"name", [](ServiceSpec& s, Seconds&, std::uint64_t&) { s.name += "x"; }},
      {"video_ladder",
       [](ServiceSpec& s, Seconds&, std::uint64_t&) {
         s.video_ladder.back() *= 1.1;
       }},
      {"segment_duration",
       [](ServiceSpec& s, Seconds&, std::uint64_t&) {
         s.segment_duration += 1;
       }},
      {"encoder_config",
       [](ServiceSpec& s, Seconds&, std::uint64_t&) {
         s.peak_to_average += 0.5;
       }},
      {"separate_audio",
       [](ServiceSpec& s, Seconds&, std::uint64_t&) {
         s.separate_audio = false;
       }},
      {"audio_bitrate",
       [](ServiceSpec& s, Seconds&, std::uint64_t&) {
         s.audio_bitrate *= 2;
       }},
      {"audio_segment_duration",
       [](ServiceSpec& s, Seconds&, std::uint64_t&) {
         s.audio_segment_duration += 1;
       }},
      {"origin_config",
       [](ServiceSpec& s, Seconds&, std::uint64_t&) {
         s.encrypt_manifest = !s.encrypt_manifest;
       }},
      {"content_duration",
       [](ServiceSpec&, Seconds& d, std::uint64_t&) { d += 10; }},
      {"seed", [](ServiceSpec&, Seconds&, std::uint64_t& seed) { ++seed; }},
  };

  ContentCache cache;
  const auto reference = cache.get(ContentKey(base, kDuration, 7));
  std::vector<std::shared_ptr<const http::OriginServer>> held = {reference};
  for (const auto& [input, edit] : edits) {
    ServiceSpec spec = base;
    Seconds duration = kDuration;
    std::uint64_t seed = 7;
    edit(spec, duration, seed);
    const ContentKey key(spec, duration, seed);
    EXPECT_NE(key, ContentKey(base, kDuration, 7)) << input;
    const std::int64_t before = cache.builds();
    held.push_back(cache.get(key));
    EXPECT_EQ(cache.builds(), before + 1) << input;
    EXPECT_NE(held.back().get(), reference.get()) << input;
  }
  // The base title was held throughout, so it was never rebuilt.
  EXPECT_EQ(cache.get(ContentKey(base, kDuration, 7)).get(), reference.get());
  EXPECT_EQ(cache.builds(), static_cast<std::int64_t>(edits.size()) + 1);
}

TEST(ContentCache, EntryExpiresWithLastHolder) {
  ContentCache cache;
  const ContentKey key(service("H1"), kDuration, 3);
  auto first = cache.get(key);
  auto second = cache.get(key);
  const std::weak_ptr<const http::OriginServer> watch = first;
  first.reset();
  EXPECT_FALSE(watch.expired()) << "a remaining holder keeps the title";
  EXPECT_EQ(cache.get(key).get(), second.get());
  second.reset();
  EXPECT_TRUE(watch.expired()) << "the cache itself holds no title";
  const auto rebuilt = cache.get(key);
  EXPECT_EQ(cache.builds(), 2);
  EXPECT_EQ(rebuilt->asset().name(), "H1-asset");
}

TEST(ContentCache, ConcurrentGetsBuildOnce) {
  ContentCache cache;
  const ContentKey key(service("S1"), kDuration, 5);
  constexpr int kThreads = 6;
  std::vector<std::shared_ptr<const http::OriginServer>> got(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] { got[i] = cache.get(key); });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(cache.builds(), 1);
  for (const auto& content : got) EXPECT_EQ(content.get(), got[0].get());
}

TEST(ContentCache, SharedContentSessionMatchesSelfBuilt) {
  // A session on cache-built content reproduces, field for field, the same
  // session building its own origin.
  core::SessionFactory factory;
  factory.session_duration = 120;
  factory.content_duration = 120;
  const core::SessionConfig own =
      factory.config("D2", 7, /*trace_seed=*/2017, /*content_seed=*/42);
  ContentCache cache;
  core::SessionConfig shared = own;
  shared.content = cache.get(
      ContentKey(shared.spec, shared.content_duration, shared.content_seed));

  auto run = [](const core::SessionConfig& config) {
    net::Simulator sim(config.tick);
    sim.set_core(config.sim_core);
    net::Link link(sim, config.trace, config.rtt);
    core::HostedSession session(sim, link, config);
    session.start();
    sim.run_until(config.session_duration);
    return session.finish(sim.now());
  };
  const core::SessionResult expected = run(own);
  const core::SessionResult actual = run(shared);
  // A second session on the same build is unaffected by the first.
  const core::SessionResult again = run(shared);

  for (const core::SessionResult* r : {&actual, &again}) {
    EXPECT_EQ(r->final_state, expected.final_state);
    EXPECT_DOUBLE_EQ(r->final_position, expected.final_position);
    EXPECT_DOUBLE_EQ(r->ground_truth.startup_delay,
                     expected.ground_truth.startup_delay);
    EXPECT_DOUBLE_EQ(r->ground_truth.total_stall,
                     expected.ground_truth.total_stall);
    EXPECT_EQ(r->ground_truth.total_bytes, expected.ground_truth.total_bytes);
    EXPECT_DOUBLE_EQ(r->qoe.startup_delay, expected.qoe.startup_delay);
    EXPECT_DOUBLE_EQ(r->qoe.average_declared_bitrate,
                     expected.qoe.average_declared_bitrate);
    EXPECT_EQ(r->qoe.switch_count, expected.qoe.switch_count);
    EXPECT_EQ(r->traffic.downloads.size(), expected.traffic.downloads.size());
    EXPECT_EQ(r->events.displayed.size(), expected.events.displayed.size());
    EXPECT_EQ(r->events.stalls.size(), expected.events.stalls.size());
  }
  EXPECT_EQ(cache.builds(), 1);
}

}  // namespace
}  // namespace vodx::services
