#include "manifest/uri.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/strings.h"

namespace vodx::manifest {
namespace {

/// Reference: always split, drop "." and empty components, apply "..", and
/// rejoin. uri_resolve must return the same string on every input.
std::string reference_resolve(std::string_view base_url,
                              std::string_view reference) {
  const std::string joined =
      !reference.empty() && reference.front() == '/'
          ? std::string(reference)
          : uri_directory(base_url) + std::string(reference);
  std::vector<std::string> parts;
  for (const std::string& part : split(joined, '/')) {
    if (part.empty() || part == ".") continue;
    if (part == "..") {
      if (!parts.empty()) parts.pop_back();
      continue;
    }
    parts.push_back(part);
  }
  std::string out;
  for (const std::string& part : parts) out += "/" + part;
  return out.empty() ? "/" : out;
}

TEST(Uri, DirectoryOfPath) {
  EXPECT_EQ(uri_directory("/a/b/c.m3u8"), "/a/b/");
  EXPECT_EQ(uri_directory("/master.m3u8"), "/");
  EXPECT_EQ(uri_directory("noslash"), "/");
}

TEST(Uri, ResolveRelative) {
  EXPECT_EQ(uri_resolve("/master.m3u8", "video/0/playlist.m3u8"),
            "/video/0/playlist.m3u8");
  EXPECT_EQ(uri_resolve("/video/0/playlist.m3u8", "seg1.ts"),
            "/video/0/seg1.ts");
}

TEST(Uri, ResolveAbsolute) {
  EXPECT_EQ(uri_resolve("/a/b/c.mpd", "/other/media.mp4"), "/other/media.mp4");
}

TEST(Uri, NormalisesDotSegments) {
  EXPECT_EQ(uri_resolve("/a/b/c.mpd", "../x.mp4"), "/a/x.mp4");
  EXPECT_EQ(uri_resolve("/a/b/c.mpd", "./x.mp4"), "/a/b/x.mp4");
  EXPECT_EQ(uri_resolve("/a/c.mpd", "../../x.mp4"), "/x.mp4");
}

TEST(Uri, CollapsesDoubleSlashes) {
  EXPECT_EQ(uri_resolve("/a//b.mpd", "x.mp4"), "/a/x.mp4");
}

TEST(Uri, RootEdgeCases) {
  EXPECT_EQ(uri_resolve("/m.mpd", ".."), "/");
}

TEST(Uri, EveryPathShapeMatchesTheNormalisingReference) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"/m.m3u8", "/v/2/seg7.ts"},  // already normal: returned as is
      {"/v/2/playlist.m3u8", "seg7.ts"},
      {"/m.m3u8", "/a/./b"},
      {"/m.m3u8", "/a/../b"},
      {"/m.m3u8", "/.."},
      {"/m.m3u8", "/."},
      {"/m.m3u8", "/"},
      {"/m.m3u8", "//a"},
      {"/m.m3u8", "/a/"},
      {"/m.m3u8", "/a//b"},
      {"/m.m3u8", "/a/b/.."},
      {"/m.m3u8", "/a/b/."},
      {"/m.m3u8", "/.hidden/..x/x.."},  // dots inside names stay
      {"", "a/b"},
      {"", ""},
      {"/a/m.mpd", ""},
      {"/a/m.mpd", "../../../x.mp4"},  // climbs above the root
      {"/a/b/m.mpd", "../../../../c/./d.mp4"},
      {"/a/b/m.mpd", "./"},
      {"noslash", "x.ts"},
      {"a/b/m.mpd", "x.ts"},  // unrooted base
      {"/a//b/m.mpd", "x.ts"},
  };
  for (const auto& [base, reference] : cases) {
    EXPECT_EQ(uri_resolve(base, reference), reference_resolve(base, reference))
        << "base \"" << base << "\" reference \"" << reference << "\"";
  }
  EXPECT_EQ(uri_resolve("/m.m3u8", "/v/2/seg7.ts"), "/v/2/seg7.ts");
  EXPECT_EQ(uri_resolve("", "a/b"), "/a/b");
  EXPECT_EQ(uri_resolve("/a/m.mpd", "../../../x.mp4"), "/x.mp4");
  EXPECT_EQ(uri_resolve("/m.m3u8", "/a/"), "/a");
  EXPECT_EQ(uri_resolve("/m.m3u8", "//a"), "/a");
}

}  // namespace
}  // namespace vodx::manifest
