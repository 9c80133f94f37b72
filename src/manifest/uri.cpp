#include "manifest/uri.h"

#include <vector>

#include "common/strings.h"

namespace vodx::manifest {

namespace {

/// True when normalising `path` would rebuild it unchanged: it is rooted and
/// has no empty, "." or ".." component (so no "//" and no trailing slash).
bool is_normal(std::string_view path) {
  if (path.empty() || path.front() != '/') return false;
  std::size_t start = 1;
  while (true) {
    const std::size_t slash = path.find('/', start);
    const std::string_view part = path.substr(
        start, slash == std::string_view::npos ? slash : slash - start);
    if (part.empty() || part == "." || part == "..") return false;
    if (slash == std::string_view::npos) return true;
    start = slash + 1;
  }
}

}  // namespace

std::string uri_directory(std::string_view url) {
  std::size_t slash = url.rfind('/');
  if (slash == std::string_view::npos) return "/";
  return std::string(url.substr(0, slash + 1));
}

std::string uri_resolve(std::string_view base_url, std::string_view reference) {
  std::string joined;
  if (!reference.empty() && reference.front() == '/') {
    joined = std::string(reference);
  } else {
    joined = uri_directory(base_url);
    joined += reference;
  }
  if (is_normal(joined)) return joined;
  // Normalise "." and "..".
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

}  // namespace vodx::manifest
