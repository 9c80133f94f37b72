// The observability context handed through the stack.
//
// One Observer per session bundles the event trace and the metrics registry.
// Every instrumented layer (simulator, link, TCP, HTTP client, player,
// session runner) holds a nullable Observer*; a null observer means
// observability is compiled in but fully off — the only cost on any hot path
// is one pointer test (see trace_on below).
#pragma once

#include "obs/metrics.h"
#include "obs/trace_sink.h"

namespace vodx::obs {

struct Observer {
  explicit Observer(std::size_t trace_capacity = 1 << 16)
      : trace(trace_capacity) {}

  TraceSink trace;
  MetricsRegistry metrics;
};

/// The guard every emission site uses. Inline and branch-predictable: null
/// observer (the default) or a masked category costs a test-and-branch,
/// and no event fields are constructed.
inline bool trace_on(const Observer* observer, Category category) {
  return observer != nullptr && observer->trace.enabled(category);
}

}  // namespace vodx::obs
