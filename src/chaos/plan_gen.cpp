#include "chaos/plan_gen.h"

#include <iterator>

#include "common/strings.h"

namespace vodx::chaos {

namespace {

/// Stateful splitmix64 stream: the canonical generator whose finalizer the
/// batch/faults layers already use for pure hashing. Stream state is local
/// to one generate_plan call, so plans depend on nothing but the seed.
class Splitmix {
 public:
  explicit Splitmix(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t x = (state_ += 0x9E3779B97F4A7C15ull);
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
  }

  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Uniform in [lo, hi).
  double range(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }

 private:
  std::uint64_t state_;
};

/// URL selectors the generator draws from. "" = every request; "seg"
/// matches media segments across all three protocols' origin layouts;
/// "manifest"/"playlist"/"mpd" target the control plane.
const char* const kUrlSelectors[] = {"", "", "seg", "manifest", "playlist",
                                     "mpd"};

faults::Match draw_match(Splitmix& rng, const GenOptions& options) {
  faults::Match match;
  match.url_contains =
      kUrlSelectors[rng.below(std::size(kUrlSelectors))];
  // Half the matches cover the whole session; the rest get a window that
  // may be arbitrarily short (down to ~1 s) anywhere inside the horizon.
  if (rng.uniform() < 0.5) {
    match.start = rng.range(0, options.horizon * 0.9);
    match.end = match.start + rng.range(1, options.horizon - match.start);
  }
  return match;
}

}  // namespace

faults::FaultPlan generate_plan(std::uint64_t seed,
                                const GenOptions& options) {
  Splitmix rng(seed);
  faults::FaultPlan plan;
  plan.seed = seed;
  plan.name = format("fuzz-%llu", static_cast<unsigned long long>(seed));

  const int count =
      kMinFaults + static_cast<int>(rng.below(kMaxFaults - kMinFaults + 1));
  const std::uint64_t kinds = options.origin_faults ? 7 : 5;
  for (int i = 0; i < count; ++i) {
    switch (rng.below(kinds)) {
      case 0: {
        faults::LatencyFault fault;
        fault.match = draw_match(rng, options);
        fault.base = rng.range(0.05, kMaxLatency * 0.5);
        fault.jitter = rng.range(0, kMaxLatency * 0.5);
        fault.probability =
            rng.range(kMinProbability, kMaxProbability);
        plan.latency.push_back(fault);
        break;
      }
      case 1: {
        faults::ErrorFault fault;
        fault.match = draw_match(rng, options);
        fault.status = rng.uniform() < 0.5 ? 503 : 500;
        fault.probability =
            rng.range(kMinProbability, kMaxProbability * 0.5);
        plan.errors.push_back(fault);
        break;
      }
      case 2: {
        faults::ResetFault fault;
        fault.match = draw_match(rng, options);
        fault.after_fraction = rng.range(0, 1);
        fault.probability =
            rng.range(kMinProbability, kMaxProbability * 0.4);
        plan.resets.push_back(fault);
        break;
      }
      case 3: {
        faults::RejectFault fault;
        fault.match = draw_match(rng, options);
        if (rng.uniform() < 0.5) {
          fault.every_nth = 2 + static_cast<int>(rng.below(9));
        } else {
          fault.probability =
              rng.range(kMinProbability, kMaxProbability * 0.4);
        }
        plan.rejects.push_back(fault);
        break;
      }
      case 4: {
        faults::BlackoutFault fault;
        fault.start = rng.range(0, options.horizon * 0.9);
        fault.duration = rng.range(0.5, kMaxBlackout);
        plan.blackouts.push_back(fault);
        break;
      }
      case 5: {
        faults::CacheFlushFault fault;
        fault.at = rng.range(0, options.horizon);
        plan.cache_flushes.push_back(fault);
        break;
      }
      default: {
        faults::DcBlackoutFault fault;
        fault.start = rng.range(0, options.horizon * 0.9);
        fault.duration = rng.range(0.5, kMaxBlackout);
        plan.dc_blackouts.push_back(fault);
        break;
      }
    }
  }
  return plan;
}

std::string plan_summary(const faults::FaultPlan& plan) {
  std::string out;
  const auto add = [&out](std::size_t n, const char* kind) {
    if (n == 0) return;
    if (!out.empty()) out += ", ";
    out += format("%zu %s", n, kind);
  };
  add(plan.latency.size(), "latency");
  add(plan.errors.size(), "error");
  add(plan.resets.size(), "reset");
  add(plan.rejects.size(), "reject");
  add(plan.blackouts.size(), "blackout");
  add(plan.cache_flushes.size(), "cache-flush");
  add(plan.dc_blackouts.size(), "dc-blackout");
  return out.empty() ? "empty" : out;
}

}  // namespace vodx::chaos
