// Post-hoc root-cause attribution for one finished session.
//
// The engine walks a session's obs event trace together with its
// SessionResult and partitions every problem interval — each ground-truth
// stall, plus the startup delay — into contiguous blame spans drawn from
// the Cause taxonomy. Attribution is purely a function of its inputs (no
// clocks, no RNG), so diagnosing the same session twice, on any thread,
// yields byte-identical output; sweep rollups inherit the jobs-N
// determinism of the sweep engine.
//
// Evidence sources (DESIGN.md §12 documents the full algorithm):
//   * fault.* instants + FaultPlan blackout windows  -> fault.injected
//   * tcp.idle_restart / re-paid tcp.handshake       -> tcp.slow_start_restart
//   * tcp.transfer wait_s marker (first-byte wait)   -> origin.latency
//   * link.capacity_mbps counters vs rung bitrates   -> link.deficit /
//                                                       abr.overestimate
//   * tcp.transfer sender/link-limited split         -> server.pacing
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/units.h"
#include "core/session.h"
#include "diag/cause.h"
#include "faults/fault_plan.h"
#include "obs/observer.h"

namespace vodx::diag {

/// How long a fired fault keeps explaining problem time after its event.
/// The validation harness (validate.h) builds its truth windows from the
/// same value, so blame and ground truth agree on what "near" means.
inline constexpr Seconds kFaultInfluence = 8.0;

/// One contiguous slice of a problem interval charged to a single cause.
struct BlameSpan {
  Seconds start = 0;
  Seconds end = 0;
  Cause cause = Cause::kUnknown;
  double confidence = 0;  ///< 0..1, evidence strength
  std::string note;       ///< human-readable evidence summary
  Seconds duration() const { return end - start; }
};

/// A fully partitioned problem interval: spans tile [start, end) gaplessly.
struct IntervalDiagnosis {
  bool startup = false;  ///< true for the startup-delay interval
  Seconds start = 0;
  Seconds end = 0;
  std::vector<BlameSpan> spans;

  Seconds duration() const { return end - start; }
  Seconds blamed(Cause cause) const;
  /// Cause with the largest blamed time (priority order breaks ties).
  Cause dominant() const;
};

struct Diagnosis {
  std::vector<IntervalDiagnosis> intervals;  ///< startup first, stalls after

  double blamed_s[kCauseCount] = {};        ///< startup + stalls
  double stall_blamed_s[kCauseCount] = {};  ///< stalls only
  /// Time-weighted mean confidence per cause (0 when the cause is unused).
  double confidence[kCauseCount] = {};
  /// Ring drops at diagnosis time: > 0 means evidence may be missing.
  std::uint64_t trace_dropped = 0;

  Seconds problem_s() const;  ///< startup + stall wall time
  Seconds stall_s() const;
  /// Share of problem time charged to a non-unknown cause (1 when there is
  /// no problem time at all).
  double attributed_fraction() const;
  /// Same, restricted to stall intervals — the acceptance-gated number.
  double stall_attributed_fraction() const;
};

/// Diagnoses a finished session from its retained trace window. `events`
/// must be in emission order (TraceSink::snapshot() shape). `plan` supplies
/// blackout windows; fired faults are read from the trace itself.
Diagnosis diagnose(const core::SessionResult& result,
                   const std::vector<obs::Event>& events,
                   const std::optional<faults::FaultPlan>& plan = {});

/// Convenience: snapshots the observer's ring and records its drop count.
Diagnosis diagnose(const core::SessionResult& result,
                   const obs::Observer& observer,
                   const std::optional<faults::FaultPlan>& plan = {});

/// Per-interval blame table plus per-cause totals, for the single-session
/// `vodx diagnose <service>` view. Byte-stable.
std::string diagnosis_text(const Diagnosis& diagnosis);

}  // namespace vodx::diag
