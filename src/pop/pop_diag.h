// Root-cause attribution folded to population scale.
//
// vodx::diag diagnoses one finished session from its event trace; this
// module runs it across a population run's sessions and folds the result
// into mergeable per-tower rollups. Two population-specific wrinkles:
//
//   * Per-session observers on a shared tower link never see the link's
//     capacity counters (the link has one observer, the sessions have
//     their own), so the capacity evidence diag needs is synthesised from
//     the tower timeline instead: each bin's trace capacity divided by its
//     concurrent-session count is that bin's max-min fair share, emitted as
//     the same "link.capacity_mbps" counter events the single-session
//     stack produces and merged time-sorted into each session's trace.
//   * Diagnosed sessions need the full finish() analysis (finish_light
//     leaves result.traffic empty, which would blind the deficit/ABR
//     rules), so diagnosis is bounded by a per-tower session budget.
//
// TowerDiag is diag's sweep rollup plus a budget count, and a mergeable
// value type with the MetricsSnapshot contract: merge_from is
// associative/commutative with the default-constructed value as identity,
// so folding per-tower rollups post-join in tower order is byte-identical
// at any --jobs.
#pragma once

#include <vector>

#include "core/session.h"
#include "diag/diagnose.h"
#include "diag/rollup.h"
#include "obs/observer.h"
#include "obs/timeline.h"

namespace vodx::pop {

/// Per-tower (and, merged, per-population) attribution rollup. Sessions
/// fold in with DiagRollup::fold, so `cells` counts diagnosed sessions.
struct TowerDiag : diag::DiagRollup {
  /// Sessions the per-tower budget left undiagnosed.
  int sessions_skipped = 0;

  void merge_from(const TowerDiag& other);
};

/// Synthesises per-bin fair-share capacity counters from a tower timeline:
/// one kLink/kCounter "link.capacity_mbps" event per bin at the bin start,
/// value = bin capacity (Mbps) / max(1, concurrent sessions in the bin).
/// Empty when the timeline lacks the capacity or concurrent series.
std::vector<obs::Event> fair_share_capacity_events(
    const obs::Timeline& timeline);

/// Diagnoses one finished session: merges `capacity_events` (time-sorted)
/// into the observer's retained trace — capacity first at equal stamps, so
/// a bin's share is in force before anything that happens inside it — and
/// runs diag::diagnose over the combined evidence.
diag::Diagnosis diagnose_session(
    const core::SessionResult& result, const obs::Observer& observer,
    const std::vector<obs::Event>& capacity_events);

/// Spreads every blame span over the timeline's blame_* series by overlap:
/// each bin gains the seconds of the span that fall inside it.
void fold_blame_bins(obs::Timeline& timeline,
                     const diag::Diagnosis& diagnosis);

}  // namespace vodx::pop
