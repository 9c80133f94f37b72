// Sweep-level root-cause rollups.
//
// diagnose_sweep() runs a sweep with per-cell tracing enabled and folds each
// cell's Diagnosis into per-service / per-profile / per-fault root-cause
// tables. Each cell is diagnosed on its worker by the sweep engine's observe
// hook, right after its session, so its trace ring is freed when the cell
// ends; the per-cell diagnoses are folded in grid order on one thread after
// the sweep returns — so the rendered tables are byte-identical at `--jobs 1`
// and `--jobs N`, inheriting the sweep determinism contract (DESIGN.md §8,
// §12).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "batch/grouping.h"
#include "batch/sweep.h"
#include "diag/diagnose.h"

namespace vodx::diag {

/// Root-cause totals accumulated over one rollup key (a service, a profile,
/// a fault scenario, or "overall").
struct DiagRollup {
  std::string key;
  int cells = 0;

  Seconds problem_s = 0;  ///< startup + stall wall time
  Seconds stall_s = 0;
  Seconds startup_s = 0;
  double blamed_s[kCauseCount] = {};
  double stall_blamed_s[kCauseCount] = {};
  /// Sum of confidence × blamed seconds per cause (for weighted means).
  double conf_weight[kCauseCount] = {};
  std::uint64_t trace_dropped = 0;

  void fold(const Diagnosis& diagnosis);
  /// Adds another rollup's totals (key unchanged).
  void merge_from(const DiagRollup& other);
  /// Share of problem time charged to a non-unknown cause (1 when idle).
  double attributed_fraction() const;
  /// Same, restricted to stall time — the acceptance-gated number.
  double stall_attributed_fraction() const;
  /// Time-weighted mean confidence over all non-unknown blame.
  double mean_confidence() const;
};

/// overall + by_service / by_profile / by_fault (batch/grouping.h).
struct SweepDiagnosis : batch::Grouped<DiagRollup> {
  SweepDiagnosis() = default;

  int total_cells = 0;  ///< every cell of the grid
  int failed = 0;  ///< cells that produced no diagnosis (session failed)
};

/// The one way a sweep's root-cause rollups are built (diagnose_sweep,
/// `vodx report --diag`): install() sets the config's observe hook, which
/// diagnoses each finished cell on its worker (reconstructing its FaultPlan
/// from its coordinates) into a slot owned by the cell's grid index; fold()
/// then folds those diagnoses in grid order on the calling thread.
class SweepDiagnoser {
 public:
  SweepDiagnoser() = default;
  // The installed hook holds `this`.
  SweepDiagnoser(const SweepDiagnoser&) = delete;
  SweepDiagnoser& operator=(const SweepDiagnoser&) = delete;

  /// Replaces `config.observe`. Call once the grid's axes are final; the
  /// diagnoser must outlive the sweep run with `config`.
  void install(batch::SweepConfig& config);

  /// Folds the sweep's per-cell diagnoses in grid order. Every cell counts
  /// in total_cells; failed and quarantined ones count in failed and add no
  /// diagnosis.
  SweepDiagnosis fold(const batch::SweepResult& result) const;

 private:
  std::vector<std::optional<Diagnosis>> cells_;  ///< by grid index
};

/// Runs the grid through a SweepDiagnoser and diagnoses every successful
/// cell. The config's observe hook is replaced; each cell's FaultPlan
/// is reconstructed from its coordinates exactly as the sweep engine built
/// it, so blackout windows are available as evidence.
SweepDiagnosis diagnose_sweep(batch::SweepConfig config);

/// Per-dimension root-cause tables (text). Byte-stable across job counts.
std::string diag_text(const SweepDiagnosis& diagnosis);

/// One JSON object per rollup key, grid order, byte-stable.
std::string diag_jsonl(const SweepDiagnosis& diagnosis);

/// Body fragment (h2 + tables) for embedding into the sweep HTML report.
std::string diag_html_section(const SweepDiagnosis& diagnosis);

/// Standalone HTML page wrapping diag_html_section.
std::string diag_html(const SweepDiagnosis& diagnosis);

}  // namespace vodx::diag
