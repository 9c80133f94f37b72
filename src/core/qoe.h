// QoE metrics (§2.2).
//
// The four metric families the paper tracks — video quality (average
// declared bitrate and time spent on low tracks), track switches, stall
// duration, startup delay — plus the data-usage accounting the SR analysis
// needs. compute_qoe() derives everything from the methodology's two
// observation channels (traffic + UI); nothing reads player internals, so
// the same code evaluates any service. qoe_from_events() is its validation
// reference: the same summary built from the player's own events.
#pragma once

#include <map>
#include <vector>

#include "common/units.h"
#include "core/traffic_analyzer.h"
#include "core/ui_monitor.h"
#include "player/player.h"

namespace vodx::core {

struct DisplayedSegment {
  int index = 0;
  int level = 0;
  Bps declared_bitrate = 0;
  media::Resolution resolution;
  Seconds seconds_shown = 0;
  Seconds play_wall = 0;  ///< when it started rendering (inferred)
};

struct QoeOptions {
  /// "Low quality" threshold: displayed height <= this counts as low.
  int low_quality_max_height = 480;
};

struct QoeReport {
  Seconds startup_delay = -1;
  Seconds total_stall = 0;
  int stall_count = 0;

  Bps average_declared_bitrate = 0;
  Seconds displayed_time = 0;
  double low_quality_fraction = 0;
  std::map<int, Seconds> time_by_height;  ///< height -> displayed seconds

  int switch_count = 0;
  int nonconsecutive_switch_count = 0;

  Bytes media_bytes = 0;   ///< media payload received (aborted included)
  Bytes total_bytes = 0;   ///< everything, manifests included
  Bytes wasted_bytes = 0;  ///< downloads that never rendered

  std::vector<DisplayedSegment> displayed;

  /// Fraction of displayed time at or below `height`.
  double fraction_at_or_below(int height) const;
};

QoeReport compute_qoe(const AnalyzedTraffic& traffic, const UiInference& ui,
                      const QoeOptions& options = {});

/// Ground-truth QoE computed from player events + the wire log.
QoeReport qoe_from_events(const player::PlayerEvents& events,
                          const AnalyzedTraffic& traffic, Seconds session_end,
                          const QoeOptions& options = {});

/// Scalar QoE score following the subjective-study shape the paper cites
/// ([35], Liu et al.): bitrate utility is *concave* — going from 300 kbps to
/// 600 kbps helps far more than 3 Mbps to 3.3 Mbps — while stalls, startup
/// delay and track switches subtract linearly. Unitless; only comparisons
/// between sessions of the same content are meaningful.
struct QoeScoreWeights {
  Bps reference_bitrate = 300e3;  ///< utility zero-point
  double stall_penalty = 6.0;     ///< per fraction of session stalled
  double startup_penalty = 0.05;  ///< per second of startup delay
  double switch_penalty = 0.03;   ///< per switch per displayed minute
};

double qoe_score(const QoeReport& report, Seconds session_length,
                 const QoeScoreWeights& weights = {});

}  // namespace vodx::core
