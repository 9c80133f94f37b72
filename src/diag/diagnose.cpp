#include "diag/diagnose.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"
#include "common/table.h"

namespace vodx::diag {

namespace {

// --- Attribution constants (DESIGN.md §12) ---------------------------------

/// RTT that sizes the restart ramp and separates injected server latency
/// from protocol round trips: the SessionConfig default, which every sweep
/// cell and population tower runs on.
constexpr Seconds kRtt = 0.07;
/// The cwnd re-ramp window charged to a slow-start restart: 24 RTTs.
constexpr Seconds kRestartRamp = 24 * kRtt;
/// Capacity must cover bitrate * headroom before a rung counts as
/// sustainable (protocol + container overhead allowance).
constexpr double kDeficitHeadroom = 1.05;
/// Pre-interval window searched for evidence when a problem interval opens
/// with no instantaneous evidence (the drain that caused a stall happens
/// before the stall).
constexpr Seconds kLookback = 4.0;
/// Confidence multiplier for spans filled by carry-forward / lookback
/// rather than instantaneous evidence.
constexpr double kCarryPenalty = 0.75;
/// Sender-limited fraction of a transfer's streaming time above which the
/// transfer counts as server-paced.
constexpr double kPacingFraction = 0.5;

// --- Evidence model --------------------------------------------------------
//
// Every trace-derived clue becomes a time span carrying the cause it argues
// for; capacity comparisons stay as piecewise-constant timelines evaluated
// per slice. An instant inside a problem interval is charged to the
// highest-priority active clue (Cause enum order).

struct Evidence {
  Seconds start = 0;
  Seconds end = 0;
  Cause cause = Cause::kUnknown;
  double confidence = 0;
  std::string note;
};

struct Step {
  Seconds time = 0;
  double value = 0;
};

double step_value_at(const std::vector<Step>& steps, Seconds t,
                     double before_first) {
  double v = before_first;
  for (const Step& step : steps) {
    if (step.time > t) break;
    v = step.value;
  }
  return v;
}

struct TransferSpan {
  Seconds begin_t = 0;
  Seconds end_t = 0;
  double wait_s = -1;
  double extra_wait_s = 0;
  bool restart = false;
  double sender_limited_s = 0;
  double link_limited_s = 0;
  bool closed = false;  ///< an end event was seen
};

/// Everything the classifier consults, parsed once per session.
struct EvidenceIndex {
  std::vector<Evidence> spans;       ///< fault / restart / wait / pacing
  std::vector<Step> capacity_mbps;   ///< link.capacity_mbps counter
  std::vector<Step> fetch_rate_bps;  ///< rung being fetched (video)
  double min_rate_bps = 0;           ///< lowest video rung
};

bool is_name(const obs::Event& event, const char* name) {
  return std::string_view(event.name) == name;
}

EvidenceIndex build_index(const core::SessionResult& result,
                          const std::vector<obs::Event>& events,
                          const std::optional<faults::FaultPlan>& plan) {
  EvidenceIndex index;

  // Open tcp.transfer spans per track (transfers never nest on a track).
  std::vector<std::pair<int, TransferSpan>> open;
  std::vector<TransferSpan> transfers;

  for (const obs::Event& event : events) {
    switch (event.category) {
      case obs::Category::kLink:
        if (event.kind == obs::EventKind::kCounter &&
            is_name(event, "link.capacity_mbps")) {
          index.capacity_mbps.push_back(
              {event.sim_time, obs::field_num(event, "value")});
        }
        break;
      case obs::Category::kFault:
        // Every fired fault (reject/error/latency/reset) keeps explaining
        // problem time for a bounded influence window.
        if (event.kind == obs::EventKind::kInstant) {
          index.spans.push_back(
              {event.sim_time, event.sim_time + kFaultInfluence,
               Cause::kFaultInjected, 0.9,
               format("%s fired at %.1fs", event.name, event.sim_time)});
        }
        break;
      case obs::Category::kOrigin:
        // Origin-tier clues carry their own service time in wait_s: the
        // evidence span covers the wait the request actually experienced
        // (floored so a zero-wait clue still explains its own instant).
        if (event.kind == obs::EventKind::kInstant) {
          const Seconds wait =
              std::max(obs::field_num(event, "wait_s"), 0.05);
          if (is_name(event, "origin.retry") ||
              is_name(event, "origin.failover")) {
            index.spans.push_back(
                {event.sim_time, event.sim_time + wait,
                 Cause::kOriginFailover, 0.9,
                 format("%s at %.1fs (%.2fs wait)", event.name,
                        event.sim_time, wait)});
          } else if (is_name(event, "origin.cache_miss")) {
            index.spans.push_back(
                {event.sim_time, event.sim_time + wait,
                 Cause::kOriginCacheMiss, 0.85,
                 format("cache miss at %.1fs (%.2fs origin-side)",
                        event.sim_time, wait)});
          }
        }
        break;
      case obs::Category::kTcp: {
        if (event.kind == obs::EventKind::kInstant) {
          if (is_name(event, "tcp.idle_restart")) {
            index.spans.push_back(
                {event.sim_time, event.sim_time + kRestartRamp,
                 Cause::kTcpSlowStartRestart, 0.8,
                 format("idle restart after %.1fs idle",
                        obs::field_num(event, "idle_s"))});
          } else if (is_name(event, "tcp.handshake") &&
                     obs::field_num(event, "restart") > 0) {
            index.spans.push_back(
                {event.sim_time, event.sim_time + kRestartRamp,
                 Cause::kTcpSlowStartRestart, 0.8,
                 "re-paid handshake (non-persistent reconnect)"});
          }
        } else if (event.kind == obs::EventKind::kSpanBegin &&
                   is_name(event, "tcp.transfer")) {
          TransferSpan t;
          t.begin_t = event.sim_time;
          open.push_back({event.track, t});
        } else if (event.kind == obs::EventKind::kSpanEnd &&
                   is_name(event, "tcp.transfer")) {
          TransferSpan t;
          for (std::size_t i = open.size(); i-- > 0;) {
            if (open[i].first == event.track) {
              t = open[i].second;
              open.erase(open.begin() + static_cast<std::ptrdiff_t>(i));
              break;
            }
          }
          t.end_t = event.sim_time;
          t.closed = true;
          t.wait_s = obs::field_num(event, "wait_s", -1);
          t.extra_wait_s = obs::field_num(event, "extra_wait_s");
          t.restart = obs::field_num(event, "restart") > 0;
          t.sender_limited_s = obs::field_num(event, "sender_limited_s");
          t.link_limited_s = obs::field_num(event, "link_limited_s");
          transfers.push_back(t);
        }
        break;
      }
      default:
        break;
    }
  }
  // Transfers still in flight at the end of the window: evidence up to the
  // session end, first byte possibly never seen.
  for (const auto& [track, t] : open) {
    TransferSpan copy = t;
    copy.end_t = result.session_end;
    transfers.push_back(copy);
  }

  for (const TransferSpan& t : transfers) {
    // First-byte wait: dead air between request and payload. Injected
    // server latency makes this near-certain origin blame; bare protocol
    // RTTs are still first-byte dominated time, just weaker evidence.
    const Seconds wait_end =
        t.wait_s >= 0 ? std::min(t.begin_t + t.wait_s, t.end_t) : t.end_t;
    if (wait_end > t.begin_t) {
      const bool injected = t.extra_wait_s > kRtt;
      index.spans.push_back(
          {t.begin_t, wait_end, Cause::kOriginLatency,
           injected ? 0.9 : 0.6,
           format("first-byte wait %.2fs%s", wait_end - t.begin_t,
                  injected ? " (server-side latency)" : "")});
    }
    const double streaming = t.sender_limited_s + t.link_limited_s;
    if (streaming > 0 &&
        t.sender_limited_s >= kPacingFraction * streaming) {
      const double frac = t.sender_limited_s / streaming;
      const Seconds stream_begin =
          t.wait_s >= 0 ? t.begin_t + t.wait_s : t.begin_t;
      index.spans.push_back(
          {stream_begin, t.end_t, Cause::kServerPacing, 0.5 + 0.3 * frac,
           format("sender-limited %.0f%% of streaming", 100 * frac)});
    }
  }

  if (plan.has_value()) {
    for (const faults::BlackoutFault& b : plan->blackouts) {
      index.spans.push_back(
          {b.start, b.start + b.duration + kFaultInfluence,
           Cause::kFaultInjected, 0.85,
           format("blackout window [%.0fs, %.0fs)", b.start,
                  b.start + b.duration)});
    }
  }

  // Rate ladder: the lowest rung decides "deficit", the rung actually being
  // fetched decides "overestimate".
  for (const core::AnalyzedTrack& track : result.traffic.video_tracks) {
    if (index.min_rate_bps <= 0 ||
        track.declared_bitrate < index.min_rate_bps) {
      index.min_rate_bps = track.declared_bitrate;
    }
  }
  for (const core::SegmentDownload& d : result.traffic.downloads) {
    if (d.type != media::ContentType::kVideo) continue;
    if (index.min_rate_bps <= 0 ||
        (d.declared_bitrate > 0 && d.declared_bitrate < index.min_rate_bps)) {
      index.min_rate_bps = d.declared_bitrate;
    }
    index.fetch_rate_bps.push_back({d.requested_at, d.declared_bitrate});
  }
  return index;
}

// --- Per-slice classification ---------------------------------------------

BlameSpan classify(const EvidenceIndex& index, Seconds a, Seconds b) {
  BlameSpan span;
  span.start = a;
  span.end = b;
  const Seconds t = 0.5 * (a + b);

  // Highest-priority active evidence span; capacity predicates slot between
  // origin.latency and server.pacing per the Cause ordering.
  const Evidence* best = nullptr;
  for (const Evidence& e : index.spans) {
    if (t < e.start || t >= e.end) continue;
    if (best == nullptr || e.cause < best->cause ||
        (e.cause == best->cause && e.confidence > best->confidence)) {
      best = &e;
    }
  }
  if (best != nullptr && best->cause < Cause::kLinkDeficit) {
    span.cause = best->cause;
    span.confidence = best->confidence;
    span.note = best->note;
    return span;
  }

  const double cap_mbps = step_value_at(index.capacity_mbps, t, -1);
  if (cap_mbps >= 0 && index.min_rate_bps > 0) {
    const double cap_bps = cap_mbps * 1e6;
    if (cap_bps < index.min_rate_bps * kDeficitHeadroom) {
      span.cause = Cause::kLinkDeficit;
      span.confidence = std::clamp(
          0.55 + 0.4 * (1.0 - cap_bps / index.min_rate_bps), 0.55, 0.95);
      span.note = format("capacity %.2f Mbps below lowest rung %.2f Mbps",
                         cap_mbps, index.min_rate_bps / 1e6);
      return span;
    }
    const double fetch_bps =
        step_value_at(index.fetch_rate_bps, t, index.min_rate_bps);
    if (fetch_bps > 0 && cap_bps < fetch_bps * kDeficitHeadroom) {
      span.cause = Cause::kAbrOverestimate;
      span.confidence = 0.7;
      span.note = format("capacity %.2f Mbps below fetched rung %.2f Mbps",
                         cap_mbps, fetch_bps / 1e6);
      return span;
    }
  }

  if (best != nullptr && best->cause == Cause::kServerPacing) {
    span.cause = best->cause;
    span.confidence = best->confidence;
    span.note = best->note;
    return span;
  }
  span.cause = Cause::kUnknown;
  return span;
}

/// Boundary times inside [start, end): evidence edges plus timeline steps.
std::vector<Seconds> slice_points(const EvidenceIndex& index, Seconds start,
                                  Seconds end) {
  std::vector<Seconds> points = {start, end};
  auto add = [&](Seconds t) {
    if (t > start && t < end) points.push_back(t);
  };
  for (const Evidence& e : index.spans) {
    add(e.start);
    add(e.end);
  }
  for (const Step& s : index.capacity_mbps) add(s.time);
  for (const Step& s : index.fetch_rate_bps) add(s.time);
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());
  return points;
}

std::vector<BlameSpan> classify_interval(const EvidenceIndex& index,
                                         Seconds start, Seconds end) {
  std::vector<BlameSpan> spans;
  const std::vector<Seconds> points = slice_points(index, start, end);
  for (std::size_t i = 0; i + 1 < points.size(); ++i) {
    if (points[i + 1] - points[i] < 1e-9) continue;
    BlameSpan next = classify(index, points[i], points[i + 1]);
    if (!spans.empty() && spans.back().cause == next.cause &&
        spans.back().note == next.note) {
      spans.back().end = next.end;
      spans.back().confidence = std::max(spans.back().confidence,
                                         next.confidence);
      continue;
    }
    spans.push_back(std::move(next));
  }
  return spans;
}

/// Dominant non-unknown cause over a window (for pre-stall lookback):
/// largest blamed duration, priority order breaking ties. kUnknown when the
/// window holds no evidence at all.
BlameSpan lookback_verdict(const EvidenceIndex& index, Seconds start,
                           Seconds end) {
  double blamed[kCauseCount] = {};
  double conf_weight[kCauseCount] = {};
  std::string notes[kCauseCount];
  for (const BlameSpan& span : classify_interval(index, start, end)) {
    const int c = static_cast<int>(span.cause);
    blamed[c] += span.duration();
    conf_weight[c] += span.confidence * span.duration();
    if (notes[c].empty()) notes[c] = span.note;
  }
  BlameSpan verdict;
  for (Cause cause : all_causes()) {
    if (cause == Cause::kUnknown) continue;
    const int c = static_cast<int>(cause);
    if (blamed[c] > blamed[static_cast<int>(verdict.cause)] ||
        (verdict.cause == Cause::kUnknown && blamed[c] > 0)) {
      verdict.cause = cause;
      verdict.confidence = blamed[c] > 0 ? conf_weight[c] / blamed[c] : 0;
      verdict.note = notes[c];
    }
  }
  return verdict;
}

/// Fills unknown spans from their predecessor (a stall persists while
/// recovering from whatever caused it). fault.injected carry is capped at
/// the fault influence window so blame cannot drift arbitrarily far from
/// the injected window — the precision the validation harness gates on.
std::vector<BlameSpan> carry_forward(std::vector<BlameSpan> spans) {
  std::vector<BlameSpan> out;
  std::vector<bool> carried;
  for (BlameSpan& span : spans) {
    if (span.cause != Cause::kUnknown || out.empty() ||
        out.back().cause == Cause::kUnknown) {
      out.push_back(std::move(span));
      carried.push_back(false);
      continue;
    }
    const BlameSpan& source = out.back();
    const bool source_carried = carried.back();
    if (source.cause == Cause::kFaultInjected) {
      if (source_carried) {
        out.push_back(std::move(span));
        carried.push_back(false);
        continue;
      }
      const Seconds limit = span.start + kFaultInfluence;
      BlameSpan filled = span;
      filled.end = std::min(span.end, limit);
      filled.cause = source.cause;
      filled.confidence = source.confidence * kCarryPenalty;
      filled.note = "carried: " + source.note;
      const Seconds rest_start = filled.end;
      out.push_back(std::move(filled));
      carried.push_back(true);
      if (span.end - rest_start > 1e-9) {
        BlameSpan rest = span;
        rest.start = rest_start;
        out.push_back(std::move(rest));
        carried.push_back(false);
      }
      continue;
    }
    span.cause = source.cause;
    span.confidence = source.confidence * kCarryPenalty;
    span.note = "carried: " + source.note;
    out.push_back(std::move(span));
    carried.push_back(true);
  }
  return out;
}

IntervalDiagnosis diagnose_interval(const EvidenceIndex& index, bool startup,
                                    Seconds start, Seconds end) {
  IntervalDiagnosis interval;
  interval.startup = startup;
  interval.start = start;
  interval.end = end;
  interval.spans = classify_interval(index, start, end);

  // A stall's cause usually precedes it (the drain happened while playing):
  // resolve a blind opening span from the lookback window's verdict.
  if (!interval.spans.empty() &&
      interval.spans.front().cause == Cause::kUnknown) {
    BlameSpan verdict = lookback_verdict(index, start - kLookback, start);
    if (verdict.cause != Cause::kUnknown) {
      interval.spans.front().cause = verdict.cause;
      interval.spans.front().confidence = verdict.confidence * kCarryPenalty;
      interval.spans.front().note = "pre-interval: " + verdict.note;
    }
  }
  interval.spans = carry_forward(std::move(interval.spans));
  return interval;
}

}  // namespace

Seconds IntervalDiagnosis::blamed(Cause cause) const {
  Seconds total = 0;
  for (const BlameSpan& span : spans) {
    if (span.cause == cause) total += span.duration();
  }
  return total;
}

Cause IntervalDiagnosis::dominant() const {
  Cause best = Cause::kUnknown;
  Seconds best_time = 0;
  for (Cause cause : all_causes()) {
    const Seconds time = blamed(cause);
    if (time > best_time) {
      best = cause;
      best_time = time;
    }
  }
  return best;
}

Seconds Diagnosis::problem_s() const {
  Seconds total = 0;
  for (const IntervalDiagnosis& interval : intervals) {
    total += interval.duration();
  }
  return total;
}

Seconds Diagnosis::stall_s() const {
  Seconds total = 0;
  for (const IntervalDiagnosis& interval : intervals) {
    if (!interval.startup) total += interval.duration();
  }
  return total;
}

double Diagnosis::attributed_fraction() const {
  const Seconds total = problem_s();
  if (total <= 0) return 1;
  return 1.0 - blamed_s[static_cast<int>(Cause::kUnknown)] / total;
}

double Diagnosis::stall_attributed_fraction() const {
  const Seconds total = stall_s();
  if (total <= 0) return 1;
  return 1.0 - stall_blamed_s[static_cast<int>(Cause::kUnknown)] / total;
}

Diagnosis diagnose(const core::SessionResult& result,
                   const std::vector<obs::Event>& events,
                   const std::optional<faults::FaultPlan>& plan) {
  const EvidenceIndex index = build_index(result, events, plan);
  Diagnosis diagnosis;

  const player::PlayerEvents& truth = result.events;
  // Startup: press-play to first rendered frame; a session that never
  // started playing is one startup-shaped problem covering the whole run.
  const Seconds startup_end = truth.playback_started >= 0
                                  ? truth.playback_started
                                  : result.session_end;
  if (startup_end - truth.session_start > 1e-9) {
    diagnosis.intervals.push_back(diagnose_interval(
        index, true, truth.session_start, startup_end));
  }
  for (const player::StallEvent& stall : truth.stalls) {
    const Seconds end = stall.end >= 0 ? stall.end : result.session_end;
    if (end - stall.start <= 1e-9) continue;
    diagnosis.intervals.push_back(
        diagnose_interval(index, false, stall.start, end));
  }

  double conf_weight[kCauseCount] = {};
  for (const IntervalDiagnosis& interval : diagnosis.intervals) {
    for (const BlameSpan& span : interval.spans) {
      const int c = static_cast<int>(span.cause);
      diagnosis.blamed_s[c] += span.duration();
      if (!interval.startup) diagnosis.stall_blamed_s[c] += span.duration();
      conf_weight[c] += span.confidence * span.duration();
    }
  }
  for (int c = 0; c < kCauseCount; ++c) {
    diagnosis.confidence[c] =
        diagnosis.blamed_s[c] > 0 ? conf_weight[c] / diagnosis.blamed_s[c]
                                  : 0;
  }
  return diagnosis;
}

Diagnosis diagnose(const core::SessionResult& result,
                   const obs::Observer& observer,
                   const std::optional<faults::FaultPlan>& plan) {
  Diagnosis diagnosis = diagnose(result, observer.trace.snapshot(), plan);
  diagnosis.trace_dropped = observer.trace.dropped();
  return diagnosis;
}

std::string diagnosis_text(const Diagnosis& diagnosis) {
  std::string out = format(
      "root-cause attribution: %zu intervals, %.2fs problem time "
      "(%.2fs stalls), %.1f%% attributed\n",
      diagnosis.intervals.size(), diagnosis.problem_s(), diagnosis.stall_s(),
      100 * diagnosis.attributed_fraction());
  if (diagnosis.trace_dropped > 0) {
    out += format(
        "WARNING: trace ring dropped %llu events — evidence is partial\n",
        static_cast<unsigned long long>(diagnosis.trace_dropped));
  }
  out += "\n";

  Table spans({"interval", "window", "cause", "seconds", "conf", "evidence"});
  int stall_index = 0;
  for (const IntervalDiagnosis& interval : diagnosis.intervals) {
    const std::string label =
        interval.startup ? "startup" : format("stall %d", ++stall_index);
    for (const BlameSpan& span : interval.spans) {
      spans.add_row({label,
                     format("[%.2f, %.2f)", span.start, span.end),
                     to_string(span.cause),
                     format("%.2f", span.duration()),
                     span.cause == Cause::kUnknown
                         ? "-"
                         : format("%.2f", span.confidence),
                     span.note.empty() ? "-" : span.note});
    }
  }
  out += spans.render();

  out += "\n";
  Table totals({"cause", "total_s", "stall_s", "share", "conf"});
  const Seconds problem = diagnosis.problem_s();
  for (Cause cause : all_causes()) {
    const int c = static_cast<int>(cause);
    totals.add_row(
        {to_string(cause), format("%.2f", diagnosis.blamed_s[c]),
         format("%.2f", diagnosis.stall_blamed_s[c]),
         problem > 0
             ? format("%.1f%%", 100 * diagnosis.blamed_s[c] / problem)
             : "-",
         diagnosis.blamed_s[c] > 0 ? format("%.2f", diagnosis.confidence[c])
                                   : "-"});
  }
  out += totals.render();
  return out;
}

}  // namespace vodx::diag
