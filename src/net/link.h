// Shared bottleneck link.
//
// Models the cellular last hop the paper emulates with `tc`: a single
// bottleneck whose capacity follows a BandwidthTrace, shared max-min fairly
// by all attached TCP connections with demand. Per-connection rates are
// additionally capped by each connection's own cwnd/RTT (handled inside
// TcpConnection::advance).
//
// The link is a TickClient. next_wake() names the earliest tick at which
// anything observable could happen on it: a handshake or request wait
// expiring, a transfer completing (bounded below by its remaining bytes
// over the link's per-tick capacity), a bandwidth-trace step
// (BandwidthTrace::next_change_after, which also keeps the obs capacity
// timeline lossless) or a due trace sample. Between those ticks the fluid
// model still integrates per tick: fast_forward() replays exactly the
// per-tick step tick() runs, so a skipped span moves the same bytes and
// grows the same windows to the last bit.
#pragma once

#include <vector>

#include "common/units.h"
#include "net/bandwidth_trace.h"
#include "net/simulator.h"
#include "net/tcp_connection.h"
#include "obs/observer.h"

namespace vodx::net {

/// Max-min fair (progressive-filling) allocation of `capacity` across
/// `demands` into `grants`; flows with zero demand get zero. Exposed as a
/// free function so fairness properties (equal demands ⇒ equal grants,
/// water-filling monotonicity, conservation) are testable on raw demand
/// vectors; the Link calls it with reusable scratch storage so the per-tick
/// hot path never allocates.
void max_min_shares(const std::vector<Bps>& demands, Bps capacity,
                    std::vector<Bps>& grants,
                    std::vector<std::size_t>& active_scratch);

/// Allocating convenience overload (tests, one-shot callers).
std::vector<Bps> max_min_shares(const std::vector<Bps>& demands,
                                Bps capacity);

class Link : public TickClient {
 public:
  /// Registers itself as a tick client of `sim`. The link must outlive the
  /// simulator run.
  Link(Simulator& sim, BandwidthTrace trace, Seconds rtt = 0.07);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Adds a flow to the shared bottleneck; it starts competing for capacity
  /// on the next allocation pass.
  void attach(TcpConnection* connection);

  /// Removes a flow (session departure, client shutdown). Idempotent. The
  /// departing flow's share is redistributed to the survivors by the very
  /// next allocation pass — a detach between ticks is already excluded from
  /// that tick's snapshot.
  void detach(TcpConnection* connection);

  /// Currently attached flow count (population observability).
  int attached() const { return static_cast<int>(connections_.size()); }

  /// Attaches an observability context. The link emits a capacity counter
  /// track (sampled on change) and an active-connection-count track.
  void set_observer(obs::Observer* observer);

  const BandwidthTrace& trace() const { return trace_; }
  Seconds rtt() const { return rtt_; }

  /// Total payload bytes the link has carried (for conservation checks).
  Bytes total_delivered() const;

  // --- TickClient --------------------------------------------------------
  void tick(Seconds now, Seconds dt) override;
  Seconds next_wake(Seconds now) override;
  /// Replays step() once per skipped tick at the capacity of the span (a
  /// span never crosses a trace step). Asserts that no connection changes
  /// phase inside the span: a late wake fails loudly instead of silently
  /// completing a transfer off the tick grid.
  void fast_forward(Seconds now, Seconds dt, std::uint64_t ticks) override;

 private:
  /// The fluid step shared by tick() and the replay: max-min shares of
  /// `capacity` over `flows`, then every flow advances by one tick.
  void step(Seconds now, Seconds dt, Bps capacity,
            const std::vector<TcpConnection*>& flows);

  Simulator& sim_;
  BandwidthTrace trace_;
  TraceCursor capacity_;
  Seconds rtt_;
  /// End time of the last tick executed or replayed; a replayed span
  /// rebuilds its tick times from here with the simulator's `+= dt`.
  Seconds last_tick_;
  std::vector<TcpConnection*> connections_;
  Bytes delivered_by_detached_ = 0;
  /// Bumped by every detach; lets tick() skip the per-connection liveness
  /// scan (quadratic at population scale) unless a completion callback
  /// actually detached something mid-tick.
  std::uint64_t detach_epoch_ = 0;

  // Per-tick scratch (the hot path must not allocate).
  std::vector<TcpConnection*> scratch_snapshot_;
  std::vector<Bps> scratch_demands_;
  std::vector<Bps> scratch_grants_;
  std::vector<std::size_t> scratch_active_;
  std::vector<TcpConnection::Phase> scratch_phases_;

  obs::Observer* obs_ = nullptr;
  int obs_track_ = 0;
  Bps last_capacity_emitted_ = -1;
  int last_active_emitted_ = -1;
};

}  // namespace vodx::net
