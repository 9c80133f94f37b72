#include "net/link.h"

#include <algorithm>

#include "common/error.h"

namespace vodx::net {

void max_min_shares(const std::vector<Bps>& demands, Bps capacity,
                    std::vector<Bps>& grants,
                    std::vector<std::size_t>& active_scratch) {
  grants.assign(demands.size(), 0.0);
  std::vector<std::size_t>& active = active_scratch;
  active.clear();
  for (std::size_t i = 0; i < demands.size(); ++i) {
    if (demands[i] > 0) active.push_back(i);
  }
  Bps remaining = capacity;
  while (!active.empty() && remaining > 0) {
    Bps share = remaining / static_cast<double>(active.size());
    // Satisfy every flow whose demand fits under the current equal share;
    // keep the rest, in order, for the next round. The in-place compaction
    // performs the identical float operations in the identical order as a
    // remove-as-you-iterate pass, in O(active) instead of O(active²).
    std::size_t kept = 0;
    for (std::size_t j = 0; j < active.size(); ++j) {
      const std::size_t i = active[j];
      if (demands[i] <= share) {
        grants[i] = demands[i];
        remaining -= demands[i];
      } else {
        active[kept++] = i;
      }
    }
    if (kept == active.size()) {
      // Every remaining flow wants more than an equal share: split evenly.
      for (std::size_t i : active) grants[i] = share;
      remaining = 0;
      break;
    }
    active.resize(kept);
  }
}

std::vector<Bps> max_min_shares(const std::vector<Bps>& demands,
                                Bps capacity) {
  std::vector<Bps> grants;
  std::vector<std::size_t> scratch;
  max_min_shares(demands, capacity, grants, scratch);
  return grants;
}

Link::Link(Simulator& sim, BandwidthTrace trace, Seconds rtt)
    : sim_(sim),
      trace_(std::move(trace)),
      capacity_(trace_),
      rtt_(rtt),
      last_tick_(sim.now()) {
  sim_.add_tick_client(this);
}

void Link::set_observer(obs::Observer* observer) {
  obs_ = observer;
  last_capacity_emitted_ = -1;
  last_active_emitted_ = -1;
  if (obs_ != nullptr) obs_track_ = obs_->trace.track("link");
}

void Link::attach(TcpConnection* connection) {
  VODX_ASSERT(connection != nullptr, "null connection");
  VODX_ASSERT(std::find(connections_.begin(), connections_.end(), connection) ==
                  connections_.end(),
              "connection attached twice");
  connections_.push_back(connection);
}

void Link::detach(TcpConnection* connection) {
  auto it = std::find(connections_.begin(), connections_.end(), connection);
  if (it == connections_.end()) return;
  delivered_by_detached_ += connection->lifetime_delivered();
  connections_.erase(it);
  ++detach_epoch_;
}

Bytes Link::total_delivered() const {
  Bytes total = delivered_by_detached_;
  for (const TcpConnection* c : connections_) total += c->lifetime_delivered();
  return total;
}

void Link::tick(Seconds now, Seconds dt) {
  const Bps capacity = capacity_.at(now);
  if (obs::trace_on(obs_, obs::Category::kLink)) {
    // Counter tracks are sampled on change, not per tick: a 600 s session
    // over a 1 Hz bandwidth trace emits ~600 capacity points, not 60000.
    if (capacity != last_capacity_emitted_) {
      obs_->trace.counter(now, obs::Category::kLink, "link.capacity_mbps",
                          obs_track_, capacity / 1e6);
      last_capacity_emitted_ = capacity;
    }
    int active = 0;
    for (const TcpConnection* c : connections_) {
      if (c->streaming()) ++active;
    }
    if (active != last_active_emitted_) {
      obs_->trace.counter(now, obs::Category::kLink, "link.active_conns",
                          obs_track_, active);
      last_active_emitted_ = active;
    }
  }
  // Snapshot: completion callbacks inside advance() may attach/detach
  // connections; newly attached ones start participating next tick.
  scratch_snapshot_.assign(connections_.begin(), connections_.end());
  step(now, dt, capacity, scratch_snapshot_);
  last_tick_ = now;
}

void Link::step(Seconds now, Seconds dt, Bps capacity,
                const std::vector<TcpConnection*>& flows) {
  scratch_demands_.resize(flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    scratch_demands_[i] = flows[i]->demand();
  }
  max_min_shares(scratch_demands_, capacity, scratch_grants_,
                 scratch_active_);

  const std::uint64_t epoch = detach_epoch_;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    // A callback earlier in this loop may have detached this connection;
    // the liveness scan only runs once a detach has actually happened
    // (population-scale ticks would otherwise go quadratic on it).
    if (detach_epoch_ != epoch &&
        std::find(connections_.begin(), connections_.end(), flows[i]) ==
            connections_.end()) {
      continue;
    }
    const bool saturated = scratch_grants_[i] + 1e-6 < scratch_demands_[i];
    flows[i]->advance(now, dt, scratch_grants_[i], saturated);
  }
}

Seconds Link::next_wake(Seconds now) {
  const BandwidthTrace::Piece& piece = capacity_.piece(now);
  const bool tracing = obs::trace_on(obs_, obs::Category::kLink);
  // A pending on-change emission must land on the very next tick.
  if (tracing && piece.bandwidth != last_capacity_emitted_) return now;
  int streaming = 0;
  bool busy = false;
  for (const TcpConnection* c : connections_) {
    if (c->streaming()) ++streaming;
    busy = busy || c->busy();
  }
  if (tracing && streaming != last_active_emitted_) return now;
  // Idle and untraced, nothing here can change until a new transfer starts
  // (inside some other executed tick).
  if (!busy && !tracing) return kNeverWakes;
  // A trace step changes the shares (and the capacity track).
  Seconds wake = piece.end;
  if (!busy) return wake;
  const Seconds dt = sim_.tick_duration();
  const double link_bytes = piece.bandwidth * dt / 8.0;
  const double fair_bytes = link_bytes / std::max(streaming, 1);
  for (const TcpConnection* c : connections_) {
    wake = std::min(wake, c->next_wake(now, dt, link_bytes, fair_bytes));
    if (wake <= now + dt) return now;  // the next tick executes anyway
  }
  return wake;
}

void Link::fast_forward(Seconds now, Seconds dt, std::uint64_t ticks) {
  // Idle and closed connections ignore advance() and demand nothing, so
  // leaving them out of the replay changes no share and no float: the
  // shares are computed over the flows with demand, in attach order.
  scratch_snapshot_.clear();
  scratch_phases_.clear();
  for (TcpConnection* c : connections_) {
    if (!c->busy()) continue;
    scratch_snapshot_.push_back(c);
    scratch_phases_.push_back(c->phase());
  }
  if (!scratch_snapshot_.empty()) {
    // next_wake() stops every span before the next trace step, so one
    // capacity serves the whole span.
    Seconds t = last_tick_ + dt;
    const Bps capacity = capacity_.at(t);
    for (std::uint64_t i = 0; i < ticks; ++i) {
      if (i > 0) t += dt;  // the simulator's own recurrence
      step(t, dt, capacity, scratch_snapshot_);
      for (std::size_t k = 0; k < scratch_snapshot_.size(); ++k) {
        VODX_ASSERT(scratch_snapshot_[k]->phase() == scratch_phases_[k],
                    "a connection changed phase inside a skipped span");
      }
    }
    VODX_ASSERT(t == now && capacity_.at(t) == capacity,
                "skipped span left its tick grid or its trace piece");
  }
  last_tick_ = now;
}

}  // namespace vodx::net
