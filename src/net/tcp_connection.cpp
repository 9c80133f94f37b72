#include "net/tcp_connection.h"

#include <algorithm>
#include <limits>

#include "common/error.h"

namespace vodx::net {

TcpConnection::TcpConnection(TcpConfig config, std::string label)
    : config_(config),
      label_(std::move(label)),
      cwnd_(config.initial_cwnd),
      ssthresh_(std::numeric_limits<double>::infinity()) {
  VODX_ASSERT(config_.rtt > 0, "rtt must be positive");
  VODX_ASSERT(config_.initial_cwnd > 0, "initial cwnd must be positive");
}

void TcpConnection::set_observer(obs::Observer* observer) {
  obs_ = observer;
  if (obs_ == nullptr) {
    handshakes_metric_ = idle_restarts_metric_ = transfers_metric_ = nullptr;
    goodput_metric_ = nullptr;
    return;
  }
  obs_track_ = obs_->trace.track("tcp " + label_);
  handshakes_metric_ = &obs_->metrics.counter("tcp.handshakes");
  idle_restarts_metric_ = &obs_->metrics.counter("tcp.idle_restarts");
  transfers_metric_ = &obs_->metrics.counter("tcp.transfers");
  goodput_metric_ = &obs_->metrics.histogram(
      "tcp.goodput_mbps", {0.25, 0.5, 1, 2, 4, 8, 16, 32, 64});
}

void TcpConnection::start_transfer(Seconds now, Bytes bytes,
                                   CompletionFn on_complete,
                                   Seconds extra_wait) {
  VODX_ASSERT(!busy(), "transfer already in flight on " + label_);
  VODX_ASSERT(bytes > 0, "transfer needs payload");
  transfer_size_ = bytes;
  transfer_remaining_ = static_cast<double>(bytes);
  transfer_delivered_ = 0;
  on_complete_ = std::move(on_complete);
  transfer_started_ = now;
  transfer_restart_ = false;
  transfer_extra_wait_ = extra_wait;
  transfer_first_byte_ = -1;
  sender_limited_s_ = 0;
  link_limited_s_ = 0;
  const bool reused = transfer_count_ > 0;
  ++transfer_count_;
  if (transfers_metric_ != nullptr) transfers_metric_->add();
  const bool tracing = obs::trace_on(obs_, obs::Category::kTcp);
  if (tracing) {
    obs_->trace.begin(now, obs::Category::kTcp, "tcp.transfer", obs_track_,
                      {obs::Field::n("bytes", static_cast<double>(bytes))});
  }

  if (phase_ == Phase::kClosed) {
    cwnd_ = config_.initial_cwnd;
    ssthresh_ = std::numeric_limits<double>::infinity();
    phase_ = Phase::kHandshake;
    wait_remaining_ = config_.rtt * config_.handshake_rtts + extra_wait;
    // A handshake on a connection that already carried a transfer is the
    // paper's non-persistent pathology (or a post-reset reconnect): the cwnd
    // ramp is being re-paid, unlike the unavoidable cold-start handshake.
    transfer_restart_ = reused;
    if (handshakes_metric_ != nullptr) handshakes_metric_->add();
    if (tracing) {
      obs_->trace.instant(now, obs::Category::kTcp, "tcp.handshake",
                          obs_track_,
                          {obs::Field::n("rtts", config_.handshake_rtts),
                           obs::Field::n("restart", reused ? 1 : 0)});
    }
    return;
  }

  // Reusing a persistent connection after a long idle period restarts slow
  // start (the congestion state is stale).
  if (config_.idle_slow_start_restart &&
      now - idle_since_ > config_.idle_restart_after) {
    cwnd_ = config_.initial_cwnd;
    ssthresh_ = std::numeric_limits<double>::infinity();
    transfer_restart_ = true;
    if (idle_restarts_metric_ != nullptr) idle_restarts_metric_->add();
    if (tracing) {
      obs_->trace.instant(now, obs::Category::kTcp, "tcp.idle_restart",
                          obs_track_,
                          {obs::Field::n("idle_s", now - idle_since_)});
    }
  }
  phase_ = Phase::kRequestWait;
  wait_remaining_ = config_.rtt + extra_wait;
}

Seconds TcpConnection::transfer_wait() const {
  if (transfer_first_byte_ < 0) return -1;
  return transfer_first_byte_ - transfer_started_;
}

// The marker fields every tcp.transfer end event carries; vodx::diag turns
// these into blame spans without replaying the connection state machine.
std::vector<obs::Field> TcpConnection::transfer_end_fields(
    Bytes delivered, bool aborted) const {
  std::vector<obs::Field> fields = {
      obs::Field::n("delivered", static_cast<double>(delivered)),
      obs::Field::n("wait_s", transfer_wait()),
      obs::Field::n("extra_wait_s", transfer_extra_wait_),
      obs::Field::n("restart", transfer_restart_ ? 1 : 0),
      obs::Field::n("sender_limited_s", sender_limited_s_),
      obs::Field::n("link_limited_s", link_limited_s_)};
  if (aborted) fields.push_back(obs::Field::n("aborted", 1));
  return fields;
}

void TcpConnection::close() {
  if (busy()) {
    abort_transfer();
    return;
  }
  phase_ = Phase::kClosed;
}

void TcpConnection::abort_transfer() {
  if (!busy()) return;
  if (obs::trace_on(obs_, obs::Category::kTcp)) {
    obs_->trace.end(obs_->trace.now(), obs::Category::kTcp, "tcp.transfer",
                    obs_track_,
                    transfer_end_fields(transfer_delivered_, true));
  }
  transfer_size_ = 0;
  transfer_remaining_ = 0;
  on_complete_ = nullptr;
  phase_ = Phase::kClosed;
}

Bps TcpConnection::demand() const {
  if (phase_ != Phase::kStreaming) return 0;
  return static_cast<double>(cwnd_) * 8.0 / config_.rtt;
}

void TcpConnection::enter_streaming(Seconds now) {
  phase_ = Phase::kStreaming;
  wait_remaining_ = 0;
  transfer_first_byte_ = now;
}

void TcpConnection::grow_cwnd(Bytes acked, Bps granted, bool saturated) {
  const double bdp_cap =
      config_.queue_headroom * granted * config_.rtt / 8.0;
  if (saturated && static_cast<double>(cwnd_) > bdp_cap) {
    // Stand-in for loss-based backoff: the pipe (plus queue headroom) is
    // full, so clamp to the achievable window and leave slow start.
    cwnd_ = std::max(config_.initial_cwnd, static_cast<Bytes>(bdp_cap));
    ssthresh_ = static_cast<double>(cwnd_);
    return;
  }
  if (static_cast<double>(cwnd_) < ssthresh_) {
    cwnd_ += acked;  // slow start: doubles per RTT
  } else if (cwnd_ > 0) {
    cwnd_ += std::max<Bytes>(
        1, config_.mss * acked / cwnd_);  // congestion avoidance
  }
}

void TcpConnection::advance(Seconds now, Seconds dt, Bps granted,
                            bool saturated) {
  switch (phase_) {
    case Phase::kClosed:
    case Phase::kIdle:
      return;
    case Phase::kHandshake:
      wait_remaining_ -= dt;
      if (wait_remaining_ <= 1e-12) {
        phase_ = Phase::kRequestWait;
        wait_remaining_ += config_.rtt;
      }
      return;
    case Phase::kRequestWait:
      wait_remaining_ -= dt;
      if (wait_remaining_ <= 1e-12) enter_streaming(now);
      return;
    case Phase::kStreaming: {
      // Split streaming time by the binding constraint: when the link could
      // not grant full demand the bottleneck limits us; otherwise the sender
      // (cwnd) does. diag reads this split off the transfer end event.
      if (saturated) {
        link_limited_s_ += dt;
      } else {
        sender_limited_s_ += dt;
      }
      double delivered = granted * dt / 8.0;
      delivered = std::min(delivered, transfer_remaining_);
      transfer_remaining_ -= delivered;
      Bytes whole =
          transfer_size_ - static_cast<Bytes>(transfer_remaining_ + 0.5);
      Bytes newly = whole - transfer_delivered_;
      transfer_delivered_ = whole;
      lifetime_delivered_ += newly;
      grow_cwnd(static_cast<Bytes>(delivered + 0.5), granted, saturated);
      const bool tracing = obs::trace_on(obs_, obs::Category::kTcp);
      if (tracing && now - last_cwnd_emit_ >= config_.rtt) {
        // Sampled at RTT granularity: cwnd only changes meaningfully
        // per-RTT, and per-tick emission would swamp the ring.
        obs_->trace.counter(now, obs::Category::kTcp, "tcp.cwnd_kb",
                            obs_track_, static_cast<double>(cwnd_) / 1e3);
        last_cwnd_emit_ = now;
      }
      if (transfer_remaining_ <= 1e-9) {
        transfer_delivered_ = transfer_size_;
        phase_ = config_.persistent ? Phase::kIdle : Phase::kClosed;
        idle_since_ = now;
        if (goodput_metric_ != nullptr && now > transfer_started_) {
          goodput_metric_->record(
              rate_of(transfer_size_, now - transfer_started_) / 1e6);
        }
        if (tracing) {
          // End the span before the callback: the HTTP layer closes its own
          // request span (and may start a new transfer) inside `done`.
          obs_->trace.end(now, obs::Category::kTcp, "tcp.transfer",
                          obs_track_,
                          transfer_end_fields(transfer_size_, false));
        }
        // Move the callback out first: it may immediately start a new
        // transfer on this same connection.
        CompletionFn done = std::move(on_complete_);
        on_complete_ = nullptr;
        if (done) done();
      }
      return;
    }
  }
}

}  // namespace vodx::net
