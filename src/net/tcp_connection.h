// Fluid-approximation TCP connection.
//
// We do not simulate packets. A connection is a rate-limited pipe whose cap
// is cwnd/RTT; the Link grants each active connection a max-min fair share of
// the bottleneck every tick. The model keeps the TCP behaviours that the
// paper's findings hinge on:
//
//  * connection setup costs a handshake RTT, and every request costs one RTT
//    before the first response byte (so non-persistent connections pay
//    handshake + slow-start per segment, §3.2),
//  * slow start doubles cwnd per RTT until the bottleneck saturates,
//  * on saturation cwnd is clamped to a small multiple of the fair-share BDP
//    (standing in for loss-based backoff) and grows linearly afterwards,
//  * a long idle period restarts slow start (RFC 2861 behaviour), which is
//    what makes on-off buffer-driven downloading re-pay the ramp-up.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/units.h"
#include "obs/observer.h"

namespace vodx::net {

struct TcpConfig {
  Seconds rtt = 0.07;            ///< round-trip time to the origin
  Bytes mss = 1460;              ///< segment size for CA growth
  Bytes initial_cwnd = 14600;    ///< RFC 6928 IW10
  double queue_headroom = 1.5;   ///< cwnd cap = headroom * fair-share BDP
  bool persistent = true;        ///< reuse the connection across requests
  bool idle_slow_start_restart = true;
  Seconds idle_restart_after = 0.5;
  double handshake_rtts = 1.0;   ///< 1 for TCP, 3 for TCP+TLS1.2
};

/// Observer for byte-level accounting (traffic logging, waste analysis).
class TcpConnection {
 public:
  using CompletionFn = std::function<void()>;

  TcpConnection(TcpConfig config, std::string label);

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  /// Attaches an observability context; the connection gets its own trace
  /// track ("tcp <label>") carrying transfer spans, handshake / idle-restart
  /// instants and a cwnd counter sampled at most once per RTT.
  void set_observer(obs::Observer* observer);
  /// Trace track id assigned by set_observer (for callers — the HTTP layer
  /// — that overlay their own spans on this connection's timeline).
  int obs_track() const { return obs_track_; }

  /// Starts fetching `bytes` of response payload. If the connection is
  /// closed a handshake is performed first; every request then waits one RTT
  /// for the first byte. `extra_wait` adds server-side first-byte latency on
  /// top of the protocol RTTs (fault injection). `on_complete` fires
  /// (synchronously, inside the link's tick) once the final byte arrives.
  /// Must not be busy.
  void start_transfer(Seconds now, Bytes bytes, CompletionFn on_complete,
                      Seconds extra_wait = 0);

  /// Abandons the in-flight transfer without firing its callback. Bytes
  /// already delivered stay counted in lifetime_delivered(). The connection
  /// is closed: a real client cannot cleanly reuse a connection with an
  /// abandoned response in flight.
  void abort_transfer();

  /// Hard-closes the connection (e.g. after a mid-transfer reset observed by
  /// the HTTP layer). Aborts any in-flight transfer; a subsequent
  /// start_transfer re-pays the handshake.
  void close();

  bool busy() const { return phase_ != Phase::kClosed && phase_ != Phase::kIdle; }
  bool connected() const { return phase_ != Phase::kClosed; }

  /// Bytes of the current transfer delivered so far.
  Bytes transfer_delivered() const { return transfer_delivered_; }

  /// Total payload bytes delivered over the connection's lifetime.
  Bytes lifetime_delivered() const { return lifetime_delivered_; }

  /// First-byte wait of the current/last transfer (handshake + request RTT +
  /// injected server latency); -1 while still waiting.
  Seconds transfer_wait() const;

  Bytes cwnd() const { return cwnd_; }
  const TcpConfig& config() const { return config_; }
  const std::string& label() const { return label_; }

  // --- Link-facing interface -------------------------------------------

  /// Bandwidth this connection could consume this tick (0 unless streaming).
  Bps demand() const;

  /// Advances the connection by dt with the granted rate. `saturated` is true
  /// when the link could not satisfy this connection's full demand.
  void advance(Seconds now, Seconds dt, Bps granted, bool saturated);

 private:
  enum class Phase { kClosed, kHandshake, kRequestWait, kStreaming, kIdle };

  void enter_streaming(Seconds now);
  void grow_cwnd(Bytes acked, Bps granted, bool saturated);
  std::vector<obs::Field> transfer_end_fields(Bytes delivered,
                                              bool aborted) const;

  TcpConfig config_;
  std::string label_;
  Phase phase_ = Phase::kClosed;
  Seconds wait_remaining_ = 0;
  Bytes transfer_size_ = 0;
  double transfer_remaining_ = 0;  // fractional bytes for fluid accuracy
  Bytes transfer_delivered_ = 0;
  Bytes lifetime_delivered_ = 0;
  Bytes cwnd_ = 0;
  double ssthresh_ = 0;
  Seconds idle_since_ = 0;
  CompletionFn on_complete_;

  bool transfer_restart_ = false;
  Seconds transfer_extra_wait_ = 0;
  Seconds transfer_first_byte_ = -1;  ///< -1 until streaming begins
  Seconds sender_limited_s_ = 0;
  Seconds link_limited_s_ = 0;
  std::uint64_t transfer_count_ = 0;  ///< lifetime start_transfer calls

  obs::Observer* obs_ = nullptr;
  int obs_track_ = 0;
  Seconds transfer_started_ = 0;
  Seconds last_cwnd_emit_ = -1;
  obs::Counter* handshakes_metric_ = nullptr;
  obs::Counter* idle_restarts_metric_ = nullptr;
  obs::Counter* transfers_metric_ = nullptr;
  obs::Histogram* goodput_metric_ = nullptr;
};

}  // namespace vodx::net
