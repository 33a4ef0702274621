// The socket half of a TP client: one implementation for both upstream
// callers, the EXS daemon (lis::ExternalSensor) and a relay ISM's egress
// (ism::RelayEgress).
//
// tp::UpstreamLink is socket-free and speaks the session protocol; this
// class carries its frames over TCP and keeps the connection alive. It
// owns:
//  * the TcpSocket, the FrameReader for inbound frames, the FrameSendBuffer
//    outbox, and the FaultySocket every outbound frame passes (with no
//    policy installed it enqueues the frame unchanged);
//  * registration on the caller's net::Poller: readable always, writable
//    only while the outbox holds deferred bytes (want-writable toggling).
//    The poller callback only records readiness; service() does the I/O, so
//    a caller that serialises its link behind a mutex (the relay egress
//    thread) runs the poller outside the lock;
//  * the stall-bounded send: a frame that finds the outbox at its cap
//    blocks, bounded by kSendStallTimeoutUs, until the peer drains enough —
//    that is the backpressure that reaches the EXS rings or the relay's
//    egress queue — and past the deadline the link counts as lost;
//  * disconnect and reconnect on a ReconnectSchedule (exponential backoff
//    plus jitter); a reconnect re-hellos through the link, whose HELLO_ACK
//    cursor replays everything unacknowledged;
//  * the heartbeat on an idle link and the peer-silence timeout that
//    catches half-open TCP sessions.
//
// Not thread-safe: one thread drives the client and its poller.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "common/byte_buffer.hpp"
#include "common/error.hpp"
#include "metrics/flight_recorder.hpp"
#include "net/faulty_socket.hpp"
#include "net/frame.hpp"
#include "net/poller.hpp"
#include "net/socket.hpp"
#include "tp/upstream_link.hpp"

namespace brisk::tp {

class UpstreamClient {
 public:
  /// Cap on outbound bytes deferred by a full kernel send buffer.
  static constexpr std::size_t kOutboxBytes = net::kDefaultSendBufferBytes;
  /// How long a send may block on an outbox at its cap before the link
  /// counts as lost.
  static constexpr TimeMicros kSendStallTimeoutUs = 2'000'000;
  /// Default idle period after which keep_alive() sends a heartbeat.
  static constexpr TimeMicros kHeartbeatPeriodUs = 1'000'000;

  /// `link` must outlive the client and carry its frames here (its sink
  /// calls send()); `poller` is the caller's readiness wait; the peer
  /// listens on host:port.
  UpstreamClient(UpstreamLink& link, net::Poller& poller, std::string host, std::uint16_t port,
                 const ReconnectConfig& reconnect = {});
  UpstreamClient(const UpstreamClient&) = delete;
  UpstreamClient& operator=(const UpstreamClient&) = delete;

  /// Connects and says HELLO. The initial connection must succeed; later
  /// losses are survived by the reconnect schedule.
  Status open();

  /// Frames one payload toward the peer. On a transport error the
  /// connection is dropped (reconnect follows) and the error returned;
  /// Errc::closed while the link is down.
  Status send(ByteSpan frame);

  /// One pass of connection upkeep: a due reconnect attempt, then (while
  /// connected) the deferred outbox flush and the inbound frames, which go
  /// to the link. Returns an error only when the session is over: the peer
  /// sent BYE (the link's saw_bye()) or the reconnect budget ran out.
  Status service();

  /// Sends a heartbeat once no outbound frame left for
  /// `heartbeat_period_us`, and drops the connection once the peer has been
  /// silent past `silence_timeout_us` (0 disables either). Call once per
  /// cycle after the caller's own sends.
  void keep_alive(TimeMicros heartbeat_period_us = kHeartbeatPeriodUs,
                  TimeMicros silence_timeout_us = 0);

  /// Drops the connection and arms the reconnect schedule (no-op when down).
  void disconnect();

  /// Installs a frame-level fault policy on the outbound path.
  void set_fault_policy(net::FaultPolicy policy) { fault_.set_policy(std::move(policy)); }
  [[nodiscard]] const net::FaultStats& fault_stats() const noexcept { return fault_.stats(); }

  /// Flight recorder for watermark_stall and reconnect events. May be set
  /// from any thread; null detaches.
  void set_flight_recorder(metrics::FlightRecorder* flight) noexcept {
    flight_.store(flight, std::memory_order_release);
  }

  [[nodiscard]] bool connected() const noexcept { return connected_; }
  /// True while no deferred outbound bytes remain.
  [[nodiscard]] bool flushed() const noexcept { return outbox_.empty(); }
  [[nodiscard]] std::uint64_t reconnects() const noexcept { return reconnects_; }

 private:
  /// Connects a fresh socket and registers it with the poller.
  Status dial();
  Status watch();
  /// Blocking, bounded retry for a frame that found the outbox at its cap.
  Status send_stalled(ByteSpan frame);
  void update_write_interest();
  /// Reads everything the socket holds and hands complete frames to the link.
  Status read_frames();
  void maybe_reconnect();
  void record(sensors::EventKind kind, std::uint64_t value);

  UpstreamLink& link_;
  net::Poller& poller_;
  std::string host_;
  std::uint16_t port_ = 0;
  net::TcpSocket socket_;
  net::FaultySocket fault_;
  net::FrameReader frame_reader_;
  net::FrameSendBuffer outbox_{kOutboxBytes};
  ReconnectSchedule reconnect_;
  std::atomic<metrics::FlightRecorder*> flight_{nullptr};
  bool connected_ = false;
  bool gave_up_ = false;
  bool want_writable_ = false;
  /// Readiness the poller reported since the last service().
  net::Readiness ready_ = net::Readiness::none;
  TimeMicros last_rx_us_ = 0;  // monotonic, any inbound bytes
  TimeMicros last_tx_us_ = 0;  // monotonic, any outbound frame
  std::uint64_t reconnects_ = 0;
};

}  // namespace brisk::tp
