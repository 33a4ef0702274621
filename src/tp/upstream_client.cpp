#include "tp/upstream_client.hpp"

#include <utility>

#include "common/logging.hpp"
#include "common/time_util.hpp"

namespace brisk::tp {

UpstreamClient::UpstreamClient(UpstreamLink& link, net::Poller& poller, std::string host,
                               std::uint16_t port, const ReconnectConfig& reconnect)
    : link_(link),
      poller_(poller),
      host_(std::move(host)),
      port_(port),
      reconnect_(reconnect, link.config().node ^ link.config().incarnation) {}

Status UpstreamClient::open() {
  Status st = dial();
  if (!st) return st;
  st = link_.send_hello();
  if (!st) return st;
  if (!connected_) return Status(Errc::closed, "upstream connection lost during hello");
  return Status::ok();
}

Status UpstreamClient::dial() {
  auto socket = net::TcpSocket::connect(host_, port_);
  if (!socket) return socket.status();
  net::TcpSocket fresh = std::move(socket).value();
  Status st = fresh.set_nodelay(true);
  if (st) st = fresh.set_nonblocking(true);
  if (!st) return st;
  socket_ = std::move(fresh);
  st = watch();
  if (!st) {
    socket_.close();
    return st;
  }
  connected_ = true;
  last_rx_us_ = monotonic_micros();
  return Status::ok();
}

Status UpstreamClient::watch() {
  net::Readiness interest = net::Readiness::readable;
  if (want_writable_) interest = interest | net::Readiness::writable;
  // Record-only callback: service() does the socket work, on the caller's
  // schedule (and, for the relay, under the caller's lock).
  return poller_.watch(socket_.fd(), interest,
                       [this](int, net::Readiness ready) { ready_ = ready_ | ready; });
}

Status UpstreamClient::send(ByteSpan frame) {
  if (!connected_) return Status(Errc::closed, "upstream link is down");
  Status st = fault_.write_frame(socket_, outbox_, frame);
  if (st.code() == Errc::buffer_full) st = send_stalled(frame);
  if (!st) {
    BRISK_LOG_WARN << "node " << link_.config().node << ": upstream send failed: "
                   << st.to_string();
    disconnect();
    return st;
  }
  last_tx_us_ = monotonic_micros();
  update_write_interest();
  return Status::ok();
}

Status UpstreamClient::send_stalled(ByteSpan frame) {
  // The outbox itself is at its cap: the peer has stopped reading well past
  // one kernel buffer of data. Block here — bounded — so the backpressure
  // reaches the caller; past the deadline the link counts as lost.
  const TimeMicros deadline = monotonic_micros() + kSendStallTimeoutUs;
  record(sensors::EventKind::watermark_stall, outbox_.pending_bytes());
  for (;;) {
    Status st = outbox_.pump(socket_);
    if (!st) return st;
    // The fault decision for this frame already ran; the retry enqueues the
    // surviving payload directly.
    st = outbox_.enqueue_frame(frame);
    if (st.code() != Errc::buffer_full) return st ? outbox_.pump(socket_) : st;
    if (monotonic_micros() >= deadline) {
      return Status(Errc::timeout, "upstream outbox wedged past the send stall timeout");
    }
    sleep_micros(1'000);
  }
}

void UpstreamClient::update_write_interest() {
  const bool want = !outbox_.empty();
  if (want == want_writable_ || !connected_) return;
  want_writable_ = want;
  // Upsert with the new mask; if that fails, service()'s flush still
  // drains the outbox on the next cycle.
  if (!watch() && want) want_writable_ = false;
}

Status UpstreamClient::service() {
  if (!connected_) {
    if (!gave_up_) maybe_reconnect();
    if (gave_up_) return Status(Errc::closed, "upstream reconnect attempts exhausted");
    return Status::ok();
  }
  const net::Readiness ready = std::exchange(ready_, net::Readiness::none);
  if (!outbox_.empty()) {
    Status st = outbox_.pump(socket_);
    if (!st) {
      BRISK_LOG_WARN << "node " << link_.config().node
                     << ": upstream outbox flush failed: " << st.to_string();
      disconnect();
      return Status::ok();
    }
    if (outbox_.empty()) last_tx_us_ = monotonic_micros();
    update_write_interest();
  }
  if (!any(ready & net::Readiness::readable)) return Status::ok();
  Status st = read_frames();
  if (st) return st;
  if (link_.saw_bye()) return st;  // clean shutdown: no reconnect
  BRISK_LOG_WARN << "node " << link_.config().node << ": upstream link error: "
                 << st.to_string();
  disconnect();
  return Status::ok();
}

Status UpstreamClient::read_frames() {
  std::uint8_t chunk[16 * 1024];
  for (;;) {
    auto n = socket_.read_some(MutableByteSpan{chunk, sizeof chunk});
    if (!n) {
      if (n.status().code() == Errc::would_block) return Status::ok();
      return n.status();
    }
    if (n.value() == 0) return Status(Errc::closed, "upstream peer closed the connection");
    last_rx_us_ = monotonic_micros();
    frame_reader_.feed(ByteSpan{chunk, n.value()});
    for (;;) {
      auto frame = frame_reader_.next();
      if (!frame) return frame.status();
      if (!frame.value().has_value()) break;
      Status st = link_.handle_frame(frame.value()->view());
      if (!st) return st;
      // A reply the link sent may have cost the connection.
      if (!connected_) return Status::ok();
    }
  }
}

void UpstreamClient::keep_alive(TimeMicros heartbeat_period_us,
                                TimeMicros silence_timeout_us) {
  if (!connected_) return;
  const TimeMicros now = monotonic_micros();
  if (heartbeat_period_us > 0 && now - last_tx_us_ >= heartbeat_period_us) {
    (void)link_.send_heartbeat();
  }
  // The heartbeat itself may have cost the connection.
  if (connected_ && silence_timeout_us > 0 && now - last_rx_us_ > silence_timeout_us) {
    BRISK_LOG_WARN << "node " << link_.config().node
                   << ": upstream peer silent past timeout, dropping half-open link";
    disconnect();
  }
}

void UpstreamClient::disconnect() {
  if (!connected_) return;
  connected_ = false;
  (void)poller_.unwatch(socket_.fd());
  socket_.close();
  frame_reader_ = net::FrameReader{};
  // Deferred frames die with the connection; the replay buffer re-ships
  // everything that matters after the reconnect handshake.
  outbox_ = net::FrameSendBuffer(kOutboxBytes);
  want_writable_ = false;
  ready_ = net::Readiness::none;
  link_.on_disconnect();
  reconnect_.arm(monotonic_micros());  // first retry on the next cycle
  BRISK_LOG_WARN << "node " << link_.config().node
                 << ": lost ISM connection, entering reconnect";
}

void UpstreamClient::maybe_reconnect() {
  if (!reconnect_.due(monotonic_micros())) return;
  if (dial()) {
    reconnect_.record_success();
    ++reconnects_;
    record(sensors::EventKind::reconnect, reconnects_);
    BRISK_LOG_INFO << "node " << link_.config().node << ": reconnected to ISM";
    // Re-hello; the HELLO_ACK cursor triggers replay of unacked batches.
    (void)link_.on_reconnected();
    return;
  }
  if (!reconnect_.record_failure(monotonic_micros())) {
    BRISK_LOG_ERROR << "node " << link_.config().node << ": giving up after "
                    << reconnect_.failed_attempts() << " reconnect attempts";
    gave_up_ = true;
  }
}

void UpstreamClient::record(sensors::EventKind kind, std::uint64_t value) {
  if (metrics::FlightRecorder* flight = flight_.load(std::memory_order_acquire)) {
    flight->record(kind, link_.config().node, value, link_.corrected_now());
  }
}

}  // namespace brisk::tp
