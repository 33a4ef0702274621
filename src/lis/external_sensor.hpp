// The external sensor (EXS): the daemon half of the LIS.
//
// "The memory is read by an external sensor, which runs as another process
// on the same node and may be assigned a lower priority. Both the internal
// sensors and the external sensor form an LIS that sends instrumentation
// data to the ISM."
//
// Split in two layers:
//  * ExsCore — the node-side logic, deterministic and socket-free: drains
//    rings, batches, and applies the clock correction to every record on
//    its way out. The session machinery (HELLO/HELLO_ACK/BATCH_ACK,
//    go-back-N replay, credit pacing) and the clock-sync slave (TIME_REQ
//    replies, ADJUST folding) live in the shared tp::UpstreamLink — the same
//    link a relay ISM uses toward its parent. Tests drive the core directly.
//  * ExternalSensor — runs the core in the poller loop and binds its link to
//    the ISM through tp::UpstreamClient, the socket half a relay egress runs
//    too (outbox, stall-bounded send, reconnect on a backoff schedule,
//    heartbeats, silence timeout). While the link is down the core keeps
//    draining rings into the bounded replay buffer. This is what the
//    brisk_exs executable runs.
#pragma once

#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>

#include "clock/clock.hpp"
#include "lis/batcher.hpp"
#include "metrics/flight_recorder.hpp"
#include "metrics/metrics.hpp"
#include "lis/exs_config.hpp"
#include "net/faulty_socket.hpp"
#include "net/poller.hpp"
#include "shm/multi_ring.hpp"
#include "tp/upstream_client.hpp"
#include "tp/upstream_link.hpp"

namespace brisk::lis {

/// Sends a frame payload to the ISM.
using FrameSink = std::function<Status(ByteBuffer payload)>;

class ExsCore {
 public:
  /// `rings` is the node's sensor ring directory; `clock` is the node
  /// clock; `sink` carries frames to the ISM.
  ExsCore(const ExsConfig& config, shm::MultiRing rings, clk::Clock& clock, FrameSink sink);

  /// Drains up to config.drain_burst records across all claimed rings into
  /// the batcher, oldest head first: the ring whose next record carries the
  /// lowest NOTICE stamp goes next (a stamp ahead of the EXS clock orders
  /// as now, a head too short to carry one orders first, and a tie goes to
  /// the lower slot). Returns the number of records drained.
  Result<std::size_t> drain_rings();

  /// Age-based flush; call once per loop cycle.
  Status maybe_flush() { return batcher_.maybe_flush(); }

  /// How long the loop may wait before something is due: until the open
  /// batch's age deadline, or batch_max_age_us with no batch open, either
  /// capped at select_timeout_us. batch_max_age_us == 0 (flush every cycle)
  /// keeps the plain select_timeout_us wait.
  [[nodiscard]] TimeMicros wait_us() const noexcept;
  Status flush() { return batcher_.flush(); }

  /// Handles one frame from the ISM; see tp::UpstreamLink::handle_frame.
  Status handle_frame(ByteSpan payload) { return link_.handle_frame(payload); }

  /// Opens (or re-opens) the session; see tp::UpstreamLink::send_hello.
  Status send_hello() { return link_.send_hello(); }

  /// Snapshots the metrics registry into reserved-sensor-id records and
  /// feeds them through the batcher — metrics ship in-band, exactly like
  /// sensor records (batched, replayed, deduped).
  Status emit_metrics();

  /// Transport notifications from the daemon layer; see tp::UpstreamLink.
  void on_disconnect() noexcept { link_.on_disconnect(); }
  Status on_reconnected() { return link_.on_reconnected(); }

  /// The clock correction the sync protocol has accumulated; added to every
  /// record timestamp on its way out ("the raw local time ... is added to a
  /// correction value maintained by the EXS, before sending the record to
  /// the ISM").
  [[nodiscard]] TimeMicros correction() const noexcept { return link_.correction(); }

  /// True once the ISM sent BYE (clean shutdown, not a link failure).
  [[nodiscard]] bool saw_bye() const noexcept { return link_.saw_bye(); }
  /// True while batches are gated on a pending HELLO_ACK.
  [[nodiscard]] bool awaiting_ack() const noexcept { return link_.awaiting_ack(); }
  [[nodiscard]] const tp::ReplayBuffer& replay() const noexcept { return link_.replay(); }

  /// True once an ISM credit grant governs this session's sends (pacing on,
  /// replay enabled, and a grant for this incarnation has arrived).
  [[nodiscard]] bool pacing() const noexcept { return link_.pacing(); }
  /// Sent-but-unacknowledged records/bytes charged against the window.
  [[nodiscard]] std::uint64_t outstanding_records() const noexcept {
    return link_.outstanding_records();
  }
  [[nodiscard]] std::uint64_t outstanding_bytes() const noexcept {
    return link_.outstanding_bytes();
  }

  [[nodiscard]] ExsStats stats() const noexcept;
  [[nodiscard]] metrics::MetricsRegistry& metrics() noexcept { return metrics_; }
  /// The node's flight recorder; events drain into the 0xFF03 stream with
  /// each metrics snapshot (batched and replayed like any record).
  [[nodiscard]] metrics::FlightRecorder& flight() noexcept { return flight_; }
  [[nodiscard]] const ExsConfig& config() const noexcept { return config_; }
  [[nodiscard]] shm::MultiRing& rings() noexcept { return rings_; }
  [[nodiscard]] tp::UpstreamLink& link() noexcept { return link_; }

 private:
  static tp::LinkConfig make_link_config(const ExsConfig& config);

  /// One claimed ring as the drain merge sees it.
  struct RingHead {
    shm::RingBuffer ring;
    TimeMicros stamp = 0;  // head record's raw NOTICE stamp (valid if ready)
    bool ready = false;    // head peeked and present
  };

  /// Attaches every claimed ring into heads_ (nothing peeked yet) and hands
  /// the rings' drop total to the batcher.
  void attach_heads();
  /// Peeks the rings whose head is not cached.
  void peek_empty_heads() noexcept;
  /// Index of the ready head with the lowest order key, or heads_.size().
  [[nodiscard]] std::size_t oldest_head(TimeMicros now) const noexcept;

  ExsConfig config_;
  shm::MultiRing rings_;
  clk::Clock& clock_;
  Batcher batcher_;
  tp::UpstreamLink link_;
  std::uint64_t records_forwarded_ = 0;
  std::uint64_t transcode_errors_ = 0;
  metrics::MetricsRegistry metrics_;
  SequenceNo metrics_sequence_ = 0;
  metrics::FlightRecorder flight_;
  std::uint64_t flight_cursor_ = 0;
  std::vector<std::uint8_t> drain_scratch_;
  std::vector<RingHead> heads_;
  /// Highest NOTICE stamp drained so far; a drained record stamped below it
  /// is an intra-node inversion.
  TimeMicros high_water_ = std::numeric_limits<TimeMicros>::min();
  std::uint64_t intra_node_inversions_ = 0;
};

class ExternalSensor {
 public:
  /// Connects to the ISM and wires the core to the socket. The initial
  /// connection must succeed; later losses are survived by the backoff
  /// reconnect loop.
  static Result<std::unique_ptr<ExternalSensor>> connect(const ExsConfig& config,
                                                         shm::MultiRing rings,
                                                         clk::Clock& clock,
                                                         const std::string& ism_host,
                                                         std::uint16_t ism_port);

  /// Runs the poller loop until `stop()`, an ISM BYE, or (when
  /// max_reconnect_attempts > 0) the reconnect budget is exhausted. Each
  /// cycle waits ExsCore::wait_us() for readiness, then services the ISM
  /// link (reconnect, deferred sends, inbound frames), drains rings, flushes
  /// aged batches, and runs heartbeats and the silence check.
  Status run();
  /// Runs for at most `duration` (monotonic); for tests and benches.
  Status run_for(TimeMicros duration);
  void stop() noexcept { loop_->stop(); }

  /// Installs a frame-level fault policy on the outbound path (tests and
  /// the --fault-* flags of brisk_exs). Must be set before run().
  void set_fault_policy(net::FaultPolicy policy) { client_.set_fault_policy(std::move(policy)); }
  [[nodiscard]] const net::FaultStats& fault_stats() const noexcept {
    return client_.fault_stats();
  }

  [[nodiscard]] bool connected() const noexcept { return client_.connected(); }
  [[nodiscard]] std::uint64_t reconnects() const noexcept { return client_.reconnects(); }
  [[nodiscard]] ExsCore& core() noexcept { return core_; }

 private:
  ExternalSensor(const ExsConfig& config, shm::MultiRing rings, clk::Clock& clock,
                 const std::string& ism_host, std::uint16_t ism_port);

  Status cycle();

  ExsConfig config_;
  std::unique_ptr<net::Poller> loop_;
  ExsCore core_;
  tp::UpstreamClient client_;
  TimeMicros last_metrics_us_ = 0;  // monotonic, last metrics snapshot
};

}  // namespace brisk::lis
