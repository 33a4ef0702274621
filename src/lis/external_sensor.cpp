#include "lis/external_sensor.hpp"

#include <unistd.h>

#include <algorithm>

#include "common/logging.hpp"
#include "common/time_util.hpp"
#include "sensors/record_codec.hpp"

namespace brisk::lis {

tp::LinkConfig ExsCore::make_link_config(const ExsConfig& config) {
  tp::LinkConfig link;
  link.node = config.node;
  link.incarnation = config.incarnation;
  // drain_rings releases each node's records oldest-first.
  link.capabilities = tp::kCapabilityTimestampOrdered;
  link.replay_batches = config.replay_buffer_batches;
  link.replay_bytes = config.replay_buffer_bytes;
  return link;
}

ExsCore::ExsCore(const ExsConfig& config, shm::MultiRing rings, clk::Clock& clock,
                 FrameSink sink)
    : config_(config),
      rings_(rings),
      clock_(clock),
      batcher_(config, clock,
               [this](ByteBuffer payload) { return link_.ship_batch(std::move(payload)); }),
      link_(make_link_config(config), clock, std::move(sink)),
      flight_("exs-" + std::to_string(config.node)) {
  drain_scratch_.reserve(sensors::kMaxNativeRecordBytes);
  // Window-aware flush: never build a batch the granted window cannot take
  // whole (0 keeps the configured maximum — the link's progress guarantee
  // covers the rare oversized leftover).
  link_.set_window_observer(
      [this](std::uint32_t window_records, std::uint64_t) {
        batcher_.set_record_cap(window_records);
      });
  // Bridge the existing stats counters into the registry; the collector
  // runs on whatever thread snapshots (the EXS loop thread in daemons).
  metrics_.add_collector([this](metrics::SnapshotBuilder& out) {
    const ExsStats s = stats();
    out.counter("exs.records_forwarded", s.records_forwarded);
    out.counter("exs.batches_sent", s.batches_sent);
    out.counter("exs.bytes_sent", s.bytes_sent);
    out.counter("exs.ring_drops_seen", s.ring_drops_seen);
    out.counter("exs.transcode_errors", s.transcode_errors);
    out.counter("exs.intra_node_inversions", s.intra_node_inversions);
    out.counter("exs.sync_polls_answered", s.sync_polls_answered);
    out.counter("exs.sync_adjustments", s.sync_adjustments);
    out.counter("exs.reconnects", s.reconnects);
    out.counter("exs.batches_replayed", s.batches_replayed);
    out.counter("exs.replay_evictions", s.replay_evictions);
    out.counter("exs.heartbeats_sent", s.heartbeats_sent);
    out.counter("exs.acks_received", s.acks_received);
    out.gauge("exs.replay_pending", s.replay_pending);
    out.gauge("exs.correction_us", static_cast<std::uint64_t>(s.correction_us));
    out.counter("exs.credit_grants", s.credit_grants_received);
    out.counter("exs.paced_batches", s.paced_batches);
    out.counter("exs.credit_stalled_ms",
                static_cast<std::uint64_t>(s.credit_stalled_us) / 1000);
    out.gauge("exs.credit_window_records", s.credit_window_records);
    out.gauge("exs.credit_window_bytes", s.credit_window_bytes);
  });
}

void ExsCore::attach_heads() {
  const std::uint32_t slots = rings_.claimed_slots();
  heads_.clear();
  std::uint64_t ring_dropped = 0;
  for (std::uint32_t i = 0; i < slots; ++i) {
    auto ring = rings_.slot(i);
    if (!ring) continue;
    ring_dropped += ring.value().stats().dropped;
    heads_.push_back(RingHead{ring.value()});
  }
  batcher_.set_ring_dropped_total(ring_dropped);
}

void ExsCore::peek_empty_heads() noexcept {
  for (RingHead& head : heads_) {
    if (head.ready) continue;
    ByteSpan record;
    if (!head.ring.peek(record)) continue;
    head.ready = true;
    // A short head cannot carry a stamp; ordering it first sends it to the
    // transcode-error path at once instead of parking it behind the rest.
    head.stamp = record.size() < sensors::kNativeHeaderBytes
                     ? std::numeric_limits<TimeMicros>::min()
                     : sensors::native_timestamp(record);
  }
}

std::size_t ExsCore::oldest_head(TimeMicros now) const noexcept {
  std::size_t oldest = heads_.size();
  TimeMicros oldest_key = 0;
  for (std::size_t i = 0; i < heads_.size(); ++i) {
    if (!heads_[i].ready) continue;
    // A head stamped ahead of the EXS clock orders as now, so a skewed
    // producer cannot be starved by a chatty one. Strict < keeps the lower
    // slot on a tie.
    const TimeMicros key = std::min(heads_[i].stamp, now);
    if (oldest == heads_.size() || key < oldest_key) {
      oldest = i;
      oldest_key = key;
    }
  }
  return oldest;
}

Result<std::size_t> ExsCore::drain_rings() {
  attach_heads();
  std::size_t drained = 0;
  TimeMicros now = clock_.now();
  // Oldest-head-first k-way merge: only the ring just popped and the rings
  // that were empty are peeked again; every other head is unchanged.
  while (drained < config_.drain_burst) {
    peek_empty_heads();
    std::size_t pick = oldest_head(now);
    if (pick == heads_.size()) break;
    if (heads_[pick].stamp > now) {
      // Ahead of the clock read at the start: re-read it before clamping.
      now = clock_.now();
      pick = oldest_head(now);
    }
    RingHead& head = heads_[pick];
    head.ready = false;
    drain_scratch_.clear();
    if (!head.ring.try_pop(drain_scratch_)) continue;
    ++drained;
    const ByteSpan record{drain_scratch_.data(), drain_scratch_.size()};
    if (record.size() >= sensors::kNativeHeaderBytes) {
      if (head.stamp < high_water_) ++intra_node_inversions_;
      high_water_ = std::max(high_water_, head.stamp);
    }
    if (sensors::native_trace_present(record)) {
      // Node-clock stamp; the transcode below shifts every trace stamp by
      // the correction along with the record timestamp.
      (void)sensors::stamp_native_trace(drain_scratch_, sensors::TraceStage::exs_drain,
                                        clock_.now());
    }
    Status st = batcher_.add_native_record(
        ByteSpan{drain_scratch_.data(), drain_scratch_.size()}, link_.correction());
    if (!st) {
      ++transcode_errors_;
      BRISK_LOG_WARN << "EXS transcode failed: " << st.to_string();
    } else {
      ++records_forwarded_;
    }
  }
  return drained;
}

TimeMicros ExsCore::wait_us() const noexcept {
  const TimeMicros cap = config_.select_timeout_us;
  if (config_.batch_max_age_us == 0) return cap;
  if (batcher_.pending_records() == 0) return std::min(cap, config_.batch_max_age_us);
  return std::clamp(batcher_.due_at() - clock_.now(), TimeMicros{0}, cap);
}

Status ExsCore::emit_metrics() {
  const auto samples = metrics_.snapshot();
  auto records = metrics::snapshot_to_records(samples, config_.node, clock_.now(),
                                              metrics_sequence_);
  for (const auto& record : records) {
    auto native = sensors::encode_native(record);
    if (!native) {
      ++transcode_errors_;
      continue;
    }
    // Through the batcher like any drained ring record: same correction,
    // same batching, same replay coverage across reconnects.
    Status st = batcher_.add_native_record(native.value().view(), link_.correction());
    if (!st) return st;
    ++records_forwarded_;
  }
  // Flight events ride out with the snapshot, stamped with the snapshot
  // time (the at_us field keeps the true event time).
  for (const metrics::FlightEvent& event : flight_.drain_new(flight_cursor_)) {
    auto record = sensors::make_event_record(config_.node, metrics_sequence_++, clock_.now(),
                                             event.kind, event.subject, event.value, event.at);
    auto native = sensors::encode_native(record);
    if (!native) {
      ++transcode_errors_;
      continue;
    }
    Status st = batcher_.add_native_record(native.value().view(), link_.correction());
    if (!st) return st;
    ++records_forwarded_;
  }
  return Status::ok();
}

ExsStats ExsCore::stats() const noexcept {
  const tp::LinkStats up = link_.stats();
  ExsStats s;
  s.records_forwarded = records_forwarded_;
  s.batches_sent = batcher_.batches_sent();
  s.bytes_sent = batcher_.bytes_sent();
  s.ring_drops_seen = const_cast<shm::MultiRing&>(rings_).total_stats().dropped;
  s.transcode_errors = transcode_errors_;
  s.intra_node_inversions = intra_node_inversions_;
  s.sync_polls_answered = up.sync_polls_answered;
  s.sync_adjustments = up.sync_adjustments;
  s.correction_us = link_.correction();
  s.reconnects = up.reconnects;
  s.batches_replayed = up.batches_replayed;
  s.replay_evictions = up.replay_evictions;
  s.heartbeats_sent = up.heartbeats_sent;
  s.acks_received = up.acks_received;
  s.replay_pending = up.replay_pending;
  s.credit_grants_received = up.credit_grants_received;
  s.paced_batches = up.paced_batches;
  s.credit_stalled_us = up.credit_stalled_us;
  s.credit_window_records = up.credit_window_records;
  s.credit_window_bytes = up.credit_window_bytes;
  return s;
}

// ---- ExternalSensor ---------------------------------------------------------

namespace {

tp::ReconnectConfig make_reconnect_config(const ExsConfig& config) {
  tp::ReconnectConfig reconnect;
  reconnect.backoff_base_us = config.reconnect_backoff_base_us;
  reconnect.backoff_cap_us = config.reconnect_backoff_cap_us;
  reconnect.jitter = config.reconnect_jitter;
  reconnect.max_attempts = config.max_reconnect_attempts;
  return reconnect;
}

}  // namespace

ExternalSensor::ExternalSensor(const ExsConfig& config, shm::MultiRing rings,
                               clk::Clock& clock, const std::string& ism_host,
                               std::uint16_t ism_port)
    : config_(config),
      loop_(net::make_poller(config.poller)),
      core_(config, rings, clock,
            [this](ByteBuffer payload) {
              // Transport loss is survived by the reconnect loop; the caller
              // (drain/flush) must not treat it as a fatal error.
              (void)client_.send(payload.view());
              return Status::ok();
            }),
      client_(core_.link(), *loop_, ism_host, ism_port, make_reconnect_config(config)) {
  client_.set_flight_recorder(&core_.flight());
}

Result<std::unique_ptr<ExternalSensor>> ExternalSensor::connect(
    const ExsConfig& config, shm::MultiRing rings, clk::Clock& clock,
    const std::string& ism_host, std::uint16_t ism_port) {
  Status valid = config.validate();
  if (!valid) return valid;
  ExsConfig effective = config;
  if (effective.incarnation == 0) {
    // One process lifetime = one incarnation; lets the ISM tell a reconnect
    // of the same EXS (resume the batch_seq cursor) from a restarted one
    // (start over at zero).
    effective.incarnation =
        (static_cast<std::uint64_t>(::getpid()) << 32) ^
        static_cast<std::uint64_t>(monotonic_micros());
    if (effective.incarnation == 0) effective.incarnation = 1;
  }
  auto exs = std::unique_ptr<ExternalSensor>(
      new ExternalSensor(effective, rings, clock, ism_host, ism_port));
  Status st = exs->client_.open();
  if (!st) return st;
  ExternalSensor* raw = exs.get();
  exs->loop_->set_idle([raw] {
    Status cy = raw->cycle();
    if (!cy) {
      BRISK_LOG_ERROR << "EXS cycle failed: " << cy.to_string();
      raw->loop_->stop();
    }
  });
  return exs;
}

Status ExternalSensor::cycle() {
  if (metrics::consume_flight_dump_request()) metrics::dump_flight_recorders(stderr);
  if (!client_.service()) {
    // The ISM said BYE or the reconnect budget ran out: the session is over.
    loop_->stop();
    return Status::ok();
  }
  // Rings keep draining while the link is down: records flow into batches
  // and batches into the bounded replay buffer, whose evictions (if any)
  // are the declared loss.
  auto drained = core_.drain_rings();
  if (!drained) return drained.status();
  Status st = core_.maybe_flush();
  if (!st) return st;
  client_.keep_alive(config_.heartbeat_period_us, config_.ism_silence_timeout_us);
  if (config_.metrics_interval_us > 0) {
    const TimeMicros now = monotonic_micros();
    if (last_metrics_us_ == 0) {
      last_metrics_us_ = now;  // baseline: first snapshot one interval in
    } else if (now - last_metrics_us_ >= config_.metrics_interval_us) {
      last_metrics_us_ = now;
      Status em = core_.emit_metrics();
      if (!em) return em;
    }
  }
  return Status::ok();
}

Status ExternalSensor::run() {
  return loop_->run([this] { return core_.wait_us(); });
}

Status ExternalSensor::run_for(TimeMicros duration) {
  const TimeMicros deadline = monotonic_micros() + duration;
  while (monotonic_micros() < deadline && !loop_->stopped()) {
    auto polled = loop_->poll_once(core_.wait_us());
    if (!polled) return polled.status();
  }
  return Status::ok();
}

}  // namespace brisk::lis
