// Batching with latency control (the "batching, latency control" box of the
// EXS in Fig. 1). Wraps a tp::BatchBuilder with the flush policy: a batch
// goes out when it reaches the record/byte limits or when its oldest record
// exceeds the age limit. Age counts from the record's NOTICE timestamp, not
// from when the EXS drained it, so the time a record sat in the ring counts
// against the limit too.
#pragma once

#include <functional>

#include "clock/clock.hpp"
#include "lis/exs_config.hpp"
#include "tp/batch.hpp"

namespace brisk::lis {

/// Receives finished batch frame payloads (the socket writer in production,
/// a capture vector in tests).
using BatchSink = std::function<Status(ByteBuffer batch_payload)>;

class Batcher {
 public:
  Batcher(const ExsConfig& config, clk::Clock& clock, BatchSink sink);

  /// Adds one native record (with the current clock correction applied).
  /// Flushes first if the record would overflow the byte limit, and after
  /// if the record limit is reached.
  Status add_native_record(ByteSpan native, TimeMicros ts_delta);

  /// Flushes if the open batch is due (see due_at()). Call once per loop
  /// cycle.
  Status maybe_flush();

  /// Node-clock time at which the open batch is due to flush by age: its
  /// oldest record's NOTICE timestamp plus batch_max_age_us. Meaningless
  /// while the batch is empty.
  [[nodiscard]] TimeMicros due_at() const noexcept {
    return oldest_notice_at_ + config_.batch_max_age_us;
  }

  /// Unconditional flush of a non-empty batch.
  Status flush();

  void set_ring_dropped_total(std::uint64_t total) noexcept { ring_dropped_total_ = total; }

  /// Window-aware flush: caps the per-batch record count below the
  /// configured maximum so a batch never exceeds the granted flow-control
  /// window (a batch bigger than the whole window could otherwise never be
  /// sent). 0 restores the configured maximum.
  void set_record_cap(std::uint32_t cap) noexcept { record_cap_ = cap; }

  [[nodiscard]] std::uint32_t pending_records() const noexcept { return builder_.record_count(); }
  [[nodiscard]] std::uint64_t batches_sent() const noexcept { return batches_sent_; }
  [[nodiscard]] std::uint64_t bytes_sent() const noexcept { return bytes_sent_; }

 private:
  [[nodiscard]] std::uint32_t effective_max_records() const noexcept {
    return record_cap_ > 0 && record_cap_ < config_.batch_max_records
               ? record_cap_
               : config_.batch_max_records;
  }

  ExsConfig config_;
  clk::Clock& clock_;
  BatchSink sink_;
  tp::BatchBuilder builder_;
  std::uint32_t record_cap_ = 0;  // 0 = config_.batch_max_records
  /// Oldest NOTICE timestamp in the open batch. The first record's stamp is
  /// clamped to the clock, so a future-stamped record cannot defer a flush.
  TimeMicros oldest_notice_at_ = 0;
  /// Correction of the most recent record added; flush() uses it to stamp
  /// the batch_seal / tp_send trace slots in the synchronized timebase.
  TimeMicros last_ts_delta_ = 0;
  std::uint64_t ring_dropped_total_ = 0;
  std::uint64_t batches_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
};

}  // namespace brisk::lis
