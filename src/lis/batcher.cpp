#include "lis/batcher.hpp"

#include <algorithm>

#include "sensors/record_codec.hpp"

namespace brisk::lis {

Batcher::Batcher(const ExsConfig& config, clk::Clock& clock, BatchSink sink)
    : config_(config), clock_(clock), sink_(std::move(sink)), builder_(config.node) {}

Status Batcher::add_native_record(ByteSpan native, TimeMicros ts_delta) {
  // A record that would blow the byte limit ships the current batch first.
  if (!builder_.empty() &&
      builder_.payload_bytes() + native.size() > config_.batch_max_bytes) {
    Status st = flush();
    if (!st) return st;
  }
  const bool opens_batch = builder_.empty();
  last_ts_delta_ = ts_delta;
  Status st = builder_.add_native_record(native, ts_delta);
  if (!st) return st;
  // The builder validated the header, so the raw (uncorrected) node-clock
  // NOTICE stamp is readable. Clamping the first stamp bounds the whole
  // batch's minimum by the clock, so later records need no clock read.
  const TimeMicros noticed = sensors::native_timestamp(native);
  oldest_notice_at_ = opens_batch ? std::min(noticed, clock_.now())
                                  : std::min(noticed, oldest_notice_at_);
  if (builder_.record_count() >= effective_max_records()) return flush();
  return Status::ok();
}

Status Batcher::maybe_flush() {
  if (builder_.empty()) return Status::ok();
  if (clock_.now() >= due_at()) return flush();
  return Status::ok();
}

Status Batcher::flush() {
  if (builder_.empty()) return Status::ok();
  builder_.set_ring_dropped_total(ring_dropped_total_);
  // Both stamps read the clock separately: seal marks the batch closing,
  // send marks the hand-off to the transport immediately after. A batch
  // replayed later keeps its first-send stamp (best effort).
  const TimeMicros seal_at = clock_.now() + last_ts_delta_;
  const TimeMicros send_at = clock_.now() + last_ts_delta_;
  builder_.patch_trace_stamps(seal_at, send_at);
  ByteBuffer payload = builder_.finish();
  const std::size_t bytes = payload.size();
  Status st = sink_(std::move(payload));
  if (!st) return st;
  ++batches_sent_;
  bytes_sent_ += bytes;
  return Status::ok();
}

}  // namespace brisk::lis
