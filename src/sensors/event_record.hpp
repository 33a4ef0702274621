// Flight-recorder event schema: structured diagnostic events (session
// lifecycle, flow-control pressure, drops, evictions, reconnects) emitted
// as ordinary records on a reserved sensor id, so the recorder rides the
// same pipeline it observes — the same treatment the metrics snapshots
// (0xFF01) and trace spans (0xFF02) get.
//
// An event record is a regular Record carrying kEventSensorId and exactly
// four fields:
//   [0] x_u8   event kind  (EventKind)
//   [1] x_u64  subject     (the node/fd/lane the event is about; 0 = none)
//   [2] x_u64  value       (kind-specific detail: a count, a window, a lag)
//   [3] x_u64  at_us       (when the event happened, emitter clock micros)
// The record's own node id names the emitting daemon (kIsmMetricsNodeId for
// a root ISM, the relay node id after relay re-stamping, the EXS node for
// sensor-side events). The record *timestamp* is the emission time, not the
// event time: events ride the ordering pipeline with the snapshot that
// carries them, and stamping them with a minutes-old event time would make
// each one a "late" record that inflates the adaptive delay window. The
// at_us field preserves the actual event time for consumers.
#pragma once

#include "common/error.hpp"
#include "common/types.hpp"
#include "sensors/metrics_record.hpp"
#include "sensors/record.hpp"

namespace brisk::sensors {

/// The flight-recorder event sensor (reserved band, after metrics 0xFF01
/// and trace spans 0xFF02).
inline constexpr SensorId kEventSensorId = kReservedSensorIdBase + 3;

/// What happened. Values are wire-stable: appended only, never reordered.
enum class EventKind : std::uint8_t {
  session_reaped = 0,      // peer idle timeout tore the connection down
  session_quarantined = 1, // unclean close; session parked for a rejoin
  session_rejoined = 2,    // same-incarnation reconnect resumed the cursor
  session_expired = 3,     // quarantine ran out; pending records drained OOB
  zero_window_grant = 4,   // credit grant closed the peer's window
  lane_drop = 5,           // bounded fan-out/ingest lane discarded a record
  queue_drop = 6,          // bounded queue discarded (sorter overflow etc.)
  subscriber_evicted = 7,  // gateway evicted a sustained-overrun consumer
  reader_migration = 8,    // no longer emitted; kept so old 0xFF03 streams decode
  watermark_stall = 9,     // egress/queue waited on a watermark or full queue
  reconnect = 10,          // upstream link lost and re-established
  batch_gap = 11,          // batch sequence hole declared lost
};

/// Highest valid EventKind value (decode bound).
inline constexpr std::uint8_t kMaxEventKind =
    static_cast<std::uint8_t>(EventKind::batch_gap);

/// Short stable token for logs and health tables ("reap", "rejoin", ...).
[[nodiscard]] const char* event_kind_token(EventKind kind) noexcept;

/// One decoded flight-recorder event.
struct EventPoint {
  EventKind kind = EventKind::session_reaped;
  std::uint64_t subject = 0;
  std::uint64_t value = 0;
  /// When the event happened (emitter clock, microseconds).
  TimeMicros at = 0;
};

[[nodiscard]] bool is_event_record(const Record& record) noexcept;

/// Builds one event record. `node` / `sequence` / `timestamp` are the
/// emitter's (timestamp = emission time); `at` is the event time.
[[nodiscard]] Record make_event_record(NodeId node, SequenceNo sequence,
                                       TimeMicros timestamp, EventKind kind,
                                       std::uint64_t subject, std::uint64_t value,
                                       TimeMicros at);

/// Decodes the schema above; Errc::malformed on anything else.
[[nodiscard]] Result<EventPoint> decode_event_record(const Record& record);

}  // namespace brisk::sensors
