// Diagnostic flight recorder: a lock-light fixed-size ring of structured
// events (see sensors/event_record.hpp for the taxonomy) recorded at the
// daemons' existing decision points — session reap/quarantine/rejoin,
// zero-window grants, lane and queue drops, subscriber eviction, watermark
// stalls, reconnects.
//
// Writers claim a slot with one relaxed fetch_add and publish it with a
// release store of the slot's stamp; every slot field is a relaxed atomic,
// so any thread may record and any thread may read concurrently without a
// mutex on the hot path (a reader that races a writer simply skips the
// in-flight slot). The ring overwrites oldest-first: the recorder is a
// crash-dump aid and an event feed, not a lossless log — total_recorded()
// minus the ring size says how much history was overwritten.
//
// Three consumers:
//  * dump(FILE*) — the human-readable table, wired to SIGUSR1 and the
//    daemons' fatal-exit paths via the process-wide registry below;
//  * drain_new(cursor) — the 0xFF03 emission feed: returns events recorded
//    after the cursor and advances it, so periodic snapshots ship each
//    event exactly once through the normal record path;
//  * snapshot() — everything still in the ring, oldest first (tests).
#pragma once

#include <atomic>
#include <cstdio>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "sensors/event_record.hpp"

namespace brisk::metrics {

/// One recorded event. `at` is the recording clock's timestamp (the
/// emitting daemon's clock, so the 0xFF03 record timestamp is the event
/// time).
struct FlightEvent {
  sensors::EventKind kind = sensors::EventKind::session_reaped;
  std::uint64_t subject = 0;
  std::uint64_t value = 0;
  TimeMicros at = 0;
};

class FlightRecorder {
 public:
  /// `name` labels this recorder in dumps ("ism", "exs-7", "relay-1000").
  /// Construction registers the recorder in the process-wide dump registry;
  /// destruction unregisters it.
  explicit FlightRecorder(std::string name, std::size_t capacity = 256);
  ~FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Records one event. Lock-free: one fetch_add plus relaxed stores.
  void record(sensors::EventKind kind, std::uint64_t subject, std::uint64_t value,
              TimeMicros at) noexcept;

  /// Events recorded so far (monotone; exceeds the ring size once the ring
  /// wraps).
  [[nodiscard]] std::uint64_t total_recorded() const noexcept {
    return head_.load(std::memory_order_acquire);
  }

  /// Everything still in the ring, oldest first. Slots being written while
  /// the reader passes are skipped.
  [[nodiscard]] std::vector<FlightEvent> snapshot() const;

  /// Events recorded after `cursor`, oldest first; advances the cursor to
  /// the current head. Events overwritten before the reader got to them are
  /// silently skipped (the cursor jumps over them).
  [[nodiscard]] std::vector<FlightEvent> drain_new(std::uint64_t& cursor) const;

  /// Human-readable table of the ring's contents.
  void dump(std::FILE* out) const;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  struct Slot {
    /// 0 = never written; otherwise 1 + the event's global index while the
    /// payload below is valid. Writers store the claim (release) after the
    /// payload; readers verify the stamp before and after reading.
    std::atomic<std::uint64_t> stamp{0};
    std::atomic<std::uint8_t> kind{0};
    std::atomic<std::uint64_t> subject{0};
    std::atomic<std::uint64_t> value{0};
    std::atomic<std::int64_t> at{0};
  };

  /// Reads slot `index`'s event if it is (still) the event at global index
  /// `expect`; false when a writer overwrote or is mid-write.
  bool read_slot(std::uint64_t expect, FlightEvent& out) const;

  std::string name_;
  std::vector<Slot> slots_;
  std::atomic<std::uint64_t> head_{0};
};

/// Async-signal-safe request for a dump of every registered recorder: the
/// daemons' SIGUSR1 handlers call this, and the event loops poll
/// consume_flight_dump_request() between cycles.
void request_flight_dump() noexcept;
/// True exactly once per request_flight_dump() (consumes the flag).
[[nodiscard]] bool consume_flight_dump_request() noexcept;
/// Dumps every live recorder in registration order (SIGUSR1 and the
/// fatal-exit paths).
void dump_flight_recorders(std::FILE* out);

}  // namespace brisk::metrics
