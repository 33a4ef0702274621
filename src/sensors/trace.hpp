// Sampled end-to-end record tracing.
//
// A record selected by the node's trace sample rate carries a compact trace
// annotation — a 64-bit trace id plus a list of (stage, timestamp) stamps —
// appended to its native encoding and transcoded onto the wire as an
// optional meta-header extension. Each pipeline stage that handles the
// record adds one stamp; the EXS applies its clock-sync correction to the
// node-side stamps when it transcodes the record, so stamps taken on
// different machines are directly comparable at the ISM.
//
// The annotation never reaches a data sink: the ISM strips it at sink
// delivery, feeds the stage-pair deltas into latency histograms, and emits
// the full span list as a separate reserved-sensor trace record (see
// trace_record.hpp), so data-record bytes are identical with tracing on
// and off.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace brisk::sensors {

/// The stage taxonomy, in pipeline order. Stamps are not required to be
/// present for every stage (a stage only stamps records that pass through
/// it), but any stamps present appear in this order.
enum class TraceStage : std::uint8_t {
  ring_enqueue = 0,    // NOTICE macro pushed the record into the shm ring
  exs_drain = 1,       // EXS popped it off the ring
  batch_seal = 2,      // batcher sealed the batch containing it
  tp_send = 3,         // batch handed to the transfer-protocol socket
  ism_ingest = 4,      // ISM ordering thread admitted the decoded record
  sorter_release = 5,  // shard's on-line sorter released it (order-safe)
  merge_release = 6,   // k-way merge released it into global order
  cre_pass = 7,        // CRE matcher passed it through
  sink_delivery = 8,   // handed to the output sink
};

inline constexpr std::size_t kTraceStageCount = 9;
/// Upper bound on stamps one record can carry (stages may stamp at most
/// once each; the bound leaves headroom for future stages).
inline constexpr std::size_t kMaxTraceStamps = 16;

/// Short token used in metric series names and tables ("ring", "drain", ...).
[[nodiscard]] const char* trace_stage_token(TraceStage stage) noexcept;
/// Human-readable stage name ("ring enqueue", "EXS drain", ...).
[[nodiscard]] const char* trace_stage_name(TraceStage stage) noexcept;

struct TraceStamp {
  TraceStage stage = TraceStage::ring_enqueue;
  TimeMicros at = 0;

  bool operator==(const TraceStamp&) const noexcept = default;
};

/// The annotation a sampled record carries through the pipeline.
struct TraceAnnotation {
  std::uint64_t trace_id = 0;
  std::vector<TraceStamp> stamps;

  /// Appends a stamp (dropped silently once kMaxTraceStamps is reached —
  /// a truncated span list is better than an oversize record).
  void stamp(TraceStage stage, TimeMicros at);

  /// Latest stamp for `stage`, or nullptr.
  [[nodiscard]] const TraceStamp* find(TraceStage stage) const noexcept;

  bool operator==(const TraceAnnotation&) const noexcept = default;
};

/// Deterministic per-record sampling decision. Hash-based (not RNG-based)
/// so identical runs trace identical records — the determinism grid relies
/// on this. `rate` outside (0, 1) means never / always.
[[nodiscard]] bool trace_sampled(NodeId node, SensorId sensor, SequenceNo sequence,
                                 double rate) noexcept;

/// The trace id for a sampled record: a mix of (node, sensor, sequence),
/// unique per record for any realistic run length.
[[nodiscard]] std::uint64_t make_trace_id(NodeId node, SensorId sensor,
                                          SequenceNo sequence) noexcept;

}  // namespace brisk::sensors
