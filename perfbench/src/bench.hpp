// Shared types of the BRISK benchmark runner (brisk_perfbench).
//
// The runner deploys a whole BRISK pipeline in one process through the
// public API (BriskNode/Sensor -> ExternalSensor -> BriskManager -> sink or
// GatewayClient), drives it from an open-loop generator, checks every
// delivered record, and reads each layer's public stats structs. Nothing in
// the library is modified or instrumented for it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace perfbench {

/// Monotonic nanoseconds (CLOCK_MONOTONIC), the benchmark's own timebase for
/// due times, deliveries and spans.
std::int64_t now_ns() noexcept;

/// splitmix64: the seeded, stable hash behind every generated input.
std::uint64_t mix64(std::uint64_t x) noexcept;

/// One workload: the deployment and the offered load. Every field that
/// differs between workloads is a knob the workload sets on purpose.
struct WorkloadSpec {
  std::string name;
  int nodes = 2;
  /// Producer rings (instrumented threads) per node.
  int producers_per_node = 1;
  /// Global record g belongs to stream pattern[g % pattern.size()], where
  /// stream = node_index * producers_per_node + producer.
  std::vector<int> pattern;
  /// Open loop: `burst` records are due every `tick_ns`.
  std::uint32_t burst = 0;
  std::int64_t tick_ns = 200'000;
  /// EXS batch age per node (microseconds).
  std::vector<brisk::TimeMicros> batch_age_us;
  std::uint32_t batch_max_records = 256;
  std::uint32_t ring_capacity = 4u << 20;
  std::size_t sorter_shards = 1;
  /// Half-life of the sorter's delay-window decay after a raise.
  double sorter_half_life_s = 1.0;
  /// skewed: cross-node reason -> consequence pairs.
  bool cre_pairs = false;
  /// fanout: three TCP gateway subscribers replace the in-process sink.
  bool gateway = false;
  /// catchup: records pre-filled per node before the EXS starts (0 = open
  /// loop).
  std::uint64_t backlog_per_node = 0;
  /// Trace sample rate of the traced pass.
  double trace_rate = 0.0;

  [[nodiscard]] int streams() const noexcept { return nodes * producers_per_node; }
  [[nodiscard]] double rate_per_sec() const noexcept {
    return static_cast<double>(burst) * 1e9 / static_cast<double>(tick_ns);
  }
};

/// Length of the windows open-loop CPU and ordering metrics are taken over.
inline constexpr std::int64_t kWindowNs = 250'000'000;
/// Length of the latency windows: short, so that a stall of the shared host
/// (several ms, a few times a second) touches a minority of them.
inline constexpr std::int64_t kLatencyWindowNs = 50'000'000;

/// Looks a workload up by name; false if unknown.
bool find_workload(const std::string& name, WorkloadSpec& out);
std::vector<std::string> workload_names();

/// A named number with its unit, in print order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// A benchmark-recorded span around one public call (kept in memory, written
/// at the end of a traced run).
struct Span {
  enum Kind : std::uint8_t { notice_burst, sink_callback, consumer_poll, setup, drain };
  Kind kind = notice_burst;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t count = 0;  // records handled inside the span
};

/// Everything one pass (one deployment driven for a stretch of time, or a
/// series of catch-up rounds) measured.
struct PassResult {
  // accounting
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;       // exactly once and in per-stream FIFO order
  std::uint64_t ring_drops = 0;      // NOTICEs the ring refused
  std::uint64_t duplicates = 0;
  std::uint64_t fifo_violations = 0;
  std::uint64_t cre_violations = 0;
  std::uint64_t cre_reordered = 0;    // held consequences delivered behind later records
  std::uint64_t agg_violations = 0;
  std::uint64_t sample_violations = 0;
  std::uint64_t unknown_records = 0;  // records the generator never offered
  std::uint64_t named_losses = 0;     // ring + sorter + gateway drops
  std::uint64_t out_of_order = 0;
  // timing
  std::vector<double> setup_s;
  std::vector<float> latency_us;      // due -> consumer, one per delivered record
  std::vector<double> catchup_evps;   // one per catch-up round
  std::vector<std::int64_t> gen_late_ns;
  std::int64_t notice_ns_total = 0;
  std::uint64_t notices_timed = 0;
  std::int64_t exs_cpu_us = 0;
  std::uint64_t exs_records = 0;
  std::int64_t ism_cpu_us = 0;
  std::uint64_t ism_records = 0;
  std::int64_t poll_ns_total = 0;
  std::uint64_t polled_records = 0;
  /// Per-window values (open loop, kWindowNs windows of the schedule); the
  /// reported metric is their median, which damps a transient stall.
  std::vector<double> notice_ns_w;
  std::vector<double> exs_ns_w;
  std::vector<double> ism_ns_w;
  std::vector<double> ooo_w;
  std::size_t records_per_latency_window = 0;  // 0 = no windows
  // per-layer counters, summed over rounds
  std::uint64_t ring_peak_bytes = 0;
  std::uint64_t batches_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t paced_batches = 0;
  std::int64_t credit_stalled_us = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t batches_replayed = 0;
  std::uint64_t replay_evictions = 0;
  std::uint64_t ingest_stalls = 0;
  std::uint64_t batch_seq_gaps = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t sort_late_drops = 0;
  std::uint64_t sort_frame_raises = 0;
  std::uint64_t sort_overflow_drops = 0;
  std::uint64_t sort_emitted = 0;
  std::uint64_t sort_total_delay_us = 0;
  std::uint64_t merge_inversions = 0;
  std::uint64_t merged = 0;
  std::uint64_t merge_runs = 0;
  std::uint64_t submit_stalls = 0;
  std::uint64_t cre_conseqs_held = 0;
  std::uint64_t cre_hold_timeouts = 0;
  std::uint64_t lane_drops = 0;
  std::uint64_t sub_drops = 0;       // all TCP subscribers
  std::uint64_t full_sub_drops = 0;  // the full-stream subscriber
  std::uint64_t agg_sub_drops = 0;   // the aggregate subscriber
  std::uint64_t tcp_evicted = 0;
  // traced pass only
  static constexpr int kStagePairs = 8;
  std::vector<float> stage_us[kStagePairs];  // stage i -> stage i+1
  std::vector<float> sink_to_consumer_us;
  std::vector<Span> spans;
  std::uint64_t spans_dropped = 0;
};

/// Runs `spec` for `seconds` with inputs from `seed`. Returns false (and
/// prints why to stderr) when the deployment could not be brought up.
bool run_pass(const WorkloadSpec& spec, std::uint64_t seed, double seconds, bool traced,
              PassResult& out);

}  // namespace perfbench
