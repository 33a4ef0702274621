// Workload table, deployment bring-up/tear-down, the open-loop generator,
// and the delivery-side output checks.
#include <pthread.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "clock/clock.hpp"
#include "common/time_util.hpp"
#include "consumers/gateway_client.hpp"
#include "core/brisk_manager.hpp"
#include "core/brisk_node.hpp"
#include "ism/output.hpp"
#include "sensors/metrics_record.hpp"
#include "sensors/sensor.hpp"
#include "sensors/trace_record.hpp"

namespace perfbench {

using brisk::TimeMicros;
namespace sensors = brisk::sensors;

std::int64_t now_ns() noexcept {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// ---- workloads ----------------------------------------------------------------

namespace {

std::vector<WorkloadSpec> make_workloads() {
  std::vector<WorkloadSpec> all;
  {
    // Per-record cost on every layer at a sustainable rate; inline ISM. At
    // 300 k records/s the ISM fell behind whenever the shared host stole
    // CPU, so the rate leaves room for that. The two nodes run at 11:9
    // rates, as real nodes never run in lockstep; equal rates phase-lock
    // their batch flushes for a whole run. For the same reason the batch
    // ages (and with them the EXS loop periods) differ.
    WorkloadSpec w;
    w.name = "steady";
    w.nodes = 2;
    w.pattern = {0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 0};
    w.burst = 20;  // 100 k records/s
    w.tick_ns = 200'000;
    w.batch_age_us = {2'000, 1'500};
    // T falls back to its floor between the rare late-batch raises, so a run
    // measures the floor regime rather than how many raises it happened to see.
    w.sorter_half_life_s = 0.1;
    w.trace_rate = 1.0 / 64;
    all.push_back(w);
  }
  {
    // Bulk replay of a backlog through the same layers: capacity. Runnable
    // but not gated: it loses records to an EXS reconnect defect in most
    // runs, which no regression bound can absorb (see README.md).
    WorkloadSpec w;
    w.name = "catchup";
    w.nodes = 2;
    w.pattern = {0, 1};
    w.backlog_per_node = 2'000'000;
    w.ring_capacity = 160u << 20;
    w.batch_age_us = {2'000, 2'000};
    w.trace_rate = 1.0 / 256;
    all.push_back(w);
  }
  {
    // Ordering: skewed batch ages, sharded sorter, cross-node CRE pairs.
    WorkloadSpec w;
    w.name = "skewed";
    w.nodes = 3;
    w.pattern = {0, 1, 2};
    w.burst = 120;  // 60 k records/s
    w.tick_ns = 2'000'000;
    w.batch_age_us = {1'000, 10'000, 40'000};
    w.batch_max_records = 4096;  // flushes stay age-triggered
    w.sorter_shards = 2;
    w.cre_pairs = true;
    w.trace_rate = 1.0 / 8;
    all.push_back(w);
  }
  {
    // Consumer gateway: one node, two unevenly loaded producer threads over
    // a spread of sensor ids, three TCP subscribers. The interleaved producers
    // give the node's stream a defined out-of-order share, and raise T so
    // often that it needs the same fast decay as steady.
    WorkloadSpec w;
    w.name = "fanout";
    w.nodes = 1;
    w.producers_per_node = 2;
    w.pattern = {0, 0, 1};
    w.burst = 60;  // 60 k records/s
    w.tick_ns = 1'000'000;
    w.batch_age_us = {2'000};
    w.sorter_half_life_s = 0.1;
    w.gateway = true;
    w.trace_rate = 1.0 / 32;
    all.push_back(w);
  }
  return all;
}

constexpr int kSensorIdSpread = 64;
constexpr brisk::SensorId kSensorIdBase = 100;
/// A pair starts at roughly one record in this many (skewed).
constexpr std::uint64_t kCrePairPeriod = 32;
constexpr std::size_t kSpanCapacity = 1u << 16;
constexpr std::size_t kStageSampleCapacity = 1u << 18;
/// How often benchmark-started threads publish their CPU clocks.
constexpr TimeMicros kCpuPublishUs = 5'000;
/// Throwaway bring-ups per pass, so setup_s is a median of several.
constexpr int kSetupTrials = 8;

}  // namespace

bool find_workload(const std::string& name, WorkloadSpec& out) {
  for (const WorkloadSpec& w : make_workloads()) {
    if (w.name == name) {
      out = w;
      return true;
    }
  }
  return false;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const WorkloadSpec& w : make_workloads()) names.push_back(w.name);
  return names;
}

namespace {

// ---- schedule: global record index <-> (stream, seq) ---------------------------

class Schedule {
 public:
  explicit Schedule(const WorkloadSpec& spec) : spec_(spec) {
    positions_.resize(static_cast<std::size_t>(spec.streams()));
    for (std::size_t i = 0; i < spec.pattern.size(); ++i) {
      positions_[static_cast<std::size_t>(spec.pattern[i])].push_back(i);
    }
  }

  [[nodiscard]] int stream_of(std::uint64_t g) const noexcept {
    return spec_.pattern[g % spec_.pattern.size()];
  }
  /// Global index of a stream's seq-th record.
  [[nodiscard]] std::uint64_t global_of(int stream, std::uint64_t seq) const noexcept {
    const auto& pos = positions_[static_cast<std::size_t>(stream)];
    return (seq / pos.size()) * spec_.pattern.size() + pos[seq % pos.size()];
  }
  /// Records a stream receives out of the first `total` global records.
  [[nodiscard]] std::uint64_t per_stream_capacity(std::uint64_t total) const noexcept {
    std::uint64_t most = 0;
    for (const auto& pos : positions_) {
      most = std::max<std::uint64_t>(most, (total / spec_.pattern.size() + 1) * pos.size());
    }
    return most;
  }

 private:
  const WorkloadSpec& spec_;
  std::vector<std::vector<std::size_t>> positions_;
};

/// Sensor id and causal marking of global record g. Pure function of
/// (seed, g), so the generator and the checker agree without sharing state.
struct Placement {
  brisk::SensorId sensor = 0;
  brisk::CausalId reason = 0;  // 0 = none
  brisk::CausalId conseq = 0;
};

class Placer {
 public:
  Placer(const WorkloadSpec& spec, std::uint64_t seed) : cre_pairs_(spec.cre_pairs), seed_(seed) {}

  [[nodiscard]] Placement place(std::uint64_t g) const noexcept {
    Placement p;
    const std::uint64_t h = mix64(seed_ ^ (g * 0x9e3779b97f4a7c15ULL));
    p.sensor = static_cast<brisk::SensorId>(kSensorIdBase + h % kSensorIdSpread);
    if (!cre_pairs_) return p;
    // A reason at g pairs with a consequence at g + 1 (the next node in the
    // round-robin pattern), issued after it. Slots that already carry a
    // consequence never start a pair.
    if (g > 0 && starts_pair(g - 1)) {
      p.conseq = static_cast<brisk::CausalId>(g);  // id = consequence index
    } else if (starts_pair(g)) {
      p.reason = static_cast<brisk::CausalId>(g + 1);
    }
    return p;
  }

 private:
  [[nodiscard]] bool starts_pair(std::uint64_t g) const noexcept {
    if (g > 0 && raw_start(g - 1)) return false;  // g is a consequence slot
    return raw_start(g);
  }
  [[nodiscard]] bool raw_start(std::uint64_t g) const noexcept {
    return mix64(seed_ + 0x51ed270b27f1ULL + g) % kCrePairPeriod == 0;
  }

  bool cre_pairs_;
  std::uint64_t seed_;
};

// ---- delivery side -------------------------------------------------------------

/// Checks and times every delivered record. Called from one delivery thread
/// at a time (the ISM or merger thread for the in-process sink, the consumer
/// thread for the gateway); read by the main thread after that thread is
/// joined.
class Collector {
 public:
  Collector(const WorkloadSpec& spec, const Schedule& schedule, std::uint64_t max_records,
            bool traced, PassResult& out)
      : spec_(spec), schedule_(schedule), traced_(traced), out_(out) {
    per_stream_ = schedule.per_stream_capacity(max_records);
    seen_.assign(static_cast<std::size_t>(spec.streams()),
                 std::vector<std::uint64_t>(per_stream_ / 64 + 1, 0));
    max_seq_.assign(static_cast<std::size_t>(spec.streams()), -1);
    if (spec.cre_pairs) reason_seen_.assign(max_records + 2, 0);
    latency_.resize(max_records);  // touched now, so RSS does not move later
    const std::size_t windows = static_cast<std::size_t>(
        static_cast<std::int64_t>(max_records / std::max<std::uint32_t>(spec.burst, 1)) *
            spec.tick_ns / kWindowNs + 2);
    win_ooo_.assign(windows, 0);
    win_n_.assign(windows, 0);
    if (traced_) {
      for (auto& v : stage_) v.resize(kStageSampleCapacity);
      sink_to_consumer_.resize(kStageSampleCapacity);
      spans_.resize(kSpanCapacity);
    }
  }

  /// Open loop: record g is due at t0 + (g / burst) * tick. Catch-up: every
  /// record is due at t0 (the EXS start).
  void set_origin(std::int64_t t0_ns) noexcept { t0_.store(t0_ns, std::memory_order_release); }

  void on_record(const sensors::Record& r, std::int64_t at_ns) {
    if (r.sensor >= sensors::kReservedSensorIdBase) {
      if (traced_ && r.sensor == sensors::kTraceSensorId) on_trace(r);
      return;
    }
    if (r.fields.size() < 2) {
      ++out_.unknown_records;
      return;
    }
    const std::int64_t seq = r.fields[0].as_signed();
    const std::int64_t stream = r.fields[1].as_signed();
    if (stream < 0 || stream >= spec_.streams() || seq < 0 ||
        static_cast<std::uint64_t>(seq) >= per_stream_) {
      ++out_.unknown_records;
      return;
    }
    auto& bits = seen_[static_cast<std::size_t>(stream)];
    const std::uint64_t mask = 1ULL << (seq % 64);
    std::uint64_t& word = bits[static_cast<std::size_t>(seq / 64)];
    if ((word & mask) != 0) {
      ++out_.duplicates;
      return;
    }
    word |= mask;
    std::int64_t& top = max_seq_[static_cast<std::size_t>(stream)];
    if (seq < top && spec_.cre_pairs && r.conseq_id()) {
      // The CRE matcher holds a consequence until its reason passes, which
      // reorders it behind later records of its node by design. Checked
      // against the matcher's own hold count after the pass.
      ++out_.cre_reordered;
      ++delivered_;
    } else if (seq < top) {
      ++out_.fifo_violations;
    } else {
      top = seq;
      ++delivered_;
    }
    unique_.fetch_add(1, std::memory_order_release);

    const std::uint64_t g = schedule_.global_of(static_cast<int>(stream),
                                                static_cast<std::uint64_t>(seq));
    const std::int64_t t0 = t0_.load(std::memory_order_acquire);
    const std::int64_t due =
        spec_.backlog_per_node > 0
            ? t0
            : t0 + static_cast<std::int64_t>(g / spec_.burst) * spec_.tick_ns;
    if (n_latency_ < latency_.size()) {
      latency_[n_latency_++] = static_cast<float>(static_cast<double>(at_ns - due) / 1e3);
    }
    last_delivery_ns_.store(at_ns, std::memory_order_release);

    const auto win = static_cast<std::size_t>((due - t0) / kWindowNs);
    if (win < win_n_.size()) ++win_n_[win];
    if (have_ts_ && r.timestamp < max_ts_) {
      ++out_.out_of_order;
      if (win < win_ooo_.size()) ++win_ooo_[win];
    } else {
      max_ts_ = r.timestamp;
      have_ts_ = true;
    }
    if (spec_.cre_pairs) {
      if (auto id = r.reason_id(); id && *id < reason_seen_.size()) reason_seen_[*id] = 1;
      if (auto id = r.conseq_id()) {
        if (*id >= reason_seen_.size() || reason_seen_[*id] == 0) ++out_.cre_violations;
      }
    }
  }

  /// True when (stream, seq) was delivered (the sampled-subscriber check).
  [[nodiscard]] bool was_delivered(std::int64_t stream, std::int64_t seq) const noexcept {
    if (stream < 0 || stream >= spec_.streams() || seq < 0 ||
        static_cast<std::uint64_t>(seq) >= per_stream_) {
      return false;
    }
    const auto& bits = seen_[static_cast<std::size_t>(stream)];
    return (bits[static_cast<std::size_t>(seq / 64)] >> (seq % 64)) & 1ULL;
  }

  void span(Span::Kind kind, std::int64_t start, std::int64_t end, std::uint64_t count) {
    if (!traced_) return;
    if (n_spans_ < spans_.size()) {
      spans_[n_spans_++] = Span{kind, start, end, count};
    } else {
      ++out_.spans_dropped;
    }
  }

  [[nodiscard]] std::uint64_t unique() const noexcept {
    return unique_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::int64_t last_delivery_ns() const noexcept {
    return last_delivery_ns_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t data_records() const noexcept { return data_records_; }
  void count_data_record() noexcept { ++data_records_; }

  /// Moves the samples into the pass result (delivery thread joined).
  void finish() {
    out_.delivered += delivered_;
    if (spec_.backlog_per_node == 0) {
      const std::uint64_t full = *std::max_element(win_n_.begin(), win_n_.end());
      for (std::size_t w = 0; w < win_n_.size(); ++w) {
        if (win_n_[w] * 2 < full || win_n_[w] == 0) continue;  // partial window
        out_.ooo_w.push_back(static_cast<double>(win_ooo_[w]) / static_cast<double>(win_n_[w]));
      }
    }
    latency_.resize(n_latency_);
    out_.latency_us.insert(out_.latency_us.end(), latency_.begin(), latency_.end());
    if (traced_) {
      for (int i = 0; i < PassResult::kStagePairs; ++i) {
        stage_[i].resize(n_stage_[i]);
        out_.stage_us[i].insert(out_.stage_us[i].end(), stage_[i].begin(), stage_[i].end());
      }
      sink_to_consumer_.resize(n_sink_);
      out_.sink_to_consumer_us.insert(out_.sink_to_consumer_us.end(),
                                      sink_to_consumer_.begin(), sink_to_consumer_.end());
      spans_.resize(n_spans_);
      out_.spans.insert(out_.spans.end(), spans_.begin(), spans_.end());
    }
  }

 private:
  /// Decodes the ISM's 0xFF02 stage stamps for one traced record.
  void on_trace(const sensors::Record& r) {
    auto ann = sensors::decode_trace_record(r);
    if (!ann) {
      ++out_.unknown_records;
      return;
    }
    TimeMicros at[brisk::sensors::kTraceStageCount] = {};
    bool has[brisk::sensors::kTraceStageCount] = {};
    for (const auto& stamp : ann.value().stamps) {
      const auto i = static_cast<std::size_t>(stamp.stage);
      if (i < brisk::sensors::kTraceStageCount) {
        at[i] = stamp.at;
        has[i] = true;
      }
    }
    for (int i = 0; i < PassResult::kStagePairs; ++i) {
      if (has[i] && has[i + 1] && n_stage_[i] < stage_[i].size()) {
        stage_[i][n_stage_[i]++] = static_cast<float>(at[i + 1] - at[i]);
      }
    }
    const auto sink = static_cast<std::size_t>(sensors::TraceStage::sink_delivery);
    if (has[sink] && n_sink_ < sink_to_consumer_.size()) {
      sink_to_consumer_[n_sink_++] =
          static_cast<float>(brisk::clk::SystemClock::instance().now() - at[sink]);
    }
  }

  const WorkloadSpec& spec_;
  const Schedule& schedule_;
  bool traced_;
  PassResult& out_;
  std::uint64_t per_stream_ = 0;
  std::vector<std::vector<std::uint64_t>> seen_;
  std::vector<std::int64_t> max_seq_;
  std::vector<std::uint8_t> reason_seen_;
  std::vector<float> latency_;
  std::size_t n_latency_ = 0;
  std::vector<std::uint64_t> win_ooo_;
  std::vector<std::uint64_t> win_n_;
  std::uint64_t delivered_ = 0;
  std::uint64_t data_records_ = 0;
  TimeMicros max_ts_ = 0;
  bool have_ts_ = false;
  std::atomic<std::int64_t> t0_{0};
  std::atomic<std::uint64_t> unique_{0};
  std::atomic<std::int64_t> last_delivery_ns_{0};
  std::vector<float> stage_[PassResult::kStagePairs];
  std::size_t n_stage_[PassResult::kStagePairs] = {};
  std::vector<float> sink_to_consumer_;
  std::size_t n_sink_ = 0;
  std::vector<Span> spans_;
  std::size_t n_spans_ = 0;
};

// ---- deployment ----------------------------------------------------------------

/// One running pipeline: manager + ISM thread, nodes with their sensors,
/// connected EXSes (threads started separately), and for `fanout` the three
/// gateway clients.
class Deployment {
 public:
  Deployment(const WorkloadSpec& spec, bool traced) : spec_(spec), traced_(traced) {}
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment() { shutdown(false); }

  /// Brings everything up to "connected and ready": the ISM has sent every
  /// node its HELLO_ACK and every gateway client holds its SUBSCRIBE_ACK.
  bool bring_up(Collector* sink_target) {
    brisk::ManagerConfig mc;
    mc.ism.select_timeout_us = 2'000;
    mc.ism.enable_sync = false;
    mc.ism.sorter.initial_frame_us = 5'000;
    mc.ism.sorter.min_frame_us = 1'000;
    mc.ism.sorter.decay_half_life_s = spec_.sorter_half_life_s;
    mc.ism.sorter_shards = spec_.sorter_shards;
    if (spec_.sorter_shards > 1) mc.ism.shard_queue_records = 1u << 14;
    if (spec_.gateway) {
      mc.gateway.tcp_enabled = true;
      mc.gateway.consumer_port = 0;
      mc.gateway.lane_records = 1u << 15;
      mc.gateway.queue_records = 1u << 15;
      mc.gateway.max_queue_records = 1u << 16;
      mc.gateway.agg_window_us = 100'000;
    }
    auto manager = brisk::BriskManager::create(mc);
    if (!manager) return fail("manager", manager.status().to_string());
    manager_ = std::move(manager).value();
    if (sink_target != nullptr) {
      auto sink = std::make_shared<brisk::ism::CallbackSink>(
          [sink_target, calls = std::uint64_t{0}](const sensors::Record& r) mutable {
            const std::int64_t at = now_ns();
            sink_target->on_record(r, at);
            if ((calls++ & 63) == 0) sink_target->span(Span::sink_callback, at, now_ns(), 1);
          });
      if (!manager_->add_sink("perfbench", sink).ok()) return fail("sink", "subscribe");
    }
    ism_thread_ = std::thread([this] { (void)manager_->run(); });

    for (int n = 0; n < spec_.nodes; ++n) {
      brisk::NodeConfig nc;
      nc.node = static_cast<brisk::NodeId>(n + 1);
      nc.sensor_slots = static_cast<std::uint32_t>(spec_.producers_per_node);
      nc.ring_capacity = spec_.ring_capacity;
      nc.trace_sample_rate = traced_ ? spec_.trace_rate : 0.0;
      // The EXS loop must wake at least once per batch age for age-triggered
      // flushes to happen on time.
      nc.exs.batch_max_age_us = spec_.batch_age_us[static_cast<std::size_t>(n)];
      nc.exs.select_timeout_us = std::min<TimeMicros>(2'000, nc.exs.batch_max_age_us);
      nc.exs.batch_max_records = spec_.batch_max_records;
      nc.exs.batch_max_bytes = 64 * 1024;
      nc.exs.drain_burst = 4096;
      auto node = brisk::BriskNode::create(nc);
      if (!node) return fail("node", node.status().to_string());
      for (int p = 0; p < spec_.producers_per_node; ++p) {
        auto sensor = node.value()->make_sensor();
        if (!sensor) return fail("sensor", sensor.status().to_string());
        sensors_.push_back(sensor.value());
      }
      auto exs = node.value()->connect_exs("127.0.0.1", manager_->port());
      if (!exs) return fail("exs", exs.status().to_string());
      exs_.push_back(std::move(exs).value());
      nodes_.push_back(std::move(node).value());
    }
    const std::int64_t deadline = now_ns() + 5'000'000'000LL;
    while (manager_->ism().stats().acks_sent < static_cast<std::uint64_t>(spec_.nodes)) {
      if (now_ns() > deadline) return fail("ready", "no HELLO_ACK within 5 s");
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    if (spec_.gateway) {
      const char* filters[3] = {"", "sample=16", ""};
      for (int i = 0; i < 3; ++i) {
        brisk::consumers::GatewayClient::Options opt;
        opt.name = i == 0 ? "full" : (i == 1 ? "sampled" : "agg");
        opt.filter = filters[i];
        opt.queue_records = 1u << 15;
        if (i == 2) {
          opt.kind = brisk::tp::SubscriptionKind::aggregate;
          opt.agg_window_us = 100'000;
        }
        auto client = brisk::consumers::GatewayClient::connect("127.0.0.1",
                                                               manager_->consumer_port(), opt);
        if (!client) return fail("gateway client", client.status().to_string());
        clients_.push_back(std::move(client).value());
      }
    }
    return true;
  }

  /// Starts one thread per EXS. Each runs its loop in short run_for()
  /// slices and publishes its own CPU clock between them.
  void start_exs() {
    exs_cpu_us_ = std::make_unique<std::atomic<std::int64_t>[]>(exs_.size());
    for (std::size_t i = 0; i < exs_.size(); ++i) {
      exs_threads_.emplace_back([this, i] {
        const TimeMicros cpu0 = brisk::thread_cpu_micros();
        while (!stop_exs_.load(std::memory_order_acquire)) {
          if (!exs_[i]->run_for(kCpuPublishUs).ok()) break;
          exs_cpu_us_[i].store(brisk::thread_cpu_micros() - cpu0, std::memory_order_release);
        }
        exs_cpu_us_[i].store(brisk::thread_cpu_micros() - cpu0, std::memory_order_release);
      });
    }
  }

  /// CPU microseconds all EXS threads have used so far.
  [[nodiscard]] std::int64_t exs_cpu_us() const noexcept {
    std::int64_t sum = 0;
    for (std::size_t i = 0; exs_cpu_us_ && i < exs_.size(); ++i) {
      sum += exs_cpu_us_[i].load(std::memory_order_acquire);
    }
    return sum;
  }

  /// Stops the EXSes and the ISM loop, joins their threads, then (when
  /// `drain`) drains the pipeline so sinks see every held record.
  void shutdown(bool drain) {
    stop_exs_.store(true, std::memory_order_release);
    for (auto& exs : exs_) exs->stop();
    for (auto& t : exs_threads_) t.join();
    exs_threads_.clear();
    if (manager_) manager_->stop();
    if (ism_thread_.joinable()) ism_thread_.join();
    if (drain && manager_) (void)manager_->drain();
  }

  /// Folds every layer's public counters into `out` (after shutdown).
  void collect(PassResult& out) {
    for (std::size_t i = 0; i < exs_.size(); ++i) {
      const auto s = exs_[i]->core().stats();
      out.exs_records += s.records_forwarded;
      out.batches_sent += s.batches_sent;
      out.bytes_sent += s.bytes_sent;
      out.paced_batches += s.paced_batches;
      out.credit_stalled_us += s.credit_stalled_us;
      out.reconnects += s.reconnects;
      out.batches_replayed += s.batches_replayed;
      out.replay_evictions += s.replay_evictions;
    }
    out.exs_cpu_us += exs_cpu_us();
    const auto ism = manager_->ism().stats();
    out.ism_records += ism.records_received;
    out.ingest_stalls += ism.ingest_stalls;
    out.batch_seq_gaps += ism.batch_seq_gaps;
    out.protocol_errors += ism.protocol_errors;
    const auto sort = manager_->ism().sorter_stats();
    out.sort_late_drops += sort.late_drops;
    out.sort_frame_raises += sort.frame_raises;
    out.sort_overflow_drops += sort.overflow_drops;
    out.sort_emitted += sort.emitted;
    out.sort_total_delay_us += sort.total_delay_us;
    const auto pipe = manager_->ism().pipeline().stats();
    out.merge_inversions += pipe.merge_inversions;
    out.merged += pipe.merged;
    out.merge_runs += pipe.merge_runs;
    out.submit_stalls += pipe.submit_stalls;
    const auto cre = manager_->ism().pipeline().cre_stats();
    out.cre_conseqs_held += cre.conseqs_held;
    out.cre_hold_timeouts += cre.hold_timeouts;
    out.named_losses += sort.overflow_drops;
    if (spec_.gateway) {
      const auto gw = manager_->gateway().stats();
      out.lane_drops += gw.lane_drops;
      out.tcp_evicted += gw.tcp_evicted;
      out.named_losses += gw.lane_drops;
      for (const auto& sub : manager_->gateway().subscriber_stats()) {
        if (!sub.tcp) continue;
        out.sub_drops += sub.dropped;
        if (sub.name == "full") out.full_sub_drops += sub.dropped;
        if (sub.name == "agg") out.agg_sub_drops += sub.dropped;
      }
      out.named_losses += out.full_sub_drops;
    }
  }

  std::vector<sensors::Sensor>& sensors() noexcept { return sensors_; }
  std::vector<brisk::consumers::GatewayClient>& clients() noexcept { return clients_; }

 private:
  bool fail(const char* what, const std::string& why) {
    std::fprintf(stderr, "perfbench: %s: %s\n", what, why.c_str());
    return false;
  }

  const WorkloadSpec& spec_;
  bool traced_;
  std::unique_ptr<brisk::BriskManager> manager_;
  std::thread ism_thread_;
  std::vector<std::unique_ptr<brisk::BriskNode>> nodes_;
  std::vector<sensors::Sensor> sensors_;
  std::vector<std::unique_ptr<brisk::lis::ExternalSensor>> exs_;
  std::vector<std::thread> exs_threads_;
  std::unique_ptr<std::atomic<std::int64_t>[]> exs_cpu_us_;
  std::atomic<bool> stop_exs_{false};
  std::vector<brisk::consumers::GatewayClient> clients_;
};

// ---- generator -------------------------------------------------------------------

/// Issues records: NOTICEs the 6-int record [seq, stream, g, three payload
/// ints] (plus a causal marker where the placer puts one) into the stream's
/// producer ring.
class Generator {
 public:
  Generator(const WorkloadSpec& spec, std::uint64_t seed, const Schedule& schedule,
            std::vector<sensors::Sensor>& sensors)
      : schedule_(schedule), placer_(spec, seed), seed_(seed), sensors_(sensors),
        next_seq_(static_cast<std::size_t>(spec.streams()), 0) {}

  /// Works out the burst's placements ahead of the timed NOTICE loop, so
  /// the timing covers NOTICE alone.
  void plan(std::uint64_t g_begin, std::uint64_t g_end) {
    planned_.clear();
    for (std::uint64_t g = g_begin; g < g_end; ++g) {
      const std::uint64_t h = mix64(seed_ + g);
      const int s = schedule_.stream_of(g);
      planned_.push_back(Planned{
          placer_.place(g), s,
          static_cast<std::int32_t>(next_seq_[static_cast<std::size_t>(s)]++),
          static_cast<std::int32_t>(g & 0x7fffffff), static_cast<std::int32_t>(h & 0x7fffffff),
          static_cast<std::int32_t>((h >> 32) & 0x7fffffff)});
    }
  }

  /// NOTICEs every planned record.
  void issue_planned() {
    for (const Planned& r : planned_) {
      auto& sensor = sensors_[static_cast<std::size_t>(r.stream)];
      const Placement& p = r.place;
      bool ok = false;
      if (p.reason != 0) {
        ok = BRISK_NOTICE(sensor, p.sensor, sensors::x_i32(r.seq), sensors::x_i32(r.stream),
                          sensors::x_i32(r.g), sensors::x_i32(r.a), sensors::x_i32(r.b),
                          sensors::x_i32(0), sensors::x_reason(p.reason));
      } else if (p.conseq != 0) {
        ok = BRISK_NOTICE(sensor, p.sensor, sensors::x_i32(r.seq), sensors::x_i32(r.stream),
                          sensors::x_i32(r.g), sensors::x_i32(r.a), sensors::x_i32(r.b),
                          sensors::x_i32(0), sensors::x_conseq(p.conseq));
      } else {
        ok = BRISK_NOTICE(sensor, p.sensor, sensors::x_i32(r.seq), sensors::x_i32(r.stream),
                          sensors::x_i32(r.g), sensors::x_i32(r.a), sensors::x_i32(r.b),
                          sensors::x_i32(0));
      }
      if (!ok) ++drops_;
    }
  }

  /// Samples every producer ring's fill level (producer-side read).
  void sample_rings() {
    for (auto& sensor : sensors_) {
      peak_bytes_ = std::max<std::uint64_t>(peak_bytes_, sensor.ring().bytes_used());
    }
  }

  [[nodiscard]] std::uint64_t drops() const noexcept { return drops_; }
  [[nodiscard]] std::uint64_t peak_bytes() const noexcept { return peak_bytes_; }

 private:
  const Schedule& schedule_;
  Placer placer_;
  std::uint64_t seed_;
  std::vector<sensors::Sensor>& sensors_;
  std::vector<std::uint64_t> next_seq_;
  struct Planned {
    Placement place;
    int stream = 0;
    std::int32_t seq = 0;
    std::int32_t g = 0;
    std::int32_t a = 0;
    std::int32_t b = 0;
  };
  std::vector<Planned> planned_;
  std::uint64_t drops_ = 0;
  std::uint64_t peak_bytes_ = 0;
};

void sleep_until_ns(std::int64_t t) {
  timespec ts{};
  ts.tv_sec = t / 1'000'000'000;
  ts.tv_nsec = t % 1'000'000'000;
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

std::int64_t rusage_cpu_us() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return (static_cast<std::int64_t>(ru.ru_utime.tv_sec) + ru.ru_stime.tv_sec) * 1'000'000 +
         ru.ru_utime.tv_usec + ru.ru_stime.tv_usec;
}

double measure_setup(const WorkloadSpec& spec, bool traced, Collector* target,
                     std::unique_ptr<Deployment>& dep) {
  const std::int64_t t0 = now_ns();
  dep = std::make_unique<Deployment>(spec, traced);
  if (!dep->bring_up(target)) return -1.0;
  return static_cast<double>(now_ns() - t0) / 1e9;
}

/// The throwaway bring-ups that make setup_s a median of several.
bool setup_trials(const WorkloadSpec& spec, bool traced, PassResult& out) {
  for (int i = 0; i < kSetupTrials; ++i) {
    std::unique_ptr<Deployment> trial;
    const double s = measure_setup(spec, traced, nullptr, trial);
    if (s < 0) return false;
    out.setup_s.push_back(s);
  }
  return true;
}

/// Waits until every offered record that reached a ring has been delivered,
/// or delivery has made no progress for `stall_ns`.
void await_delivery(const Collector& c, std::uint64_t expect, std::int64_t stall_ns,
                    std::int64_t hard_deadline_ns) {
  std::uint64_t last = c.unique();
  std::int64_t last_progress = now_ns();
  while (c.unique() < expect) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const std::int64_t now = now_ns();
    if (c.unique() != last) {
      last = c.unique();
      last_progress = now;
    } else if (now - last_progress > stall_ns) {
      return;
    }
    if (now > hard_deadline_ns) return;
  }
}

/// The fanout consumer: one thread polls all three gateway clients.
struct FanoutConsumer {
  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> cpu_us{0};  // published by the consumer thread
  std::uint64_t sampled_records = 0;
  std::uint64_t agg_sum = 0;
  std::uint64_t agg_windows = 0;
  std::vector<std::int64_t> sampled_top;  // per-stream FIFO high-water (sampled)
  std::vector<std::pair<std::int64_t, std::int64_t>> sampled_seen;  // (stream, seq)
};

void run_fanout_consumer(Collector& c, std::vector<brisk::consumers::GatewayClient>& clients,
                         FanoutConsumer& fc, PassResult& out, int streams) {
  const TimeMicros cpu0 = brisk::thread_cpu_micros();
  fc.sampled_top.assign(static_cast<std::size_t>(streams), -1);
  std::uint64_t full_records = 0;
  bool open[3] = {true, true, true};
  std::int64_t idle_since = 0;
  while (true) {
    bool got = false;
    if (open[0]) {
      const std::int64_t t0 = now_ns();
      auto polled = clients[0].poll();
      if (!polled) {
        open[0] = false;
      } else if (polled.value().has_value()) {
        const std::int64_t t1 = now_ns();
        const sensors::Record& r = *polled.value();
        out.poll_ns_total += t1 - t0;
        ++out.polled_records;
        if (r.sensor < sensors::kReservedSensorIdBase) c.count_data_record();
        if ((full_records++ & 63) == 0) c.span(Span::consumer_poll, t0, t1, 1);
        c.on_record(r, t1);
        got = true;
      }
    }
    if (open[1]) {
      auto polled = clients[1].poll();
      if (!polled) {
        open[1] = false;
      } else if (polled.value().has_value()) {
        const sensors::Record& r = *polled.value();
        if (r.sensor < sensors::kReservedSensorIdBase && r.fields.size() >= 2) {
          ++fc.sampled_records;
          const std::int64_t seq = r.fields[0].as_signed();
          const std::int64_t s = r.fields[1].as_signed();
          if (s < 0 || s >= streams) {
            ++out.sample_violations;
          } else {
            if (seq <= fc.sampled_top[static_cast<std::size_t>(s)]) ++out.sample_violations;
            fc.sampled_top[static_cast<std::size_t>(s)] =
                std::max(seq, fc.sampled_top[static_cast<std::size_t>(s)]);
            fc.sampled_seen.emplace_back(s, seq);
          }
        }
        got = true;
      }
    }
    if (open[2]) {
      auto polled = clients[2].poll_agg();
      if (!polled) {
        open[2] = false;
      } else if (polled.value().has_value()) {
        ++fc.agg_windows;
        for (const auto& key : polled.value()->keys) {
          if (key.sensor < sensors::kReservedSensorIdBase) fc.agg_sum += key.count;
        }
        got = true;
      }
    }
    if (got) {
      idle_since = 0;
      if ((full_records & 255) == 0) {
        fc.cpu_us.store(brisk::thread_cpu_micros() - cpu0, std::memory_order_release);
      }
      continue;
    }
    fc.cpu_us.store(brisk::thread_cpu_micros() - cpu0, std::memory_order_release);
    if (fc.stop.load(std::memory_order_acquire)) {
      // Stop once the drained gateway has gone quiet for a while.
      const std::int64_t now = now_ns();
      if (idle_since == 0) idle_since = now;
      if (now - idle_since > 300'000'000) break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  fc.cpu_us.store(brisk::thread_cpu_micros() - cpu0, std::memory_order_release);
}

// ---- passes ------------------------------------------------------------------------

/// Open-loop pass: generator thread on the workload's burst schedule.
bool run_open_loop(const WorkloadSpec& spec, std::uint64_t seed, double seconds, bool traced,
                   PassResult& out) {
  const std::int64_t run_ns = static_cast<std::int64_t>(seconds * 1e9);
  const std::uint64_t ticks = static_cast<std::uint64_t>(run_ns / spec.tick_ns);
  const std::uint64_t max_records = ticks * spec.burst + spec.burst;
  Schedule schedule(spec);
  Collector collector(spec, schedule, max_records, traced, out);
  out.gen_late_ns.resize(ticks + 1);
  std::size_t n_late = 0;

  Collector* sink_target = spec.gateway ? nullptr : &collector;
  if (!setup_trials(spec, traced, out)) return false;
  std::unique_ptr<Deployment> dep;
  const double s = measure_setup(spec, traced, sink_target, dep);
  if (s < 0) return false;
  out.setup_s.push_back(s);
  collector.span(Span::setup, now_ns() - static_cast<std::int64_t>(s * 1e9), now_ns(), 0);
  dep->start_exs();

  FanoutConsumer fc;
  std::thread consumer;
  if (spec.gateway) {
    consumer = std::thread(
        [&] { run_fanout_consumer(collector, dep->clients(), fc, out, spec.streams()); });
  }

  Generator gen(spec, seed, schedule, dep->sensors());
  const std::int64_t cpu_before = rusage_cpu_us();
  const std::int64_t t0 = now_ns() + 2'000'000;
  collector.set_origin(t0);
  const std::size_t windows = static_cast<std::size_t>(run_ns / kWindowNs + 1);
  out.records_per_latency_window = static_cast<std::size_t>(kLatencyWindowNs / spec.tick_ns) *
                                   static_cast<std::size_t>(spec.burst);
  std::vector<std::int64_t> win_notice_ns(windows, 0);
  std::vector<std::uint64_t> win_notices(windows, 0);
  std::atomic<std::uint64_t> issued_pub{0};
  std::atomic<std::int64_t> gen_cpu_pub{0};
  std::atomic<bool> gen_done{false};
  std::uint64_t issued = 0;
  // The generator keeps its own spans: the collector's buffer belongs to the
  // delivery thread.
  std::vector<Span> gen_spans;
  if (traced) gen_spans.reserve(ticks / 64 + 1);
  std::thread generator([&] {
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    const TimeMicros cpu0 = brisk::thread_cpu_micros();
    std::uint64_t tick = 0;
    while (tick < ticks) {
      const std::int64_t due = t0 + static_cast<std::int64_t>(tick) * spec.tick_ns;
      sleep_until_ns(due);
      const std::int64_t woke = now_ns();
      if (n_late < out.gen_late_ns.size()) out.gen_late_ns[n_late++] = woke - due;
      // Every tick due by now goes out in this burst: the schedule never
      // waits for the system.
      std::uint64_t last = static_cast<std::uint64_t>((woke - t0) / spec.tick_ns);
      last = std::min(last, ticks - 1);
      const std::uint64_t g_end = (last + 1) * spec.burst;
      gen.plan(issued, g_end);
      const std::int64_t b0 = now_ns();
      gen.issue_planned();
      const std::int64_t b1 = now_ns();
      out.notice_ns_total += b1 - b0;
      out.notices_timed += g_end - issued;
      const auto win = static_cast<std::size_t>((due - t0) / kWindowNs);
      if (win < windows) {
        win_notice_ns[win] += b1 - b0;
        win_notices[win] += g_end - issued;
      }
      if (traced && (tick & 63) == 0) {
        gen_spans.push_back(Span{Span::notice_burst, b0, b1, g_end - issued});
      }
      issued = g_end;
      gen.sample_rings();
      tick = last + 1;
      issued_pub.store(issued, std::memory_order_release);
      gen_cpu_pub.store(brisk::thread_cpu_micros() - cpu0, std::memory_order_release);
    }
    gen_done.store(true, std::memory_order_release);
  });

  // Per-window CPU split, sampled from outside at each window boundary:
  // EXS threads' own clocks, and the rest of the process (minus generator
  // and consumer) as the ISM side.
  struct CpuSample {
    std::uint64_t issued;
    std::int64_t process, gen, exs, consumer;
  };
  auto sample = [&] {
    return CpuSample{issued_pub.load(std::memory_order_acquire), rusage_cpu_us(),
                     gen_cpu_pub.load(std::memory_order_acquire), dep->exs_cpu_us(),
                     fc.cpu_us.load(std::memory_order_acquire)};
  };
  CpuSample prev = sample();
  for (std::size_t w = 1; !gen_done.load(std::memory_order_acquire); ++w) {
    const std::int64_t boundary = t0 + static_cast<std::int64_t>(w) * kWindowNs;
    while (now_ns() < boundary && !gen_done.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (gen_done.load(std::memory_order_acquire)) break;
    const CpuSample cur = sample();
    const double n = static_cast<double>(cur.issued - prev.issued);
    if (n > 0 && w > 1) {  // the first window includes start-up
      const double exs = static_cast<double>(cur.exs - prev.exs);
      const double ism = static_cast<double>((cur.process - prev.process) - (cur.gen - prev.gen) -
                                             (cur.exs - prev.exs) -
                                             (cur.consumer - prev.consumer));
      out.exs_ns_w.push_back(exs * 1e3 / n);
      out.ism_ns_w.push_back(ism * 1e3 / n);
    }
    prev = cur;
  }
  generator.join();
  const std::int64_t gen_cpu = gen_cpu_pub.load(std::memory_order_acquire);
  out.gen_late_ns.resize(n_late);
  for (std::size_t w = 0; w < windows; ++w) {
    if (win_notices[w] > 0) {
      out.notice_ns_w.push_back(static_cast<double>(win_notice_ns[w]) /
                                static_cast<double>(win_notices[w]));
    }
  }

  const std::uint64_t expect = issued - gen.drops();
  await_delivery(collector, expect, 1'500'000'000LL, now_ns() + 20'000'000'000LL);
  // For an open loop the delivered rate should equal the offered rate.
  if (collector.last_delivery_ns() > t0) {
    out.catchup_evps.push_back(static_cast<double>(collector.unique()) /
                               (static_cast<double>(collector.last_delivery_ns() - t0) / 1e9));
  }
  const std::int64_t d0 = now_ns();
  dep->shutdown(true);
  if (spec.gateway) {
    fc.stop.store(true, std::memory_order_release);
    consumer.join();
  }
  collector.span(Span::drain, d0, now_ns(), 0);
  const std::int64_t cpu_after = rusage_cpu_us();
  collector.finish();
  out.spans.insert(out.spans.end(), gen_spans.begin(), gen_spans.end());
  dep->collect(out);
  if (out.cre_reordered > out.cre_conseqs_held) {
    out.cre_violations += out.cre_reordered - out.cre_conseqs_held;
  }

  out.offered += issued;
  out.ring_drops += gen.drops();
  out.named_losses += gen.drops();
  out.ring_peak_bytes = std::max(out.ring_peak_bytes, gen.peak_bytes());
  out.ism_cpu_us += (cpu_after - cpu_before) - gen_cpu - out.exs_cpu_us - fc.cpu_us.load();
  if (spec.gateway) {
    // Aggregate windows must count exactly the records the full stream saw,
    // plus whatever the full subscriber's queue dropped. A dropped window
    // (aggregate queue overrun) makes the sum unknowable; that is counted
    // in gateway.sub_drops instead.
    const std::uint64_t full = collector.data_records();
    if (out.agg_sub_drops == 0) {
      const std::uint64_t hi = full + out.full_sub_drops;
      if (fc.agg_sum < full) out.agg_violations += full - fc.agg_sum;
      if (fc.agg_sum > hi) out.agg_violations += fc.agg_sum - hi;
    }
    if (fc.agg_windows == 0) ++out.agg_violations;
    // Every sampled record must be one the full stream delivered, unless
    // the full subscriber's queue dropped it.
    std::uint64_t missing = 0;
    for (const auto& [stream, seq] : fc.sampled_seen) {
      if (!collector.was_delivered(stream, seq)) ++missing;
    }
    if (missing > out.full_sub_drops) out.sample_violations += missing - out.full_sub_drops;
    if (fc.sampled_records == 0) ++out.sample_violations;
  }
  return true;
}

/// Catch-up pass: rounds of (bring up, pre-fill each ring, start the EXSes,
/// time the drain) until the pass time is used.
bool run_catchup(const WorkloadSpec& spec, std::uint64_t seed, double seconds, bool traced,
                 PassResult& out) {
  const std::int64_t pass_end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  const std::uint64_t backlog = spec.backlog_per_node * static_cast<std::uint64_t>(spec.nodes);
  Schedule schedule(spec);
  if (!setup_trials(spec, traced, out)) return false;
  int round = 0;
  do {
    // A fresh seed per round keeps rounds independent but reproducible.
    const std::uint64_t round_seed = mix64(seed + static_cast<std::uint64_t>(round));
    Collector collector(spec, schedule, backlog, traced, out);
    std::unique_ptr<Deployment> dep;
    const double s = measure_setup(spec, traced, &collector, dep);
    if (s < 0) return false;
    out.setup_s.push_back(s);

    Generator gen(spec, round_seed, schedule, dep->sensors());
    constexpr std::uint64_t kPrefillBurst = 4096;
    for (std::uint64_t g = 0; g < backlog; g += kPrefillBurst) {
      const std::uint64_t end = std::min(backlog, g + kPrefillBurst);
      gen.plan(g, end);
      const std::int64_t b0 = now_ns();
      gen.issue_planned();
      const std::int64_t b1 = now_ns();
      out.notice_ns_total += b1 - b0;
      out.notices_timed += end - g;
      collector.span(Span::notice_burst, b0, b1, end - g);
    }
    gen.sample_rings();

    const std::int64_t cpu_before = rusage_cpu_us();
    const std::int64_t start = now_ns();
    collector.set_origin(start);
    dep->start_exs();
    const std::uint64_t expect = backlog - gen.drops();
    await_delivery(collector, expect, 3'000'000'000LL, start + 60'000'000'000LL);
    const std::int64_t last = collector.last_delivery_ns();
    if (collector.unique() > 0 && last > start) {
      out.catchup_evps.push_back(static_cast<double>(backlog) /
                                 (static_cast<double>(last - start) / 1e9));
    }
    const std::int64_t d0 = now_ns();
    const std::int64_t exs_before = out.exs_cpu_us;
    dep->shutdown(true);
    collector.span(Span::drain, d0, now_ns(), 0);
    const std::int64_t cpu_after = rusage_cpu_us();
    collector.finish();
    dep->collect(out);
    out.offered += backlog;
    out.ring_drops += gen.drops();
    out.named_losses += gen.drops();
    out.ring_peak_bytes = std::max(out.ring_peak_bytes, gen.peak_bytes());
    out.ism_cpu_us += (cpu_after - cpu_before) - (out.exs_cpu_us - exs_before);
    ++round;
  } while (now_ns() < pass_end);
  return true;
}

}  // namespace

bool run_pass(const WorkloadSpec& spec, std::uint64_t seed, double seconds, bool traced,
              PassResult& out) {
  return spec.backlog_per_node > 0 ? run_catchup(spec, seed, seconds, traced, out)
                                   : run_open_loop(spec, seed, seconds, traced, out);
}

}  // namespace perfbench
