// E1 — "Simple metrics": CPU time of an average NOTICE macro.
//
// Paper: "The CPU time taken by an average NOTICE varied from 3.6 to 18.6
// microseconds on three different platforms." The paper's spread comes from
// platform differences; we reproduce the *shape* with implementation
// variants on one platform: the dynamic 6-int NOTICE of the evaluation
// workload, cheaper/narrower records, the mknotice-specialized writer path
// (which must be at least as fast as the dynamic macro), strings, and the
// downstream per-record costs (transcode to XDR wire) for context.
#include <benchmark/benchmark.h>

#include <array>
#include <vector>

#include "clock/clock.hpp"
#include "sensors/record_codec.hpp"
#include "sensors/sensor.hpp"
#include "shm/ring_buffer.hpp"
#include "tp/wire.hpp"
#include "xdr/xdr_encoder.hpp"

namespace {

using namespace brisk;       // NOLINT
using namespace brisk::sensors;  // NOLINT

/// Fixture: a big ring + a sensor + a drain step so the ring never fills.
struct Rig {
  shm::RingMemory memory;
  shm::RingBuffer ring;
  Sensor sensor;

  Rig()
      : memory(shm::RingBuffer::region_size(1u << 22)),
        ring(init_ring(memory)),
        sensor(ring, clk::SystemClock::instance()) {}

  static shm::RingBuffer init_ring(shm::RingMemory& memory) {
    auto ring = shm::RingBuffer::init(memory.data(), 1u << 22);
    if (!ring) std::abort();
    return ring.value();
  }

  std::vector<std::uint8_t> scratch;
  void drain_if_needed() {
    if (ring.bytes_used() > (1u << 21)) {
      scratch.clear();
      while (ring.try_pop(scratch)) scratch.clear();
    }
  }
};

void BM_Notice_6xI32(benchmark::State& state) {
  Rig rig;
  std::int32_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(BRISK_NOTICE(rig.sensor, 1, x_i32(i), x_i32(i + 1), x_i32(i + 2),
                                          x_i32(i + 3), x_i32(i + 4), x_i32(i + 5)));
    ++i;
    rig.drain_if_needed();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Notice_6xI32);

void BM_Notice_1xI32(benchmark::State& state) {
  Rig rig;
  std::int32_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(BRISK_NOTICE(rig.sensor, 1, x_i32(i++)));
    rig.drain_if_needed();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Notice_1xI32);

void BM_Notice_NoFields(benchmark::State& state) {
  Rig rig;
  for (auto _ : state) {
    benchmark::DoNotOptimize(BRISK_NOTICE(rig.sensor, 1));
    rig.drain_if_needed();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Notice_NoFields);

void BM_Notice_8Mixed(benchmark::State& state) {
  Rig rig;
  std::int32_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(BRISK_NOTICE(rig.sensor, 1, x_i32(i), x_u64(i), x_f64(0.5), x_ts(),
                                          x_i16(-1), x_u8(2), x_char('x'), x_reason(7)));
    ++i;
    rig.drain_if_needed();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Notice_8Mixed);

void BM_Notice_String16(benchmark::State& state) {
  Rig rig;
  for (auto _ : state) {
    benchmark::DoNotOptimize(BRISK_NOTICE(rig.sensor, 1, x_str("sixteen bytes ok")));
    rig.drain_if_needed();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Notice_String16);

// The mknotice-specialized path: fixed shape, RecordWriter straight into
// the stack buffer, push_encoded (what generated wide macros do).
void BM_Notice_Specialized6xI32(benchmark::State& state) {
  Rig rig;
  std::int32_t i = 0;
  for (auto _ : state) {
    std::array<std::uint8_t, kMaxNativeRecordBytes> buf;
    RecordWriter writer({buf.data(), buf.size()});
    const TimeMicros ts = rig.sensor.clock().now();
    bool ok = writer.begin(1, rig.sensor.next_sequence(), ts) && writer.add_i32(i) &&
              writer.add_i32(i + 1) && writer.add_i32(i + 2) && writer.add_i32(i + 3) &&
              writer.add_i32(i + 4) && writer.add_i32(i + 5);
    auto bytes = writer.finish();
    ok = ok && bytes.is_ok() && rig.sensor.push_encoded(bytes.value());
    benchmark::DoNotOptimize(ok);
    ++i;
    rig.drain_if_needed();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Notice_Specialized6xI32);

// Downstream per-record cost the EXS pays: native → XDR wire transcode of
// the paper's 40-byte record.
void BM_Transcode_6xI32(benchmark::State& state) {
  Record record;
  record.sensor = 1;
  record.timestamp = 1'700'000'000'000'000LL;
  for (int i = 0; i < 6; ++i) record.fields.push_back(Field::i32(i));
  auto native = encode_native(record);
  if (!native) std::abort();

  ByteBuffer out(1u << 20);
  for (auto _ : state) {
    if (out.size() > (1u << 19)) out.clear();
    xdr::Encoder enc(out);
    benchmark::DoNotOptimize(tp::transcode_native_record(native.value().view(), enc, 123));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Transcode_6xI32);

// Raw ring push+pop round trip (the memory path NOTICE rides on).
void BM_RingPushPop40B(benchmark::State& state) {
  shm::RingMemory memory(shm::RingBuffer::region_size(1u << 20));
  auto ring = shm::RingBuffer::init(memory.data(), 1u << 20);
  if (!ring) std::abort();
  std::array<std::uint8_t, 40> payload{};
  std::vector<std::uint8_t> out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.value().try_push({payload.data(), payload.size()}));
    out.clear();
    benchmark::DoNotOptimize(ring.value().try_pop(out));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RingPushPop40B);

}  // namespace

BENCHMARK_MAIN();
