#include "consumers/perturbation.hpp"

#include <cstdio>
#include <vector>

#include "common/time_util.hpp"
#include "shm/ring_buffer.hpp"

namespace brisk::consumers {

NoticeCalibration calibrate_notice_cost(std::uint64_t iterations) {
  NoticeCalibration calibration;
  calibration.calibration_iterations = iterations;
  if (iterations == 0) return calibration;

  using sensors::x_i32;

  // Accepted path: a ring large enough to never fill within one drain.
  {
    shm::RingMemory memory(shm::RingBuffer::region_size(4u << 20));
    auto ring = shm::RingBuffer::init(memory.data(), 4u << 20);
    if (!ring) return calibration;
    sensors::Sensor sensor(ring.value(), clk::SystemClock::instance());
    std::vector<std::uint8_t> scratch;
    const TimeMicros before = thread_cpu_micros();
    for (std::uint64_t i = 0; i < iterations; ++i) {
      const auto v = static_cast<std::int32_t>(i);
      (void)sensor.notice(1, x_i32(v), x_i32(v), x_i32(v), x_i32(v), x_i32(v), x_i32(v));
      if (ring.value().bytes_used() > (2u << 20)) {
        // Drain outside the timed per-notice path as the EXS would; the
        // pops are attributed to the EXS, not the application, so pause
        // the measurement around them.
        scratch.clear();
        while (ring.value().try_pop(scratch)) scratch.clear();
      }
    }
    const TimeMicros elapsed = thread_cpu_micros() - before;
    calibration.per_notice_us =
        static_cast<double>(elapsed) / static_cast<double>(iterations);
  }

  // Dropped path: a minimal ring that is permanently full.
  {
    shm::RingMemory memory(shm::RingBuffer::region_size(128));
    auto ring = shm::RingBuffer::init(memory.data(), 128);
    if (!ring) return calibration;
    sensors::Sensor sensor(ring.value(), clk::SystemClock::instance());
    // Fill it.
    while (sensor.notice(1, x_i32(0), x_i32(0), x_i32(0), x_i32(0), x_i32(0), x_i32(0))) {
    }
    const TimeMicros before = thread_cpu_micros();
    for (std::uint64_t i = 0; i < iterations; ++i) {
      const auto v = static_cast<std::int32_t>(i);
      (void)sensor.notice(1, x_i32(v), x_i32(v), x_i32(v), x_i32(v), x_i32(v), x_i32(v));
    }
    const TimeMicros elapsed = thread_cpu_micros() - before;
    calibration.per_dropped_us =
        static_cast<double>(elapsed) / static_cast<double>(iterations);
  }
  return calibration;
}

PerturbationReport estimate_perturbation(const sensors::SensorStats& stats,
                                         const NoticeCalibration& calibration) {
  PerturbationReport report;
  report.notices = stats.notices;
  report.accepted = stats.records_pushed;
  report.dropped = stats.records_dropped;
  report.estimated_overhead_us =
      static_cast<double>(stats.records_pushed) * calibration.per_notice_us +
      static_cast<double>(stats.records_dropped) * calibration.per_dropped_us;
  return report;
}

std::string PerturbationReport::to_string() const {
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "notices=%llu accepted=%llu dropped=%llu est_overhead=%.1fus",
                static_cast<unsigned long long>(notices),
                static_cast<unsigned long long>(accepted),
                static_cast<unsigned long long>(dropped), estimated_overhead_us);
  return buf;
}

}  // namespace brisk::consumers
