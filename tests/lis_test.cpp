// LIS / external-sensor tests: batching-with-latency-control policies and
// the socket-free ExsCore (ring draining, clock-correction application,
// sync slave protocol, hello/bye).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <limits>
#include <thread>

#include "clock/clock.hpp"
#include "lis/batcher.hpp"
#include "lis/external_sensor.hpp"
#include "tp/replay_buffer.hpp"
#include "sensors/sensor.hpp"
#include "tp/batch.hpp"
#include "xdr/xdr_decoder.hpp"
#include "xdr/xdr_encoder.hpp"

namespace brisk::lis {
namespace {

using sensors::Field;
using sensors::Record;
using tp::ReplayBuffer;

Record test_record(TimeMicros ts) {
  Record record;
  record.sensor = 1;
  record.timestamp = ts;
  record.fields = {Field::i32(1), Field::i32(2)};
  return record;
}

ByteBuffer native_of(const Record& record) {
  auto encoded = sensors::encode_native(record);
  EXPECT_TRUE(encoded.is_ok());
  return std::move(encoded).value();
}

tp::Batch parse_batch(const ByteBuffer& payload) {
  xdr::Decoder dec(payload.view());
  auto type = tp::peek_type(dec);
  EXPECT_TRUE(type.is_ok());
  EXPECT_EQ(type.value(), tp::MsgType::data_batch);
  auto batch = tp::decode_batch(dec);
  EXPECT_TRUE(batch.is_ok()) << batch.status().to_string();
  return std::move(batch).value();
}

// ---- Batcher ------------------------------------------------------------------------

class BatcherTest : public ::testing::Test {
 protected:
  BatcherTest() { config_.node = 5; }

  Batcher make_batcher() {
    return Batcher(config_, clock_, [this](ByteBuffer payload) {
      sent_.push_back(std::move(payload));
      return Status::ok();
    });
  }

  ExsConfig config_;
  clk::ManualClock clock_{1'000'000};
  std::vector<ByteBuffer> sent_;
};

TEST_F(BatcherTest, FlushAtRecordLimit) {
  config_.batch_max_records = 3;
  config_.batch_max_age_us = 1'000'000'000;
  Batcher batcher = make_batcher();
  auto native = native_of(test_record(10));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(batcher.add_native_record(native.view(), 0));
  }
  ASSERT_EQ(sent_.size(), 1u) << "3rd record must trigger the flush";
  EXPECT_EQ(parse_batch(sent_[0]).header.record_count, 3u);
  EXPECT_EQ(batcher.pending_records(), 0u);
}

TEST_F(BatcherTest, FlushAtByteLimit) {
  config_.batch_max_records = 1'000'000;
  config_.batch_max_bytes = 128;
  config_.batch_max_age_us = 1'000'000'000;
  Batcher batcher = make_batcher();
  auto native = native_of(test_record(10));
  for (int i = 0; i < 20 && sent_.empty(); ++i) {
    ASSERT_TRUE(batcher.add_native_record(native.view(), 0));
  }
  ASSERT_FALSE(sent_.empty());
  EXPECT_LE(sent_[0].size(), 128u + 64u) << "batch roughly respects the byte limit";
  EXPECT_GE(parse_batch(sent_[0]).header.record_count, 1u);
}

TEST_F(BatcherTest, AgeBasedFlush) {
  config_.batch_max_age_us = 5'000;
  Batcher batcher = make_batcher();
  auto native = native_of(test_record(clock_.now()));
  ASSERT_TRUE(batcher.add_native_record(native.view(), 0));
  ASSERT_TRUE(batcher.maybe_flush());
  EXPECT_TRUE(sent_.empty()) << "too young to flush";
  clock_.advance(6'000);
  ASSERT_TRUE(batcher.maybe_flush());
  ASSERT_EQ(sent_.size(), 1u);
}

TEST_F(BatcherTest, AgeCountsFromNoticeNotFromAdd) {
  // A record that sat in the ring for more than one age is due the moment
  // it reaches the batcher.
  config_.batch_max_age_us = 5'000;
  Batcher batcher = make_batcher();
  ASSERT_TRUE(batcher.add_native_record(native_of(test_record(clock_.now() - 6'000)).view(), 0));
  ASSERT_TRUE(batcher.maybe_flush());
  EXPECT_EQ(sent_.size(), 1u);
}

TEST_F(BatcherTest, OldestNoticeSetsTheDeadline) {
  config_.batch_max_age_us = 5'000;
  Batcher batcher = make_batcher();
  const TimeMicros t0 = clock_.now();
  ASSERT_TRUE(batcher.add_native_record(native_of(test_record(t0)).view(), 0));
  // A later-added but older record (another ring) pulls the deadline in.
  ASSERT_TRUE(batcher.add_native_record(native_of(test_record(t0 - 4'000)).view(), 0));
  EXPECT_EQ(batcher.due_at(), t0 + 1'000);
  clock_.advance(999);
  ASSERT_TRUE(batcher.maybe_flush());
  EXPECT_TRUE(sent_.empty());
  clock_.advance(1);
  ASSERT_TRUE(batcher.maybe_flush());
  EXPECT_EQ(sent_.size(), 1u);
}

TEST_F(BatcherTest, FutureNoticeClampsToNow) {
  config_.batch_max_age_us = 5'000;
  Batcher batcher = make_batcher();
  const TimeMicros t0 = clock_.now();
  ASSERT_TRUE(batcher.add_native_record(native_of(test_record(t0 + 3'600'000'000)).view(), 0));
  EXPECT_EQ(batcher.due_at(), t0 + 5'000);
  clock_.advance(5'000);
  ASSERT_TRUE(batcher.maybe_flush());
  EXPECT_EQ(sent_.size(), 1u) << "a future stamp must not defer the flush";
}

TEST_F(BatcherTest, EmptyBatchNeverSent) {
  Batcher batcher = make_batcher();
  ASSERT_TRUE(batcher.flush());
  ASSERT_TRUE(batcher.maybe_flush());
  clock_.advance(1'000'000);
  ASSERT_TRUE(batcher.maybe_flush());
  EXPECT_TRUE(sent_.empty());
}

TEST_F(BatcherTest, CorrectionAppliedToRecords) {
  Batcher batcher = make_batcher();
  ASSERT_TRUE(batcher.add_native_record(native_of(test_record(1'000)).view(), 250));
  ASSERT_TRUE(batcher.flush());
  ASSERT_EQ(sent_.size(), 1u);
  EXPECT_EQ(parse_batch(sent_[0]).records[0].timestamp, 1'250);
}

TEST_F(BatcherTest, DropCounterTravelsInHeader) {
  Batcher batcher = make_batcher();
  batcher.set_ring_dropped_total(17);
  ASSERT_TRUE(batcher.add_native_record(native_of(test_record(1)).view(), 0));
  ASSERT_TRUE(batcher.flush());
  EXPECT_EQ(parse_batch(sent_[0]).header.ring_dropped_total, 17u);
}

TEST_F(BatcherTest, StatsTrackBatchesAndBytes) {
  Batcher batcher = make_batcher();
  ASSERT_TRUE(batcher.add_native_record(native_of(test_record(1)).view(), 0));
  ASSERT_TRUE(batcher.flush());
  ASSERT_TRUE(batcher.add_native_record(native_of(test_record(2)).view(), 0));
  ASSERT_TRUE(batcher.flush());
  EXPECT_EQ(batcher.batches_sent(), 2u);
  EXPECT_EQ(batcher.bytes_sent(), sent_[0].size() + sent_[1].size());
}

TEST_F(BatcherTest, BatchSequenceNumbersIncrease) {
  Batcher batcher = make_batcher();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(batcher.add_native_record(native_of(test_record(i)).view(), 0));
    ASSERT_TRUE(batcher.flush());
  }
  EXPECT_EQ(parse_batch(sent_[0]).header.batch_seq, 0u);
  EXPECT_EQ(parse_batch(sent_[1]).header.batch_seq, 1u);
  EXPECT_EQ(parse_batch(sent_[2]).header.batch_seq, 2u);
}

// ---- ExsConfig validation --------------------------------------------------------------

TEST(ExsConfigTest, ValidatesKnobs) {
  ExsConfig config;
  EXPECT_TRUE(config.validate());
  config.batch_max_records = 0;
  EXPECT_FALSE(config.validate());
  config = ExsConfig{};
  config.select_timeout_us = 0;
  EXPECT_FALSE(config.validate());
  config = ExsConfig{};
  config.drain_burst = 0;
  EXPECT_FALSE(config.validate());
  // Replay is not optional: there is no replay-off mode.
  config = ExsConfig{};
  config.replay_buffer_batches = 0;
  EXPECT_FALSE(config.validate());
}

// ---- ExsCore ----------------------------------------------------------------------------

class ExsCoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    memory_.resize(shm::MultiRing::region_size(4, 64 * 1024));
    auto rings = shm::MultiRing::init(memory_.data(), 4, 64 * 1024);
    ASSERT_TRUE(rings.is_ok());
    rings_ = rings.value();
    config_.node = 3;
    config_.batch_max_age_us = 0;  // flush every cycle
    core_ = std::make_unique<ExsCore>(config_, rings_, clock_, [this](ByteBuffer payload) {
      frames_.push_back(std::move(payload));
      return Status::ok();
    });
  }

  /// Frames of a given type, decoded as batches.
  std::vector<tp::Batch> sent_batches() {
    std::vector<tp::Batch> out;
    for (const ByteBuffer& frame : frames_) {
      xdr::Decoder dec(frame.view());
      auto type = tp::peek_type(dec);
      EXPECT_TRUE(type.is_ok());
      if (type.value() != tp::MsgType::data_batch) continue;
      auto batch = tp::decode_batch(dec);
      EXPECT_TRUE(batch.is_ok());
      out.push_back(std::move(batch).value());
    }
    return out;
  }

  shm::RingMemory memory_;
  shm::MultiRing rings_;
  clk::ManualClock clock_{1'000'000};
  ExsConfig config_;
  std::vector<ByteBuffer> frames_;
  std::unique_ptr<ExsCore> core_;
};

TEST_F(ExsCoreTest, HelloCarriesNodeId) {
  ASSERT_TRUE(core_->send_hello());
  ASSERT_EQ(frames_.size(), 1u);
  xdr::Decoder dec(frames_[0].view());
  auto type = tp::peek_type(dec);
  ASSERT_TRUE(type.is_ok());
  EXPECT_EQ(type.value(), tp::MsgType::hello);
  auto hello = tp::decode_hello(dec);
  ASSERT_TRUE(hello.is_ok());
  EXPECT_EQ(hello.value().node, 3u);
  EXPECT_EQ(hello.value().version, tp::kProtocolVersion);
}

TEST_F(ExsCoreTest, DrainsSensorsAcrossSlots) {
  auto ring_a = rings_.claim_slot();
  auto ring_b = rings_.claim_slot();
  ASSERT_TRUE(ring_a.is_ok());
  ASSERT_TRUE(ring_b.is_ok());
  sensors::Sensor sensor_a(ring_a.value(), clock_);
  sensors::Sensor sensor_b(ring_b.value(), clock_);
  ASSERT_TRUE(sensor_a.notice(1, sensors::x_i32(1)));
  ASSERT_TRUE(sensor_b.notice(2, sensors::x_i32(2)));

  auto drained = core_->drain_rings();
  ASSERT_TRUE(drained.is_ok());
  EXPECT_EQ(drained.value(), 2u);
  ASSERT_TRUE(core_->maybe_flush());
  auto batches = sent_batches();
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].records.size(), 2u);
}

TEST_F(ExsCoreTest, WaitRunsToTheOpenBatchDeadline) {
  config_.batch_max_age_us = 5'000;
  config_.select_timeout_us = 40'000;
  core_ = std::make_unique<ExsCore>(config_, rings_, clock_, [this](ByteBuffer payload) {
    frames_.push_back(std::move(payload));
    return Status::ok();
  });
  EXPECT_EQ(core_->wait_us(), 5'000) << "idle: one age, under the select cap";
  auto ring = rings_.claim_slot();
  ASSERT_TRUE(ring.is_ok());
  sensors::Sensor sensor(ring.value(), clock_);
  ASSERT_TRUE(sensor.notice(1, sensors::x_i32(1)));
  clock_.advance(2'000);  // the record waits in the ring before the drain
  ASSERT_TRUE(core_->drain_rings());
  ASSERT_TRUE(core_->maybe_flush());
  EXPECT_EQ(core_->wait_us(), 3'000) << "deadline - now, counted from NOTICE";
  clock_.advance(3'000);
  EXPECT_EQ(core_->wait_us(), 0);
  ASSERT_TRUE(core_->maybe_flush());
  EXPECT_EQ(sent_batches().size(), 1u);
  EXPECT_EQ(core_->wait_us(), 5'000);
}

TEST_F(ExsCoreTest, WaitIsCappedBySelectTimeout) {
  config_.batch_max_age_us = 20'000;
  config_.select_timeout_us = 8'000;
  core_ = std::make_unique<ExsCore>(config_, rings_, clock_, [this](ByteBuffer payload) {
    frames_.push_back(std::move(payload));
    return Status::ok();
  });
  EXPECT_EQ(core_->wait_us(), 8'000) << "idle: min(select, age)";
  auto ring = rings_.claim_slot();
  ASSERT_TRUE(ring.is_ok());
  sensors::Sensor sensor(ring.value(), clock_);
  ASSERT_TRUE(sensor.notice(1, sensors::x_i32(1)));
  ASSERT_TRUE(core_->drain_rings());
  EXPECT_EQ(core_->wait_us(), 8'000) << "open batch due in 20 ms, still capped";
}

TEST_F(ExsCoreTest, ZeroAgeKeepsThePlainSelectWait) {
  // The fixture flushes every cycle (batch_max_age_us = 0): the wait is the
  // select timeout, never a zero-length spin on an empty batch.
  EXPECT_EQ(core_->wait_us(), config_.select_timeout_us);
  clock_.advance(1'000'000);
  EXPECT_EQ(core_->wait_us(), config_.select_timeout_us);
}

TEST_F(ExsCoreTest, DrainBurstBoundsWork) {
  config_.drain_burst = 5;
  core_ = std::make_unique<ExsCore>(config_, rings_, clock_, [this](ByteBuffer payload) {
    frames_.push_back(std::move(payload));
    return Status::ok();
  });
  auto ring = rings_.claim_slot();
  ASSERT_TRUE(ring.is_ok());
  sensors::Sensor sensor(ring.value(), clock_);
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(sensor.notice(1, sensors::x_i32(i)));
  auto drained = core_->drain_rings();
  ASSERT_TRUE(drained.is_ok());
  EXPECT_EQ(drained.value(), 5u) << "burst limit respected";
}

TEST_F(ExsCoreTest, CorrectionValueAppliedToForwardedTimestamps) {
  // Apply an ADJUST, then forward a record: its timestamp must shift.
  ByteBuffer adjust;
  xdr::Encoder enc(adjust);
  tp::put_type(tp::MsgType::adjust, enc);
  tp::encode_adjust({2'500}, enc);
  ASSERT_TRUE(core_->handle_frame(adjust.view()));
  EXPECT_EQ(core_->correction(), 2'500);

  auto ring = rings_.claim_slot();
  ASSERT_TRUE(ring.is_ok());
  sensors::Sensor sensor(ring.value(), clock_);
  clock_.set(5'000'000);
  ASSERT_TRUE(sensor.notice(1, sensors::x_i32(0)));
  ASSERT_TRUE(core_->drain_rings().is_ok());
  ASSERT_TRUE(core_->flush());
  auto batches = sent_batches();
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].records[0].timestamp, 5'002'500);
}

TEST_F(ExsCoreTest, AdjustmentsAccumulate) {
  for (TimeMicros delta : {100, -30, 7}) {
    ByteBuffer adjust;
    xdr::Encoder enc(adjust);
    tp::put_type(tp::MsgType::adjust, enc);
    tp::encode_adjust({delta}, enc);
    ASSERT_TRUE(core_->handle_frame(adjust.view()));
  }
  EXPECT_EQ(core_->correction(), 77);
  EXPECT_EQ(core_->stats().sync_adjustments, 3u);
}

TEST_F(ExsCoreTest, TimeReqAnsweredWithCorrectedClock) {
  ByteBuffer adjust;
  xdr::Encoder enc1(adjust);
  tp::put_type(tp::MsgType::adjust, enc1);
  tp::encode_adjust({1'000}, enc1);
  ASSERT_TRUE(core_->handle_frame(adjust.view()));

  clock_.set(42'000'000);
  ByteBuffer req;
  xdr::Encoder enc2(req);
  tp::put_type(tp::MsgType::time_req, enc2);
  tp::encode_time_req({99}, enc2);
  ASSERT_TRUE(core_->handle_frame(req.view()));

  ASSERT_EQ(frames_.size(), 1u);
  xdr::Decoder dec(frames_[0].view());
  auto type = tp::peek_type(dec);
  ASSERT_TRUE(type.is_ok());
  ASSERT_EQ(type.value(), tp::MsgType::time_resp);
  auto resp = tp::decode_time_resp(dec);
  ASSERT_TRUE(resp.is_ok());
  EXPECT_EQ(resp.value().request_id, 99u);
  EXPECT_EQ(resp.value().slave_time, 42'001'000);
  EXPECT_EQ(core_->stats().sync_polls_answered, 1u);
}

TEST_F(ExsCoreTest, ByeReportsClosed) {
  ByteBuffer bye;
  xdr::Encoder enc(bye);
  tp::put_type(tp::MsgType::bye, enc);
  EXPECT_EQ(core_->handle_frame(bye.view()).code(), Errc::closed);
}

TEST_F(ExsCoreTest, UnexpectedMessageRejected) {
  ByteBuffer hello;
  xdr::Encoder enc(hello);
  tp::put_type(tp::MsgType::hello, enc);
  tp::encode_hello({1, 1}, enc);
  EXPECT_EQ(core_->handle_frame(hello.view()).code(), Errc::malformed);
}

TEST_F(ExsCoreTest, StatsCountForwardedRecords) {
  auto ring = rings_.claim_slot();
  ASSERT_TRUE(ring.is_ok());
  sensors::Sensor sensor(ring.value(), clock_);
  for (int i = 0; i < 7; ++i) ASSERT_TRUE(sensor.notice(1, sensors::x_i32(i)));
  ASSERT_TRUE(core_->drain_rings().is_ok());
  ASSERT_TRUE(core_->flush());
  EXPECT_EQ(core_->stats().records_forwarded, 7u);
  EXPECT_EQ(core_->stats().batches_sent, 1u);
  EXPECT_GT(core_->stats().bytes_sent, 0u);
}

// ---- oldest-head-first drain ------------------------------------------------------

TEST_F(ExsCoreTest, InterleavedStampsDrainInTimestampOrder) {
  constexpr int kSlots = 3;
  constexpr int kRecords = 60;
  std::vector<std::unique_ptr<sensors::Sensor>> sensors;
  for (int i = 0; i < kSlots; ++i) {
    auto ring = rings_.claim_slot();
    ASSERT_TRUE(ring.is_ok());
    sensors.push_back(std::make_unique<sensors::Sensor>(ring.value(), clock_));
  }
  // Irregular runs per slot, so neither slot order nor rotation is sorted.
  std::uint32_t lcg = 7;
  for (int i = 0; i < kRecords; ++i) {
    lcg = lcg * 1103515245u + 12345u;
    const int slot = static_cast<int>((lcg >> 16) % kSlots);
    clock_.advance(1);
    ASSERT_TRUE(sensors[slot]->notice(static_cast<SensorId>(10 + slot), sensors::x_i32(i)));
  }
  auto drained = core_->drain_rings();
  ASSERT_TRUE(drained.is_ok());
  EXPECT_EQ(drained.value(), static_cast<std::size_t>(kRecords));
  ASSERT_TRUE(core_->flush());
  std::vector<Record> out;
  for (tp::Batch& batch : sent_batches()) {
    for (Record& r : batch.records) out.push_back(std::move(r));
  }
  ASSERT_EQ(out.size(), static_cast<std::size_t>(kRecords));
  for (int i = 0; i < kRecords; ++i) {
    EXPECT_EQ(out[i].fields[0].as_signed(), i) << "record " << i << " out of NOTICE order";
  }
  EXPECT_EQ(core_->stats().intra_node_inversions, 0u);
}

TEST_F(ExsCoreTest, BurstReachesAnOlderRecordInAQuietSlot) {
  auto chatty_ring = rings_.claim_slot();
  auto quiet_ring = rings_.claim_slot();
  ASSERT_TRUE(chatty_ring.is_ok());
  ASSERT_TRUE(quiet_ring.is_ok());
  sensors::Sensor chatty(chatty_ring.value(), clock_);
  sensors::Sensor quiet(quiet_ring.value(), clock_);
  ASSERT_TRUE(quiet.notice(2, sensors::x_i32(0)));
  for (int i = 0; i < 50; ++i) {
    clock_.advance(1);
    ASSERT_TRUE(chatty.notice(1, sensors::x_i32(i)));
  }

  config_.drain_burst = 10;
  core_ = std::make_unique<ExsCore>(config_, rings_, clock_, [this](ByteBuffer payload) {
    frames_.push_back(std::move(payload));
    return Status::ok();
  });
  ASSERT_TRUE(core_->drain_rings().is_ok());
  ASSERT_TRUE(core_->flush());
  auto batches = sent_batches();
  ASSERT_EQ(batches.size(), 1u);
  ASSERT_EQ(batches[0].records.size(), 10u);
  EXPECT_EQ(batches[0].records[0].sensor, 2u) << "the quiet slot's record is the oldest";
}

TEST_F(ExsCoreTest, FutureStampedHeadDrainsUnderAChattySlot) {
  // A producer whose clock runs 10 s ahead (slot 0) next to a chatty one
  // that refills its ring between bursts: the skewed head orders as the EXS
  // clock's now, so it goes out in the first burst instead of waiting 10 s.
  auto skewed_ring = rings_.claim_slot();
  auto chatty_ring = rings_.claim_slot();
  ASSERT_TRUE(skewed_ring.is_ok());
  ASSERT_TRUE(chatty_ring.is_ok());
  clk::ManualClock skewed_clock(clock_.now() + 10'000'000);
  sensors::Sensor skewed(skewed_ring.value(), skewed_clock);
  sensors::Sensor chatty(chatty_ring.value(), clock_);
  ASSERT_TRUE(skewed.notice(2, sensors::x_i32(0)));

  config_.drain_burst = 10;
  core_ = std::make_unique<ExsCore>(config_, rings_, clock_, [this](ByteBuffer payload) {
    frames_.push_back(std::move(payload));
    return Status::ok();
  });
  std::size_t skewed_round = 0;
  for (std::size_t round = 1; round <= 5 && skewed_round == 0; ++round) {
    for (int i = 0; i < 10; ++i) {
      clock_.advance(1);
      ASSERT_TRUE(chatty.notice(1, sensors::x_i32(i)));
    }
    frames_.clear();
    ASSERT_TRUE(core_->drain_rings().is_ok());
    ASSERT_TRUE(core_->flush());
    for (const tp::Batch& batch : sent_batches()) {
      for (const Record& r : batch.records) {
        if (r.sensor == 2) skewed_round = round;
      }
    }
  }
  EXPECT_EQ(skewed_round, 1u) << "the future-stamped head must not wait for the chatty slot";
}

TEST_F(ExsCoreTest, ShortHeadDrainsFirstAsTranscodeError) {
  auto good_ring = rings_.claim_slot();
  auto bad_ring = rings_.claim_slot();
  ASSERT_TRUE(good_ring.is_ok());
  ASSERT_TRUE(bad_ring.is_ok());
  sensors::Sensor good(good_ring.value(), clock_);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(good.notice(1, sensors::x_i32(i)));
  clock_.advance(1'000);
  // Shorter than a native header: it carries no stamp to order by.
  const std::uint8_t garbage[5] = {1, 2, 3, 4, 5};
  ASSERT_TRUE(bad_ring.value().try_push(ByteSpan{garbage, sizeof garbage}));

  config_.drain_burst = 1;
  core_ = std::make_unique<ExsCore>(config_, rings_, clock_, [this](ByteBuffer payload) {
    frames_.push_back(std::move(payload));
    return Status::ok();
  });
  auto drained = core_->drain_rings();
  ASSERT_TRUE(drained.is_ok());
  EXPECT_EQ(drained.value(), 1u);
  EXPECT_EQ(core_->stats().transcode_errors, 1u) << "the short head goes first";
  EXPECT_EQ(core_->stats().records_forwarded, 0u);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(core_->drain_rings().is_ok());
  EXPECT_EQ(core_->stats().records_forwarded, 3u);
  EXPECT_EQ(core_->stats().transcode_errors, 1u);
}

TEST_F(ExsCoreTest, EqualStampsBreakTiesBySlotIndex) {
  std::vector<std::unique_ptr<sensors::Sensor>> sensors;
  for (int i = 0; i < 3; ++i) {
    auto ring = rings_.claim_slot();
    ASSERT_TRUE(ring.is_ok());
    sensors.push_back(std::make_unique<sensors::Sensor>(ring.value(), clock_));
  }
  // Noticed last slot first, all at one stamp.
  for (int slot = 2; slot >= 0; --slot) {
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(sensors[slot]->notice(static_cast<SensorId>(10 + slot), sensors::x_i32(i)));
    }
  }
  ASSERT_TRUE(core_->drain_rings().is_ok());
  ASSERT_TRUE(core_->flush());
  auto batches = sent_batches();
  ASSERT_EQ(batches.size(), 1u);
  std::vector<SensorId> order;
  for (const Record& r : batches[0].records) order.push_back(r.sensor);
  EXPECT_EQ(order, (std::vector<SensorId>{10, 10, 11, 11, 12, 12}));
}

TEST_F(ExsCoreTest, LateRecordCountsAsIntraNodeInversion) {
  // A producer that read its clock before another producer's record was
  // drained pushes a stamp below what the EXS already sent.
  auto ring_a = rings_.claim_slot();
  auto ring_b = rings_.claim_slot();
  ASSERT_TRUE(ring_a.is_ok());
  ASSERT_TRUE(ring_b.is_ok());
  sensors::Sensor a(ring_a.value(), clock_);
  clk::ManualClock late_clock(clock_.now());
  sensors::Sensor b(ring_b.value(), late_clock);
  clock_.advance(5);
  ASSERT_TRUE(a.notice(1, sensors::x_i32(0)));
  ASSERT_TRUE(core_->drain_rings().is_ok());
  late_clock.advance(3);
  ASSERT_TRUE(b.notice(2, sensors::x_i32(0)));  // 2 us behind
  late_clock.advance(1);
  ASSERT_TRUE(b.notice(2, sensors::x_i32(1)));  // still behind
  late_clock.advance(2);
  ASSERT_TRUE(b.notice(2, sensors::x_i32(2)));  // 1 us ahead
  ASSERT_TRUE(core_->drain_rings().is_ok());
  EXPECT_EQ(core_->stats().intra_node_inversions, 2u);
  std::uint64_t exported = 0;
  for (const metrics::Sample& sample : core_->metrics().snapshot()) {
    if (sample.name == "exs.intra_node_inversions") exported = sample.value;
  }
  EXPECT_EQ(exported, 2u);
}

/// Producer 0's clock. Every 256 reads, when its own ring has room for the
/// push that follows, it stalls between the clock read and the push, as a
/// preempted producer would, until the EXS has drained a record that
/// producer 1 stamped after that read. The push then lands behind.
class PreemptedClock final : public clk::Clock {
 public:
  PreemptedClock(shm::RingBuffer own, shm::RingBuffer other) : own_(own), other_(other) {}

  TimeMicros now() noexcept override {
    clk::Clock& wall = clk::SystemClock::instance();
    const TimeMicros t = wall.now();
    if (reads_++ < next_stall_ || own_.bytes_used() > own_.capacity() / 2) return t;
    next_stall_ = reads_ + 256;
    while (wall.now() <= t) {
    }
    // The other producer's next record may have read its clock before t;
    // the one after it read its clock after this point.
    const std::uint64_t newer = other_.stats().pushed + 2;
    while (other_.stats().popped < newer) std::this_thread::yield();
    ++stalls_;
    return t;
  }

  [[nodiscard]] std::uint64_t stalls() const noexcept { return stalls_; }

 private:
  shm::RingBuffer own_;
  shm::RingBuffer other_;
  std::uint64_t reads_ = 0;
  std::uint64_t next_stall_ = 0;
  std::uint64_t stalls_ = 0;
};

TEST(ExsMergeStressTest, TwoProducersDrainOnceInRingOrderWithCountedInversions) {
  constexpr std::int32_t kPreempted = 20'000;
  shm::RingMemory memory(shm::MultiRing::region_size(2, 64 * 1024));
  auto rings = shm::MultiRing::init(memory.data(), 2, 64 * 1024);
  ASSERT_TRUE(rings.is_ok());
  std::vector<shm::RingBuffer> producer_rings;
  for (int i = 0; i < 2; ++i) {
    auto ring = rings.value().claim_slot();
    ASSERT_TRUE(ring.is_ok());
    producer_rings.push_back(ring.value());
  }
  ExsConfig config;
  config.node = 9;
  config.batch_max_age_us = 0;
  std::vector<ByteBuffer> frames;
  ExsCore core(config, rings.value(), clk::SystemClock::instance(), [&](ByteBuffer payload) {
    frames.push_back(std::move(payload));
    return Status::ok();
  });

  PreemptedClock preempted_clock(producer_rings[0], producer_rings[1]);
  std::atomic<bool> preempted_done{false};
  std::atomic<int> running{2};
  std::int32_t steady_count = 0;
  // Retry a full ring: every record must arrive exactly once.
  std::thread preempted([&] {
    sensors::Sensor sensor(producer_rings[0], preempted_clock);
    for (std::int32_t i = 0; i < kPreempted; ++i) {
      while (!sensor.notice(1, sensors::x_i32(i))) std::this_thread::yield();
    }
    preempted_done.store(true, std::memory_order_release);
    running.fetch_sub(1, std::memory_order_release);
  });
  // Keeps pushing until the preempted producer is done, so its stalls end.
  std::thread steady([&] {
    sensors::Sensor sensor(producer_rings[1], clk::SystemClock::instance());
    while (!preempted_done.load(std::memory_order_acquire)) {
      while (!sensor.notice(2, sensors::x_i32(steady_count))) std::this_thread::yield();
      ++steady_count;
    }
    running.fetch_sub(1, std::memory_order_release);
  });
  while (running.load(std::memory_order_acquire) > 0) {
    ASSERT_TRUE(core.drain_rings().is_ok());
    ASSERT_TRUE(core.maybe_flush());
  }
  preempted.join();
  steady.join();
  for (;;) {
    auto drained = core.drain_rings();
    ASSERT_TRUE(drained.is_ok());
    if (drained.value() == 0) break;
  }
  ASSERT_TRUE(core.flush());

  std::int32_t next[2] = {0, 0};
  std::uint64_t observed = 0;
  TimeMicros high_water = std::numeric_limits<TimeMicros>::min();
  for (const ByteBuffer& frame : frames) {
    const tp::Batch batch = parse_batch(frame);
    for (const Record& r : batch.records) {
      ASSERT_TRUE(r.sensor == 1 || r.sensor == 2);
      const int p = static_cast<int>(r.sensor) - 1;
      ASSERT_EQ(r.fields[0].as_signed(), next[p]) << "ring " << p << " lost FIFO or a record";
      ++next[p];
      if (r.timestamp < high_water) ++observed;
      high_water = std::max(high_water, r.timestamp);
    }
  }
  EXPECT_EQ(next[0], kPreempted);
  EXPECT_EQ(next[1], steady_count);
  EXPECT_EQ(core.stats().records_forwarded,
            static_cast<std::uint64_t>(kPreempted) + static_cast<std::uint64_t>(steady_count));
  EXPECT_EQ(core.stats().intra_node_inversions, observed);
  ASSERT_GT(preempted_clock.stalls(), 0u);
  EXPECT_GE(observed, preempted_clock.stalls()) << "every stalled push lands behind";
}

// ---- ReplayBuffer --------------------------------------------------------------------

/// A synthetic data_batch frame: 12-byte header (type, node, batch_seq as
/// big-endian u32s) padded out to `total_bytes`.
ByteBuffer replay_frame(std::uint32_t batch_seq, std::size_t total_bytes) {
  EXPECT_GE(total_bytes, 12u);
  ByteBuffer frame;
  xdr::Encoder enc(frame);
  enc.put_u32(2);  // MsgType::data_batch
  enc.put_u32(1);  // node
  enc.put_u32(batch_seq);
  const std::vector<std::uint8_t> padding(total_bytes - 12, 0xab);
  frame.append(ByteSpan{padding.data(), padding.size()});
  return frame;
}

TEST(ReplayBufferTest, ByteCapEvictsOldestFirst) {
  ReplayBuffer buffer(/*max_batches=*/100, /*max_bytes=*/1000);
  for (std::uint32_t seq = 0; seq < 5; ++seq) {
    ASSERT_TRUE(buffer.retain(replay_frame(seq, 300).view()));
  }
  // 5 x 300 bytes against a 1000-byte cap: the two oldest must have gone.
  EXPECT_EQ(buffer.size(), 3u);
  EXPECT_EQ(buffer.bytes(), 900u);
  EXPECT_EQ(buffer.evictions(), 2u);
  EXPECT_EQ(buffer.entries().front().batch_seq, 2u);
  EXPECT_EQ(buffer.entries().back().batch_seq, 4u);
}

TEST(ReplayBufferTest, JumboBatchDisplacesEverythingYetIsRetained) {
  ReplayBuffer buffer(/*max_batches=*/100, /*max_bytes=*/1000);
  for (std::uint32_t seq = 0; seq < 3; ++seq) {
    ASSERT_TRUE(buffer.retain(replay_frame(seq, 300).view()));
  }
  // One batch bigger than the whole cap: everything older is declared lost,
  // but the jumbo itself stays — it is the batch currently in flight.
  ASSERT_TRUE(buffer.retain(replay_frame(3, 2'000).view()));
  EXPECT_EQ(buffer.size(), 1u);
  EXPECT_EQ(buffer.bytes(), 2'000u);
  EXPECT_EQ(buffer.evictions(), 3u);
  EXPECT_EQ(buffer.entries().front().batch_seq, 3u);
}

TEST(ReplayBufferTest, CountCapIndependentOfByteCap) {
  ReplayBuffer buffer(/*max_batches=*/2, /*max_bytes=*/0);
  for (std::uint32_t seq = 0; seq < 3; ++seq) {
    ASSERT_TRUE(buffer.retain(replay_frame(seq, 100).view()));
  }
  EXPECT_EQ(buffer.size(), 2u);
  EXPECT_EQ(buffer.evictions(), 1u);
  EXPECT_EQ(buffer.entries().front().batch_seq, 1u);
}

TEST(ReplayBufferTest, AckReleasesBytes) {
  ReplayBuffer buffer(/*max_batches=*/10, /*max_bytes=*/10'000);
  for (std::uint32_t seq = 0; seq < 4; ++seq) {
    ASSERT_TRUE(buffer.retain(replay_frame(seq, 250).view()));
  }
  EXPECT_EQ(buffer.bytes(), 1'000u);
  buffer.ack(/*next_expected=*/3);
  EXPECT_EQ(buffer.size(), 1u);
  EXPECT_EQ(buffer.bytes(), 250u);
  EXPECT_EQ(buffer.evictions(), 0u) << "acked batches are not evictions";
}

}  // namespace
}  // namespace brisk::lis
