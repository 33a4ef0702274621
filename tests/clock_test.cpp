// Clock substrate and synchronization algorithm tests: SimClock drift
// model, Cristian skew estimation, the baseline Cristian sync, the BRISK
// modified sync (reference election, above-average advancement, 0.7
// conservative fraction), and SyncService round scheduling.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>

#include "clock/brisk_sync.hpp"
#include "clock/clock.hpp"
#include "clock/cristian_sync.hpp"
#include "clock/sim_clock.hpp"
#include "clock/skew_estimator.hpp"
#include "clock/sync_service.hpp"
#include "sensors/field.hpp"
#include "sensors/record.hpp"
#include "sim/channel.hpp"

namespace brisk::clk {
namespace {

// ---- clocks ----------------------------------------------------------------------

TEST(ManualClockTest, SetAndAdvance) {
  ManualClock clock(100);
  EXPECT_EQ(clock.now(), 100);
  clock.advance(50);
  EXPECT_EQ(clock.now(), 150);
  clock.set(7);
  EXPECT_EQ(clock.now(), 7);
}

TEST(SystemClockTest, TracksWallTime) {
  SystemClock clock;
  const TimeMicros a = clock.now();
  const TimeMicros b = clock.now();
  EXPECT_GE(b, a);
  EXPECT_GT(a, 1'577'836'800'000'000LL);  // after 2020
}

TEST(SimClockTest, InitialOffsetApplied) {
  ManualClock reference(1'000'000);
  SimClock clock(reference, {.initial_offset_us = 2'500});
  EXPECT_EQ(clock.now(), 1'002'500);
  EXPECT_EQ(clock.true_skew(), 2'500);
}

TEST(SimClockTest, DriftAccumulatesWithReferenceTime) {
  ManualClock reference(0);
  SimClock clock(reference, {.initial_offset_us = 0, .drift_ppm = 100.0});
  reference.advance(10'000'000);  // 10 s at +100 ppm → +1000 µs
  EXPECT_EQ(clock.true_skew(), 1'000);
  EXPECT_EQ(clock.now(), 10'001'000);
}

TEST(SimClockTest, NegativeDrift) {
  ManualClock reference(0);
  SimClock clock(reference, {.drift_ppm = -50.0});
  reference.advance(2'000'000);
  EXPECT_EQ(clock.true_skew(), -100);
}

TEST(SimClockTest, AdjustShiftsReadings) {
  ManualClock reference(0);
  SimClock clock(reference, {.initial_offset_us = -700});
  clock.adjust(700);
  EXPECT_EQ(clock.true_skew(), 0);
  EXPECT_EQ(clock.total_adjustment(), 700);
}

TEST(SimClockTest, JitterBoundedAndExcludedFromTrueSkew) {
  ManualClock reference(1'000'000);
  SimClock clock(reference, {.initial_offset_us = 0, .read_jitter_us = 25, .seed = 3});
  for (int i = 0; i < 200; ++i) {
    const TimeMicros delta = clock.now() - reference.now();
    EXPECT_LE(std::llabs(delta), 25);
  }
  EXPECT_EQ(clock.true_skew(), 0);
}

// ---- skew estimation ----------------------------------------------------------------

/// Scripted transport: plays back canned samples.
class ScriptedTransport final : public SyncTransport {
 public:
  std::vector<std::vector<PollSample>> scripts;  // per slave, consumed FIFO
  std::vector<TimeMicros> adjustments;

  [[nodiscard]] std::size_t slave_count() const noexcept override { return scripts.size(); }
  Result<PollSample> poll(std::size_t index) override {
    auto& queue = scripts.at(index);
    if (queue.empty()) return Status(Errc::io_error, "script exhausted");
    PollSample sample = queue.front();
    queue.erase(queue.begin());
    return sample;
  }
  Status adjust(std::size_t index, TimeMicros delta) override {
    adjustments.resize(scripts.size(), 0);
    adjustments.at(index) += delta;
    return Status::ok();
  }
};

TEST(PollSampleTest, SkewEstimateFormula) {
  // Master sends at 1000, slave reads 5000, master receives at 1200:
  // rtt 200, estimate = 5000 − (1000 + 100) = 3900.
  PollSample sample{1'000, 5'000, 1'200};
  EXPECT_EQ(sample.round_trip(), 200);
  EXPECT_EQ(sample.skew_estimate(), 3'900);
}

TEST(SkewEstimatorTest, PicksMinimumRttSample) {
  ScriptedTransport transport;
  transport.scripts = {{
      {0, 1'000, 400},   // rtt 400, estimate 800
      {0, 1'000, 100},   // rtt 100, estimate 950  ← tightest bound
      {0, 1'000, 300},   // rtt 300, estimate 850
  }};
  auto estimate = estimate_skew(transport, 0, 3);
  ASSERT_TRUE(estimate.is_ok());
  EXPECT_EQ(estimate.value().best_rtt, 100);
  EXPECT_EQ(estimate.value().skew, 950);
  EXPECT_EQ(estimate.value().samples, 3u);
}

TEST(SkewEstimatorTest, ToleratesPartialFailures) {
  ScriptedTransport transport;
  transport.scripts = {{{0, 500, 100}}};  // only one sample available
  auto estimate = estimate_skew(transport, 0, 4);
  ASSERT_TRUE(estimate.is_ok());
  EXPECT_EQ(estimate.value().samples, 1u);
}

TEST(SkewEstimatorTest, AllPollsFailedIsError) {
  ScriptedTransport transport;
  transport.scripts = {{}};
  EXPECT_FALSE(estimate_skew(transport, 0, 3).is_ok());
}

TEST(SkewEstimatorTest, ZeroPollsRejected) {
  ScriptedTransport transport;
  transport.scripts = {{}};
  EXPECT_EQ(estimate_skew(transport, 0, 0).status().code(), Errc::invalid_argument);
}

// ---- simulated world helpers -----------------------------------------------------------

struct SimWorld {
  ManualClock reference{0};
  sim::LatencyModel model;
  sim::SimSyncTransport transport;
  std::vector<std::unique_ptr<SimClock>> clocks;

  explicit SimWorld(const sim::LatencyModelConfig& latency = {.base_us = 100,
                                                              .jitter_us = 20,
                                                              .seed = 11})
      : model(latency), transport(reference, reference, model) {}

  SimClock& add_clock(TimeMicros offset, double drift_ppm = 0.0, std::uint64_t seed = 1) {
    clocks.push_back(std::make_unique<SimClock>(
        reference,
        SimClockConfig{.initial_offset_us = offset, .drift_ppm = drift_ppm, .seed = seed}));
    transport.add_slave(clocks.back().get());
    return *clocks.back();
  }
};

// ---- Cristian baseline -------------------------------------------------------------------

TEST(CristianSyncTest, DrivesSlavesTowardMaster) {
  SimWorld world;
  world.add_clock(10'000);
  world.add_clock(-8'000);
  CristianSync sync(CristianConfig{.polls_per_round = 4});
  auto report = sync.run_round(world.transport);
  ASSERT_TRUE(report.is_ok());
  // After one round both clocks should be within jitter+latency error of
  // the master (0 skew).
  EXPECT_LT(std::llabs(world.clocks[0]->true_skew()), 200);
  EXPECT_LT(std::llabs(world.clocks[1]->true_skew()), 200);
}

TEST(CristianSyncTest, DeadbandLeavesSmallSkewsAlone) {
  SimWorld world(sim::LatencyModelConfig{.base_us = 10, .jitter_us = 0, .seed = 5});
  world.add_clock(50);
  CristianSync sync(CristianConfig{.polls_per_round = 2, .deadband_us = 1'000});
  auto report = sync.run_round(world.transport);
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(report.value().slaves[0].correction, 0);
  EXPECT_EQ(world.clocks[0]->true_skew(), 50);
}

TEST(CristianSyncTest, ReportsPerSlaveEstimates) {
  SimWorld world(sim::LatencyModelConfig{.base_us = 100, .jitter_us = 0, .seed = 2});
  world.add_clock(5'000);
  CristianSync sync(CristianConfig{.polls_per_round = 1});
  auto report = sync.run_round(world.transport);
  ASSERT_TRUE(report.is_ok());
  ASSERT_EQ(report.value().slaves.size(), 1u);
  EXPECT_TRUE(report.value().slaves[0].polled_ok);
  // Symmetric latency → estimate should be exact here.
  EXPECT_EQ(report.value().slaves[0].estimated_skew, 5'000);
  EXPECT_EQ(report.value().reference_slave, -1);
}

// ---- BRISK modified sync --------------------------------------------------------------------

TEST(BriskSyncTest, ElectsMostAheadClockAsReference) {
  SimWorld world(sim::LatencyModelConfig{.base_us = 50, .jitter_us = 0, .seed = 3});
  world.add_clock(1'000);
  world.add_clock(9'000);  // most ahead
  world.add_clock(-2'000);
  BriskSync sync(BriskSyncConfig{.polls_per_round = 2});
  auto report = sync.run_round(world.transport);
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(report.value().reference_slave, 1);
}

TEST(BriskSyncTest, ReferenceClockIsNeverAdjusted) {
  SimWorld world(sim::LatencyModelConfig{.base_us = 50, .jitter_us = 0, .seed = 3});
  world.add_clock(9'000);
  world.add_clock(0);
  BriskSync sync(BriskSyncConfig{.polls_per_round = 2});
  auto report = sync.run_round(world.transport);
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(report.value().slaves[0].correction, 0);
  EXPECT_EQ(world.clocks[0]->true_skew(), 9'000) << "reference must not move";
}

TEST(BriskSyncTest, ClocksOnlyAdvanceNeverRetreat) {
  SimWorld world;
  world.add_clock(20'000);
  world.add_clock(-5'000);
  world.add_clock(3'000);
  BriskSync sync(BriskSyncConfig{.polls_per_round = 4});
  for (int round = 0; round < 5; ++round) {
    std::vector<TimeMicros> before;
    before.reserve(world.clocks.size());
    for (auto& c : world.clocks) before.push_back(c->total_adjustment());
    ASSERT_TRUE(sync.run_round(world.transport).is_ok());
    for (std::size_t i = 0; i < world.clocks.size(); ++i) {
      EXPECT_GE(world.clocks[i]->total_adjustment(), before[i])
          << "slave " << i << " round " << round;
    }
    world.reference.advance(100'000);
  }
}

TEST(BriskSyncTest, ConvergesSlavesToEachOtherNotToMaster) {
  // All slaves far ahead of the master; BRISK should bring them together
  // near the most-ahead clock, NOT drag them to the master's 0.
  SimWorld world(sim::LatencyModelConfig{.base_us = 100, .jitter_us = 10, .seed = 17});
  world.add_clock(500'000);
  world.add_clock(520'000);
  world.add_clock(480'000);
  BriskSync sync(BriskSyncConfig{.polls_per_round = 4, .avg_threshold_us = 100});
  for (int round = 0; round < 12; ++round) {
    ASSERT_TRUE(sync.run_round(world.transport).is_ok());
    world.reference.advance(1'000'000);
  }
  EXPECT_LT(world.transport.max_pairwise_skew(), 1'000)
      << "ensemble should agree within ~noise";
  for (auto& c : world.clocks) {
    EXPECT_GT(c->true_skew(), 400'000) << "nobody is pulled toward the master";
  }
}

TEST(BriskSyncTest, ConservativeFractionBelowThreshold) {
  // Two slaves 1000 µs apart with a huge threshold: the laggard's relative
  // skew equals the average (it is the only non-reference slave), so the
  // at-or-above rule moves it by the 0.7 conservative fraction.
  SimWorld world(sim::LatencyModelConfig{.base_us = 10, .jitter_us = 0, .seed = 9});
  world.add_clock(1'000);
  world.add_clock(0);
  BriskSync sync(BriskSyncConfig{
      .polls_per_round = 1, .avg_threshold_us = 1'000'000, .conservative_fraction = 0.7});
  auto report = sync.run_round(world.transport);
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(report.value().slaves[1].correction, 700);

  SimWorld world3(sim::LatencyModelConfig{.base_us = 10, .jitter_us = 0, .seed = 9});
  world3.add_clock(1'000);
  world3.add_clock(900);   // rel 100 < avg 550 → untouched
  world3.add_clock(0);     // rel 1000 > avg 550 → corrected by 0.7×1000
  BriskSync sync3(BriskSyncConfig{
      .polls_per_round = 1, .avg_threshold_us = 1'000'000, .conservative_fraction = 0.7});
  auto report3 = sync3.run_round(world3.transport);
  ASSERT_TRUE(report3.is_ok());
  EXPECT_EQ(report3.value().slaves[1].correction, 0);
  EXPECT_EQ(report3.value().slaves[2].correction, 700);
}

TEST(BriskSyncTest, FullCorrectionAboveThreshold) {
  SimWorld world(sim::LatencyModelConfig{.base_us = 10, .jitter_us = 0, .seed = 9});
  world.add_clock(10'000);
  world.add_clock(9'500);  // rel 500 < avg 5250
  world.add_clock(0);      // rel 10000 > avg 5250 → full correction
  BriskSync sync(BriskSyncConfig{.polls_per_round = 1, .avg_threshold_us = 100});
  auto report = sync.run_round(world.transport);
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(report.value().slaves[2].correction, 10'000);
  EXPECT_EQ(world.clocks[2]->true_skew(), 10'000);
}

TEST(BriskSyncTest, SingleSlaveIsStable) {
  SimWorld world;
  world.add_clock(4'000);
  BriskSync sync(BriskSyncConfig{.polls_per_round = 2});
  auto report = sync.run_round(world.transport);
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(world.clocks[0]->true_skew(), 4'000) << "nothing to synchronize against";
}

TEST(BriskSyncTest, NoSlavesIsError) {
  SimWorld world;
  BriskSync sync(BriskSyncConfig{});
  EXPECT_FALSE(sync.run_round(world.transport).is_ok());
}

TEST(BriskSyncTest, HandlesDriftingClocksOverManyRounds) {
  SimWorld world(sim::LatencyModelConfig{.base_us = 150, .jitter_us = 30, .seed = 23});
  world.add_clock(0, +80.0, 31);
  world.add_clock(5'000, -40.0, 32);
  world.add_clock(-3'000, +20.0, 33);
  world.add_clock(1'000, -90.0, 34);
  BriskSync sync(BriskSyncConfig{.polls_per_round = 4, .avg_threshold_us = 100});
  // 5 s rounds for 2 simulated minutes.
  for (int round = 0; round < 24; ++round) {
    ASSERT_TRUE(sync.run_round(world.transport).is_ok());
    world.reference.advance(5'000'000);
  }
  // Drift between rounds is ≤ 5 s × 170 ppm ≈ 850 µs; after correction the
  // ensemble must stay within that order of magnitude.
  EXPECT_LT(world.transport.max_pairwise_skew(), 2'000);
}

// ---- SyncService -----------------------------------------------------------------------------

TEST(SyncServiceTest, RunsRoundOnPeriod) {
  SimWorld world;
  world.add_clock(1'000);
  SyncServiceConfig config;
  config.period_us = 5'000'000;
  SyncService service(config, world.transport, world.reference);
  EXPECT_FALSE(service.maybe_run_round()) << "period not elapsed yet";
  world.reference.advance(5'000'001);
  EXPECT_TRUE(service.maybe_run_round());
  EXPECT_EQ(service.rounds_run(), 1u);
  EXPECT_FALSE(service.maybe_run_round()) << "period restarts";
}

TEST(SyncServiceTest, ExtraRoundOnRequest) {
  SimWorld world;
  world.add_clock(1'000);
  SyncServiceConfig config;
  config.period_us = 60'000'000;
  SyncService service(config, world.transport, world.reference);
  service.request_extra_round();
  EXPECT_TRUE(service.maybe_run_round()) << "tachyon-triggered round is immediate";
  EXPECT_EQ(service.extra_rounds_run(), 1u);
  EXPECT_FALSE(service.maybe_run_round());
}

TEST(SyncServiceTest, ObserverSeesReports) {
  SimWorld world;
  world.add_clock(2'000);
  SyncServiceConfig config;
  config.period_us = 1;
  SyncService service(config, world.transport, world.reference);
  int observed = 0;
  service.set_observer([&](const RoundReport& report) {
    ++observed;
    EXPECT_EQ(report.slaves.size(), 1u);
  });
  world.reference.advance(10);
  EXPECT_TRUE(service.maybe_run_round());
  EXPECT_EQ(observed, 1);
}

// ---- parameterized: asymmetric latency bounds both algorithms -----------------------------------

class AsymmetrySweep : public ::testing::TestWithParam<TimeMicros> {};

TEST_P(AsymmetrySweep, EnsembleDispersionBoundedByAsymmetry) {
  // With asymmetric network delay the rtt/2 assumption is off by
  // asymmetry/2 per estimate; the ensemble dispersion after sync should
  // stay within a few times that bias, since all slaves share it.
  SimWorld world(sim::LatencyModelConfig{
      .base_us = 100, .jitter_us = 10, .asymmetry_us = GetParam(), .seed = 29});
  world.add_clock(10'000);
  world.add_clock(-10'000);
  world.add_clock(0);
  BriskSync sync(BriskSyncConfig{.polls_per_round = 4, .avg_threshold_us = 100});
  for (int round = 0; round < 10; ++round) {
    ASSERT_TRUE(sync.run_round(world.transport).is_ok());
    world.reference.advance(1'000'000);
  }
  EXPECT_LT(world.transport.max_pairwise_skew(), 500 + GetParam());
}

INSTANTIATE_TEST_SUITE_P(Asymmetries, AsymmetrySweep, ::testing::Values(0, 100, 500, 2'000));

// ---- federated (two-hop) clock composition ------------------------------------------------
//
// In a relay tree each hop estimates skew against its parent independently
// and records are shifted once per hop (relay applies its parent-relative
// correction before forwarding). Cristian's bound says each estimate is
// within rtt/2 of truth, so a two-hop composition must land within the SUM
// of the per-hop bounds — that is the invariant that makes per-hop
// corrections safe to stack instead of requiring every leaf to sync
// directly with the root.

TEST(FederatedSyncTest, TwoHopSkewEstimatesComposeWithinSummedBounds) {
  ManualClock reference{1'000'000};  // the root's timebase is true time here
  sim::LatencyModel model({.base_us = 100, .jitter_us = 20, .seed = 7});
  SimClock relay(reference,
                 SimClockConfig{.initial_offset_us = 3'000, .drift_ppm = 0.0, .seed = 1});
  SimClock leaf(reference,
                SimClockConfig{.initial_offset_us = 5'000, .drift_ppm = 0.0, .seed = 2});

  // Hop 1: the relay polls its leaf EXS (true leaf-vs-relay skew: 2000).
  sim::SimSyncTransport hop1(reference, relay, model);
  hop1.add_slave(&leaf);
  auto est1 = estimate_skew(hop1, 0, 8);
  ASSERT_TRUE(est1.is_ok());
  const TimeMicros bound1 = est1.value().best_rtt / 2;
  EXPECT_LE(std::llabs(est1.value().skew - 2'000), bound1);

  // Hop 2: the root polls the relay (true relay-vs-root skew: 3000).
  sim::SimSyncTransport hop2(reference, reference, model);
  hop2.add_slave(&relay);
  auto est2 = estimate_skew(hop2, 0, 8);
  ASSERT_TRUE(est2.is_ok());
  const TimeMicros bound2 = est2.value().best_rtt / 2;
  EXPECT_LE(std::llabs(est2.value().skew - 3'000), bound2);

  // Composed leaf-vs-root estimate: within the sum of per-hop bounds.
  EXPECT_LE(std::llabs((est1.value().skew + est2.value().skew) - 5'000), bound1 + bound2);

  // A record stamped by the leaf, shifted hop by hop exactly the way the
  // relay tier does it (apply_time_delta at each hop), lands within the
  // summed bound of its true root-time.
  sensors::Record record;
  record.node = 4;
  record.sensor = 1;
  record.timestamp = leaf.now();
  const TimeMicros true_root_time = record.timestamp - 5'000;
  sensors::apply_time_delta(record, -est1.value().skew);  // leaf → relay timebase
  sensors::apply_time_delta(record, -est2.value().skew);  // relay → root timebase
  EXPECT_LE(std::llabs(record.timestamp - true_root_time), bound1 + bound2);
}

TEST(FederatedSyncTest, SequentialTimeDeltasEqualTheirSum) {
  sensors::Record base;
  base.node = 7;
  base.sensor = 2;
  base.sequence = 11;
  base.timestamp = 10'000;
  base.fields = {sensors::Field::u64(99), sensors::Field::ts(4'000),
                 sensors::Field::reason(5)};

  sensors::Record hops = base;
  sensors::apply_time_delta(hops, 250);     // first hop's correction
  sensors::apply_time_delta(hops, -1'750);  // second hop's correction
  sensors::Record flat = base;
  sensors::apply_time_delta(flat, 250 - 1'750);
  EXPECT_EQ(hops, flat) << "per-hop deltas must compose additively";

  // Embedded timestamps shift with the record; everything else is untouched.
  EXPECT_EQ(hops.timestamp, 10'000 + 250 - 1'750);
  EXPECT_EQ(hops.fields[1].as_timestamp(), 4'000 + 250 - 1'750);
  EXPECT_EQ(hops.fields[0].as_unsigned(), 99u);
  EXPECT_EQ(hops.reason_id(), std::optional<CausalId>{5});

  sensors::Record zero = base;
  sensors::apply_time_delta(zero, 0);
  EXPECT_EQ(zero, base) << "zero delta is the identity";
}

}  // namespace
}  // namespace brisk::clk
