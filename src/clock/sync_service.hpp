// Round scheduling for the master side of clock synchronization.
//
// The ISM runs a "clock sync loop" (Fig. 1): a round every `period`, plus
// on-demand extra rounds requested by the on-line sorter when it detects a
// tachyon among causally-related events ("an extra round of the clock
// synchronization algorithm is invoked immediately").
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "clock/brisk_sync.hpp"
#include "clock/clock.hpp"

namespace brisk::clk {

struct SyncServiceConfig {
  TimeMicros period_us = 5'000'000;  // the paper evaluates 5 s rounds
  BriskSyncConfig brisk;
};

/// Drives rounds against a SyncTransport based on a clock, without owning a
/// thread: callers (the ISM event loop, the simulation driver) call
/// `maybe_run_round(now)` whenever convenient and `request_extra_round()`
/// from the CRE matcher.
class SyncService {
 public:
  using RoundObserver = std::function<void(const RoundReport&)>;

  SyncService(SyncServiceConfig config, SyncTransport& transport, Clock& clock);

  /// Runs a round if the period elapsed or an extra round is pending.
  /// Returns true if a round ran.
  bool maybe_run_round();

  /// Unconditionally runs a round now.
  Result<RoundReport> run_round_now();

  /// Called on tachyon detection; the next maybe_run_round() fires.
  void request_extra_round() noexcept { extra_round_pending_ = true; }

  void set_observer(RoundObserver observer) { observer_ = std::move(observer); }

  [[nodiscard]] std::uint64_t rounds_run() const noexcept { return rounds_run_; }
  [[nodiscard]] std::uint64_t extra_rounds_run() const noexcept { return extra_rounds_run_; }
  /// Time of the next scheduled round (for event-loop timeout computation).
  [[nodiscard]] TimeMicros next_round_at() const noexcept { return next_round_at_; }

 private:
  SyncServiceConfig config_;
  SyncTransport& transport_;
  Clock& clock_;
  BriskSync brisk_;
  RoundObserver observer_;
  TimeMicros next_round_at_;
  bool extra_round_pending_ = false;
  std::uint64_t rounds_run_ = 0;
  std::uint64_t extra_rounds_run_ = 0;
};

}  // namespace brisk::clk
