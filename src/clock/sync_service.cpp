#include "clock/sync_service.hpp"

#include "common/logging.hpp"

namespace brisk::clk {

SyncService::SyncService(SyncServiceConfig config, SyncTransport& transport, Clock& clock)
    : config_(config),
      transport_(transport),
      clock_(clock),
      brisk_(config.brisk),
      next_round_at_(clock.now() + config.period_us) {}

bool SyncService::maybe_run_round() {
  const TimeMicros now = clock_.now();
  const bool periodic_due = now >= next_round_at_;
  if (!periodic_due && !extra_round_pending_) return false;
  if (extra_round_pending_ && !periodic_due) ++extra_rounds_run_;
  extra_round_pending_ = false;
  auto report = run_round_now();
  if (!report) {
    BRISK_LOG_WARN << "clock sync round failed: " << report.status().to_string();
  }
  next_round_at_ = now + config_.period_us;
  return true;
}

Result<RoundReport> SyncService::run_round_now() {
  ++rounds_run_;
  Result<RoundReport> report = brisk_.run_round(transport_);
  if (report && observer_) observer_(report.value());
  return report;
}

}  // namespace brisk::clk
