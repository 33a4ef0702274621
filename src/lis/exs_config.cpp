#include "lis/exs_config.hpp"

namespace brisk::lis {

Status ExsConfig::validate() const {
  if (batch_max_records == 0) return Status(Errc::invalid_argument, "batch_max_records == 0");
  if (batch_max_bytes < 64) return Status(Errc::invalid_argument, "batch_max_bytes < 64");
  if (batch_max_age_us < 0) return Status(Errc::invalid_argument, "negative batch_max_age_us");
  if (drain_burst == 0) return Status(Errc::invalid_argument, "drain_burst == 0");
  if (select_timeout_us <= 0) return Status(Errc::invalid_argument, "select_timeout_us <= 0");
  if (replay_buffer_batches == 0) {
    return Status(Errc::invalid_argument, "replay_buffer_batches == 0");
  }
  if (reconnect_backoff_base_us <= 0) {
    return Status(Errc::invalid_argument, "reconnect_backoff_base_us <= 0");
  }
  if (reconnect_backoff_cap_us < reconnect_backoff_base_us) {
    return Status(Errc::invalid_argument, "reconnect backoff cap below base");
  }
  if (reconnect_jitter < 0.0 || reconnect_jitter > 1.0) {
    return Status(Errc::invalid_argument, "reconnect_jitter outside [0, 1]");
  }
  if (heartbeat_period_us < 0) return Status(Errc::invalid_argument, "negative heartbeat period");
  if (ism_silence_timeout_us < 0) {
    return Status(Errc::invalid_argument, "negative ism_silence_timeout_us");
  }
  return Status::ok();
}

}  // namespace brisk::lis
