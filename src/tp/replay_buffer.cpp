#include "tp/replay_buffer.hpp"

namespace brisk::tp {
namespace {

constexpr std::size_t kSeqOffset = 8;     // u32 type | u32 node | u32 batch_seq
constexpr std::size_t kCountOffset = 12;  // ... | u32 record_count

std::uint32_t read_be32(const std::uint8_t* p) noexcept {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

}  // namespace

Status ReplayBuffer::retain(ByteSpan frame) {
  // A zero cap is a misconfiguration (the config validators reject it): the
  // upstream link relies on the newest batch being retained.
  if (max_batches_ == 0) return Status(Errc::invalid_argument, "replay buffer cap is 0");
  if (frame.size() < kCountOffset + 4) {
    return Status(Errc::invalid_argument, "frame too short for a batch header");
  }
  while (entries_.size() >= max_batches_) {
    bytes_ -= entries_.front().frame.size();
    entries_.pop_front();
    ++evictions_;
  }
  // Byte cap: make room for the incoming frame by evicting oldest-first.
  // A frame larger than the whole cap still gets in (with an empty buffer):
  // the newest batch is the one in flight and must remain replayable.
  if (max_bytes_ > 0) {
    while (!entries_.empty() && bytes_ + frame.size() > max_bytes_) {
      bytes_ -= entries_.front().frame.size();
      entries_.pop_front();
      ++evictions_;
    }
  }
  Entry entry;
  entry.batch_seq = read_be32(frame.data() + kSeqOffset);
  entry.record_count = read_be32(frame.data() + kCountOffset);
  entry.frame.append(frame);
  bytes_ += entry.frame.size();
  entries_.push_back(std::move(entry));
  return Status::ok();
}

void ReplayBuffer::ack(std::uint32_t next_expected) {
  while (!entries_.empty() && entries_.front().batch_seq < next_expected) {
    bytes_ -= entries_.front().frame.size();
    entries_.pop_front();
  }
}

}  // namespace brisk::tp
