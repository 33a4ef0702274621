#include "shm/ring_buffer.hpp"

#include <cstring>
#include <new>

namespace brisk::shm {

Result<RingBuffer> RingBuffer::init(void* memory, std::size_t data_capacity) {
  if (memory == nullptr) return Status(Errc::invalid_argument, "null memory");
  if (data_capacity < 64) return Status(Errc::invalid_argument, "ring capacity too small");
  auto* header = new (memory) Header{};
  header->magic = kMagic;
  header->capacity = data_capacity;
  header->head.store(0, std::memory_order_relaxed);
  header->tail.store(0, std::memory_order_relaxed);
  header->pushed.store(0, std::memory_order_relaxed);
  header->popped.store(0, std::memory_order_relaxed);
  header->dropped.store(0, std::memory_order_relaxed);
  header->bytes_pushed.store(0, std::memory_order_relaxed);
  return RingBuffer(header, static_cast<std::uint8_t*>(memory) + sizeof(Header));
}

Result<RingBuffer> RingBuffer::attach(void* memory, std::size_t memory_bytes) {
  if (memory == nullptr) return Status(Errc::invalid_argument, "null memory");
  if (memory_bytes < sizeof(Header)) return Status(Errc::malformed, "region smaller than header");
  auto* header = static_cast<Header*>(memory);
  if (header->magic != kMagic) return Status(Errc::malformed, "bad ring magic");
  if (sizeof(Header) + header->capacity > memory_bytes) {
    return Status(Errc::malformed, "ring capacity exceeds region");
  }
  return RingBuffer(header, static_cast<std::uint8_t*>(memory) + sizeof(Header));
}

void RingBuffer::write_bytes(std::uint64_t offset, ByteSpan bytes) noexcept {
  std::memcpy(data_ + offset % header_->capacity, bytes.data(), bytes.size());
}

void RingBuffer::read_bytes(std::uint64_t offset, void* out, std::size_t len) const noexcept {
  std::memcpy(out, data_ + offset % header_->capacity, len);
}

std::uint32_t RingBuffer::read_length(std::uint64_t offset) const noexcept {
  std::uint32_t len = 0;
  read_bytes(offset, &len, sizeof len);
  return len;
}

bool RingBuffer::try_push(ByteSpan record) noexcept {
  const std::uint64_t capacity = header_->capacity;
  const std::size_t need = kLengthBytes + record.size();
  if (need > capacity / 2) {
    header_->dropped.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  const std::uint64_t head = header_->head.load(std::memory_order_relaxed);
  const std::uint64_t tail = header_->tail.load(std::memory_order_acquire);
  const std::uint64_t pos = head % capacity;
  const std::uint64_t to_end = capacity - pos;

  // Bytes the producer cursor must advance: a record never straddles the
  // physical end of the data area, so a short tail segment is padded out
  // (with a wrap mark when there is room for one).
  const std::uint64_t skip = (to_end < need) ? to_end : 0;
  const std::uint64_t total = skip + need;
  if (total > capacity - (head - tail)) {
    header_->dropped.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  std::uint64_t write_at = head;
  if (skip != 0) {
    if (to_end >= kLengthBytes) {
      const std::uint32_t mark = kWrapMark;
      write_bytes(write_at, ByteSpan{reinterpret_cast<const std::uint8_t*>(&mark), sizeof mark});
    }
    write_at += skip;  // now at a physical offset of 0
  }
  const auto len = static_cast<std::uint32_t>(record.size());
  write_bytes(write_at, ByteSpan{reinterpret_cast<const std::uint8_t*>(&len), sizeof len});
  if (!record.empty()) write_bytes(write_at + kLengthBytes, record);

  header_->pushed.fetch_add(1, std::memory_order_relaxed);
  header_->bytes_pushed.fetch_add(record.size(), std::memory_order_relaxed);
  header_->head.store(head + total, std::memory_order_release);
  return true;
}

bool RingBuffer::next_record(std::uint64_t& tail, std::uint32_t& len) const noexcept {
  const std::uint64_t capacity = header_->capacity;
  for (;;) {
    const std::uint64_t head = header_->head.load(std::memory_order_acquire);
    if (tail == head) return false;
    const std::uint64_t to_end = capacity - tail % capacity;
    if (to_end < kLengthBytes) {
      tail += to_end;  // producer skipped a segment too short for a mark
      continue;
    }
    len = read_length(tail);
    if (len != kWrapMark) return true;
    tail += to_end;
  }
}

bool RingBuffer::try_pop(std::vector<std::uint8_t>& out) {
  std::uint64_t tail = header_->tail.load(std::memory_order_relaxed);
  std::uint32_t len = 0;
  if (!next_record(tail, len)) {
    header_->tail.store(tail, std::memory_order_release);
    return false;
  }
  const std::size_t old_size = out.size();
  out.resize(old_size + len);
  if (len != 0) read_bytes(tail + kLengthBytes, out.data() + old_size, len);
  header_->popped.fetch_add(1, std::memory_order_relaxed);
  header_->tail.store(tail + kLengthBytes + len, std::memory_order_release);
  return true;
}

bool RingBuffer::peek(ByteSpan& out) const noexcept {
  std::uint64_t tail = header_->tail.load(std::memory_order_relaxed);
  std::uint32_t len = 0;
  if (!next_record(tail, len)) return false;
  out = ByteSpan{data_ + tail % header_->capacity + kLengthBytes, len};
  return true;
}

bool RingBuffer::empty() const noexcept {
  return header_->head.load(std::memory_order_acquire) ==
         header_->tail.load(std::memory_order_acquire);
}

std::size_t RingBuffer::bytes_used() const noexcept {
  return static_cast<std::size_t>(header_->head.load(std::memory_order_acquire) -
                                  header_->tail.load(std::memory_order_acquire));
}

RingStats RingBuffer::stats() const noexcept {
  RingStats s;
  s.pushed = header_->pushed.load(std::memory_order_relaxed);
  s.popped = header_->popped.load(std::memory_order_relaxed);
  s.dropped = header_->dropped.load(std::memory_order_relaxed);
  s.bytes_pushed = header_->bytes_pushed.load(std::memory_order_relaxed);
  return s;
}

}  // namespace brisk::shm
