#include "tp/wire.hpp"

#include <cstring>

#include "sensors/record_codec.hpp"
#include "tp/meta_header.hpp"

namespace brisk::tp {

using sensors::Field;
using sensors::FieldType;
using sensors::Record;
using sensors::TraceAnnotation;
using sensors::TraceStamp;
using sensors::TraceStage;

namespace {

/// Wire size of a trace annotation: u64 id + u32 count + count stamps.
std::size_t trace_wire_size(std::size_t nstamps) noexcept { return 12 + nstamps * 12; }

void encode_trace(const TraceAnnotation& annotation, xdr::Encoder& encoder) {
  encoder.put_u64(annotation.trace_id);
  encoder.put_u32(static_cast<std::uint32_t>(annotation.stamps.size()));
  for (const TraceStamp& s : annotation.stamps) {
    encoder.put_u32(static_cast<std::uint32_t>(s.stage));
    encoder.put_i64(s.at);
  }
}

Result<TraceAnnotation> decode_trace(xdr::Decoder& decoder) {
  TraceAnnotation annotation;
  auto id = decoder.get_u64();
  if (!id) return id.status();
  annotation.trace_id = id.value();
  auto count = decoder.get_u32();
  if (!count) return count.status();
  if (count.value() > sensors::kMaxTraceStamps) {
    return Status(Errc::malformed, "trace stamp count");
  }
  annotation.stamps.reserve(count.value());
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    auto stage = decoder.get_u32();
    if (!stage) return stage.status();
    if (stage.value() >= sensors::kTraceStageCount) {
      return Status(Errc::malformed, "trace stage");
    }
    auto at = decoder.get_i64();
    if (!at) return at.status();
    annotation.stamps.push_back(TraceStamp{static_cast<TraceStage>(stage.value()), at.value()});
  }
  return annotation;
}

}  // namespace

std::size_t record_wire_size(const Record& record) {
  MetaHeader meta;
  meta.field_count = static_cast<std::uint8_t>(record.fields.size());
  std::size_t size = 8 + meta.wire_size();
  if (record.trace) size += trace_wire_size(record.trace->stamps.size());
  for (const Field& f : record.fields) {
    if (f.type() == FieldType::x_string) {
      size += xdr::Encoder::opaque_wire_size(f.as_string().size());
    } else {
      size += sensors::xdr_payload_size(f.type());
    }
  }
  return size;
}

Status encode_record(const Record& record, xdr::Encoder& encoder) {
  if (record.fields.size() > sensors::kMaxFieldsPerRecord) {
    return Status(Errc::invalid_argument, "too many fields");
  }
  if (record.sensor > 0xffff) {
    return Status(Errc::invalid_argument, "sensor id exceeds 16-bit wire limit");
  }
  encoder.put_i64(record.timestamp);

  if (record.trace && record.trace->stamps.size() > sensors::kMaxTraceStamps) {
    return Status(Errc::invalid_argument, "too many trace stamps");
  }

  MetaHeader meta;
  meta.sensor_id = static_cast<std::uint16_t>(record.sensor);
  meta.field_count = static_cast<std::uint8_t>(record.fields.size());
  meta.trace = record.trace.has_value();
  for (std::size_t i = 0; i < record.fields.size(); ++i) {
    meta.types[i] = record.fields[i].type();
  }
  encode_meta(meta, encoder);
  if (record.trace) encode_trace(*record.trace, encoder);

  for (const Field& f : record.fields) {
    switch (f.type()) {
      case FieldType::x_i8:
      case FieldType::x_i16:
      case FieldType::x_i32:
      case FieldType::x_char:
        encoder.put_i32(static_cast<std::int32_t>(f.as_signed()));
        break;
      case FieldType::x_u8:
      case FieldType::x_u16:
      case FieldType::x_u32:
      case FieldType::x_reason:
      case FieldType::x_conseq:
        encoder.put_u32(static_cast<std::uint32_t>(f.as_unsigned()));
        break;
      case FieldType::x_i64:
      case FieldType::x_ts:
        encoder.put_i64(f.as_signed());
        break;
      case FieldType::x_u64:
        encoder.put_u64(f.as_unsigned());
        break;
      case FieldType::x_f32:
        encoder.put_f32(static_cast<float>(f.as_double()));
        break;
      case FieldType::x_f64:
        encoder.put_f64(f.as_double());
        break;
      case FieldType::x_string:
        encoder.put_string(f.as_string());
        break;
    }
  }
  return Status::ok();
}

Result<Record> decode_record(xdr::Decoder& decoder, NodeId node) {
  Record record;
  record.node = node;

  auto ts = decoder.get_i64();
  if (!ts) return ts.status();
  record.timestamp = ts.value();

  auto meta = decode_meta(decoder);
  if (!meta) return meta.status();
  record.sensor = meta.value().sensor_id;
  if (meta.value().trace) {
    auto annotation = decode_trace(decoder);
    if (!annotation) return annotation.status();
    record.trace = std::move(annotation.value());
  }
  record.fields.reserve(meta.value().field_count);

  for (std::size_t i = 0; i < meta.value().field_count; ++i) {
    const FieldType type = meta.value().types[i];
    switch (type) {
      case FieldType::x_i8: {
        auto v = decoder.get_i32();
        if (!v) return v.status();
        record.fields.push_back(Field::i8(static_cast<std::int8_t>(v.value())));
        break;
      }
      case FieldType::x_u8: {
        auto v = decoder.get_u32();
        if (!v) return v.status();
        record.fields.push_back(Field::u8(static_cast<std::uint8_t>(v.value())));
        break;
      }
      case FieldType::x_i16: {
        auto v = decoder.get_i32();
        if (!v) return v.status();
        record.fields.push_back(Field::i16(static_cast<std::int16_t>(v.value())));
        break;
      }
      case FieldType::x_u16: {
        auto v = decoder.get_u32();
        if (!v) return v.status();
        record.fields.push_back(Field::u16(static_cast<std::uint16_t>(v.value())));
        break;
      }
      case FieldType::x_i32: {
        auto v = decoder.get_i32();
        if (!v) return v.status();
        record.fields.push_back(Field::i32(v.value()));
        break;
      }
      case FieldType::x_u32: {
        auto v = decoder.get_u32();
        if (!v) return v.status();
        record.fields.push_back(Field::u32(v.value()));
        break;
      }
      case FieldType::x_i64: {
        auto v = decoder.get_i64();
        if (!v) return v.status();
        record.fields.push_back(Field::i64(v.value()));
        break;
      }
      case FieldType::x_u64: {
        auto v = decoder.get_u64();
        if (!v) return v.status();
        record.fields.push_back(Field::u64(v.value()));
        break;
      }
      case FieldType::x_f32: {
        auto v = decoder.get_f32();
        if (!v) return v.status();
        record.fields.push_back(Field::f32(v.value()));
        break;
      }
      case FieldType::x_f64: {
        auto v = decoder.get_f64();
        if (!v) return v.status();
        record.fields.push_back(Field::f64(v.value()));
        break;
      }
      case FieldType::x_char: {
        auto v = decoder.get_i32();
        if (!v) return v.status();
        record.fields.push_back(Field::ch(static_cast<char>(v.value())));
        break;
      }
      case FieldType::x_string: {
        auto v = decoder.get_string(sensors::kMaxStringFieldBytes);
        if (!v) return v.status();
        record.fields.push_back(Field::str(v.value()));
        break;
      }
      case FieldType::x_ts: {
        auto v = decoder.get_i64();
        if (!v) return v.status();
        record.fields.push_back(Field::ts(v.value()));
        break;
      }
      case FieldType::x_reason: {
        auto v = decoder.get_u32();
        if (!v) return v.status();
        record.fields.push_back(Field::reason(v.value()));
        break;
      }
      case FieldType::x_conseq: {
        auto v = decoder.get_u32();
        if (!v) return v.status();
        record.fields.push_back(Field::conseq(v.value()));
        break;
      }
    }
  }
  return record;
}

Status transcode_native_record(ByteSpan native, xdr::Encoder& encoder, TimeMicros ts_delta,
                               TraceStampSlots* slots) {
  // Decoding to a Record here would allocate per record on the EXS hot
  // path; instead walk the native bytes directly.
  if (slots != nullptr) *slots = TraceStampSlots{};
  if (native.size() < sensors::kNativeHeaderBytes) {
    return Status(Errc::truncated, "native header");
  }
  std::uint32_t sensor_id = 0;
  std::memcpy(&sensor_id, native.data(), 4);
  if (sensor_id > 0xffff) return Status(Errc::invalid_argument, "sensor id > 16 bit");
  std::int64_t ts = 0;
  std::memcpy(&ts, native.data() + sensors::kNativeTimestampOffset, 8);
  const std::uint8_t nfields = native[20];
  if (nfields > sensors::kMaxFieldsPerRecord) return Status(Errc::malformed, "field count");
  const std::uint8_t flags = native[sensors::kNativeFlagsOffset];
  if ((flags & ~sensors::kNativeFlagTrace) != 0) {
    return Status(Errc::malformed, "record flags");
  }

  // First pass: collect field types and payload offsets.
  MetaHeader meta;
  meta.sensor_id = static_cast<std::uint16_t>(sensor_id);
  meta.field_count = nfields;
  std::size_t offsets[sensors::kMaxFieldsPerRecord];
  std::size_t pos = sensors::kNativeHeaderBytes;
  for (std::uint8_t i = 0; i < nfields; ++i) {
    if (pos >= native.size()) return Status(Errc::truncated, "field type");
    const std::uint8_t raw = native[pos++];
    if (!sensors::field_type_valid(raw)) return Status(Errc::malformed, "field type tag");
    const auto type = static_cast<FieldType>(raw);
    meta.types[i] = type;
    offsets[i] = pos;
    if (type == FieldType::x_string) {
      if (pos >= native.size()) return Status(Errc::truncated, "string length");
      pos += 1 + native[pos];
    } else {
      pos += sensors::native_payload_size(type);
    }
    if (pos > native.size()) return Status(Errc::truncated, "field body");
  }

  // The trace tail, when present, follows the fields: u64 id | u8 n | stamps.
  std::uint64_t trace_id = 0;
  std::uint8_t nstamps = 0;
  std::size_t stamps_pos = 0;
  const bool traced = (flags & sensors::kNativeFlagTrace) != 0;
  if (traced) {
    if (pos + 8 + 1 > native.size()) return Status(Errc::truncated, "trace tail");
    std::memcpy(&trace_id, native.data() + pos, 8);
    nstamps = native[pos + 8];
    stamps_pos = pos + 9;
    if (nstamps > sensors::kMaxTraceStamps ||
        stamps_pos + nstamps * sensors::kNativeTraceStampBytes > native.size()) {
      return Status(Errc::malformed, "trace stamp count");
    }
    meta.trace = true;
  }

  encoder.put_i64(ts + ts_delta);
  encode_meta(meta, encoder);

  if (traced) {
    // Re-stamp node-side entries into the synchronized timebase and reserve
    // two placeholder stamps for the stages only the batcher can time.
    const bool add_slots = nstamps + 2u <= sensors::kMaxTraceStamps;
    encoder.put_u64(trace_id);
    encoder.put_u32(static_cast<std::uint32_t>(nstamps + (add_slots ? 2 : 0)));
    for (std::uint8_t i = 0; i < nstamps; ++i) {
      const std::uint8_t* sp = native.data() + stamps_pos + i * sensors::kNativeTraceStampBytes;
      if (*sp >= sensors::kTraceStageCount) return Status(Errc::malformed, "trace stage");
      std::int64_t at = 0;
      std::memcpy(&at, sp + 1, 8);
      encoder.put_u32(*sp);
      encoder.put_i64(at + ts_delta);
    }
    if (add_slots) {
      encoder.put_u32(static_cast<std::uint32_t>(TraceStage::batch_seal));
      const std::size_t seal_at = encoder.bytes_written();
      encoder.put_i64(0);
      encoder.put_u32(static_cast<std::uint32_t>(TraceStage::tp_send));
      const std::size_t send_at = encoder.bytes_written();
      encoder.put_i64(0);
      if (slots != nullptr) {
        slots->traced = true;
        slots->seal_at_offset = seal_at;
        slots->send_at_offset = send_at;
      }
    }
  }

  for (std::uint8_t i = 0; i < nfields; ++i) {
    const std::uint8_t* p = native.data() + offsets[i];
    switch (meta.types[i]) {
      case FieldType::x_i8: {
        std::int8_t v;
        std::memcpy(&v, p, 1);
        encoder.put_i32(v);
        break;
      }
      case FieldType::x_u8:
        encoder.put_u32(*p);
        break;
      case FieldType::x_i16: {
        std::int16_t v;
        std::memcpy(&v, p, 2);
        encoder.put_i32(v);
        break;
      }
      case FieldType::x_u16: {
        std::uint16_t v;
        std::memcpy(&v, p, 2);
        encoder.put_u32(v);
        break;
      }
      case FieldType::x_i32: {
        std::int32_t v;
        std::memcpy(&v, p, 4);
        encoder.put_i32(v);
        break;
      }
      case FieldType::x_u32:
      case FieldType::x_reason:
      case FieldType::x_conseq: {
        std::uint32_t v;
        std::memcpy(&v, p, 4);
        encoder.put_u32(v);
        break;
      }
      case FieldType::x_i64: {
        std::int64_t v;
        std::memcpy(&v, p, 8);
        encoder.put_i64(v);
        break;
      }
      case FieldType::x_u64: {
        std::uint64_t v;
        std::memcpy(&v, p, 8);
        encoder.put_u64(v);
        break;
      }
      case FieldType::x_f32: {
        float v;
        std::memcpy(&v, p, 4);
        encoder.put_f32(v);
        break;
      }
      case FieldType::x_f64: {
        double v;
        std::memcpy(&v, p, 8);
        encoder.put_f64(v);
        break;
      }
      case FieldType::x_char: {
        char v;
        std::memcpy(&v, p, 1);
        encoder.put_i32(v);
        break;
      }
      case FieldType::x_string: {
        const std::uint8_t len = *p;
        encoder.put_string({reinterpret_cast<const char*>(p + 1), len});
        break;
      }
      case FieldType::x_ts: {
        std::int64_t v;
        std::memcpy(&v, p, 8);
        encoder.put_i64(v + ts_delta);
        break;
      }
    }
  }
  return Status::ok();
}

// ---- control messages -------------------------------------------------------

void encode_hello(const Hello& msg, xdr::Encoder& encoder) {
  encoder.put_u32(msg.node);
  encoder.put_u32(msg.version);
  encoder.put_u64(msg.incarnation);
  // The capability word is a length-delimited trailing extension, like the
  // ack credit tail: a capability-free HELLO ends after the incarnation and
  // stays byte-identical to the pre-federation form.
  if (msg.capabilities != 0) encoder.put_u32(msg.capabilities);
}

Result<Hello> decode_hello(xdr::Decoder& decoder) {
  Hello msg;
  auto node = decoder.get_u32();
  if (!node) return node.status();
  auto version = decoder.get_u32();
  if (!version) return version.status();
  auto incarnation = decoder.get_u64();
  if (!incarnation) return incarnation.status();
  msg.node = node.value();
  msg.version = version.value();
  msg.incarnation = incarnation.value();
  if (!decoder.exhausted()) {
    auto capabilities = decoder.get_u32();
    if (!capabilities) return Status(Errc::truncated, "hello capability word");
    if ((capabilities.value() & ~kKnownCapabilities) != 0) {
      // Unknown bits change how the stream must be treated; a peer that
      // silently ignored them would mis-handle the stream.
      return Status(Errc::malformed, "unknown hello capability bits");
    }
    msg.capabilities = capabilities.value();
  }
  return msg;
}

namespace {

void encode_credit(const CreditGrant& grant, xdr::Encoder& encoder) {
  encoder.put_u64(grant.incarnation);
  encoder.put_u32(grant.window_records);
  encoder.put_u64(grant.window_bytes);
}

/// Decodes the optional trailing credit extension of an ack frame. An ack
/// that ends after its base fields has no grant (credits off);
/// once any extension bytes are present the grant must be complete — a
/// truncated grant is a malformed frame, not an absent one.
Result<std::optional<CreditGrant>> decode_credit_tail(xdr::Decoder& decoder) {
  if (decoder.exhausted()) return std::optional<CreditGrant>{};
  CreditGrant grant;
  auto incarnation = decoder.get_u64();
  if (!incarnation) return Status(Errc::truncated, "credit grant incarnation");
  auto records = decoder.get_u32();
  if (!records) return Status(Errc::truncated, "credit grant record window");
  auto bytes = decoder.get_u64();
  if (!bytes) return Status(Errc::truncated, "credit grant byte window");
  grant.incarnation = incarnation.value();
  grant.window_records = records.value();
  grant.window_bytes = bytes.value();
  return std::optional<CreditGrant>{grant};
}

}  // namespace

void encode_hello_ack(const HelloAck& msg, xdr::Encoder& encoder) {
  encoder.put_u64(msg.incarnation);
  encoder.put_u32(msg.next_expected_seq);
  if (msg.credit) encode_credit(*msg.credit, encoder);
}

Result<HelloAck> decode_hello_ack(xdr::Decoder& decoder) {
  HelloAck msg;
  auto incarnation = decoder.get_u64();
  if (!incarnation) return incarnation.status();
  auto seq = decoder.get_u32();
  if (!seq) return seq.status();
  msg.incarnation = incarnation.value();
  msg.next_expected_seq = seq.value();
  auto credit = decode_credit_tail(decoder);
  if (!credit) return credit.status();
  msg.credit = credit.value();
  return msg;
}

void encode_batch_ack(const BatchAck& msg, xdr::Encoder& encoder) {
  encoder.put_u32(msg.next_expected_seq);
  if (msg.credit) encode_credit(*msg.credit, encoder);
}

Result<BatchAck> decode_batch_ack(xdr::Decoder& decoder) {
  BatchAck msg;
  auto seq = decoder.get_u32();
  if (!seq) return seq.status();
  msg.next_expected_seq = seq.value();
  auto credit = decode_credit_tail(decoder);
  if (!credit) return credit.status();
  msg.credit = credit.value();
  return msg;
}

void encode_time_req(const TimeReq& msg, xdr::Encoder& encoder) {
  encoder.put_u32(msg.request_id);
}

Result<TimeReq> decode_time_req(xdr::Decoder& decoder) {
  auto id = decoder.get_u32();
  if (!id) return id.status();
  return TimeReq{id.value()};
}

void encode_time_resp(const TimeResp& msg, xdr::Encoder& encoder) {
  encoder.put_u32(msg.request_id);
  encoder.put_i64(msg.slave_time);
}

Result<TimeResp> decode_time_resp(xdr::Decoder& decoder) {
  TimeResp msg;
  auto id = decoder.get_u32();
  if (!id) return id.status();
  auto t = decoder.get_i64();
  if (!t) return t.status();
  msg.request_id = id.value();
  msg.slave_time = t.value();
  return msg;
}

void encode_adjust(const Adjust& msg, xdr::Encoder& encoder) { encoder.put_i64(msg.delta); }

Result<Adjust> decode_adjust(xdr::Decoder& decoder) {
  auto delta = decoder.get_i64();
  if (!delta) return delta.status();
  return Adjust{delta.value()};
}

void encode_subscribe(const SubscribeRequest& msg, xdr::Encoder& encoder) {
  encoder.put_string(msg.name);
  encoder.put_string(msg.filter);
  encoder.put_u32(static_cast<std::uint32_t>(msg.kind));
  encoder.put_u32(msg.queue_records);
  encoder.put_u64(msg.agg_window_us);
}

Result<SubscribeRequest> decode_subscribe(xdr::Decoder& decoder) {
  SubscribeRequest msg;
  auto name = decoder.get_string(1 << 10);
  if (!name) return name.status();
  msg.name = std::move(name).value();
  auto filter = decoder.get_string(1 << 16);
  if (!filter) return filter.status();
  msg.filter = std::move(filter).value();
  auto kind = decoder.get_u32();
  if (!kind) return kind.status();
  if (kind.value() > static_cast<std::uint32_t>(SubscriptionKind::aggregate)) {
    return Status(Errc::malformed, "unknown subscription kind");
  }
  msg.kind = static_cast<SubscriptionKind>(kind.value());
  auto queue = decoder.get_u32();
  if (!queue) return queue.status();
  msg.queue_records = queue.value();
  auto window = decoder.get_u64();
  if (!window) return window.status();
  msg.agg_window_us = window.value();
  return msg;
}

void encode_subscribe_ack(const SubscribeAck& msg, xdr::Encoder& encoder) {
  encoder.put_bool(msg.accepted);
  encoder.put_u32(msg.subscription_id);
  encoder.put_string(msg.message);
}

Result<SubscribeAck> decode_subscribe_ack(xdr::Decoder& decoder) {
  SubscribeAck msg;
  auto accepted = decoder.get_bool();
  if (!accepted) return accepted.status();
  msg.accepted = accepted.value();
  auto id = decoder.get_u32();
  if (!id) return id.status();
  msg.subscription_id = id.value();
  auto message = decoder.get_string(1 << 12);
  if (!message) return message.status();
  msg.message = std::move(message).value();
  return msg;
}

void encode_unsubscribe(const Unsubscribe& msg, xdr::Encoder& encoder) {
  encoder.put_u32(msg.subscription_id);
}

Result<Unsubscribe> decode_unsubscribe(xdr::Decoder& decoder) {
  auto id = decoder.get_u32();
  if (!id) return id.status();
  return Unsubscribe{id.value()};
}

void encode_agg_window(const AggWindow& msg, xdr::Encoder& encoder) {
  encoder.put_i64(msg.window_start);
  encoder.put_i64(msg.window_end);
  encoder.put_u32(static_cast<std::uint32_t>(msg.keys.size()));
  for (const AggWindow::Key& key : msg.keys) {
    encoder.put_u32(key.node);
    encoder.put_u32(key.sensor);
    encoder.put_u64(key.count);
    encoder.put_u32(static_cast<std::uint32_t>(key.gap_buckets.size()));
    for (const auto& [bound, count] : key.gap_buckets) {
      encoder.put_u64(bound);
      encoder.put_u64(count);
    }
  }
}

Result<AggWindow> decode_agg_window(xdr::Decoder& decoder) {
  AggWindow msg;
  auto start = decoder.get_i64();
  if (!start) return start.status();
  msg.window_start = start.value();
  auto end = decoder.get_i64();
  if (!end) return end.status();
  msg.window_end = end.value();
  auto key_count = decoder.get_u32();
  if (!key_count) return key_count.status();
  if (key_count.value() > 1u << 20) return Status(Errc::malformed, "agg key count");
  msg.keys.reserve(key_count.value());
  for (std::uint32_t i = 0; i < key_count.value(); ++i) {
    AggWindow::Key key;
    auto node = decoder.get_u32();
    if (!node) return node.status();
    key.node = node.value();
    auto sensor = decoder.get_u32();
    if (!sensor) return sensor.status();
    key.sensor = sensor.value();
    auto count = decoder.get_u64();
    if (!count) return count.status();
    key.count = count.value();
    auto buckets = decoder.get_u32();
    if (!buckets) return buckets.status();
    if (buckets.value() > 1u << 12) return Status(Errc::malformed, "agg bucket count");
    key.gap_buckets.reserve(buckets.value());
    for (std::uint32_t b = 0; b < buckets.value(); ++b) {
      auto bound = decoder.get_u64();
      if (!bound) return bound.status();
      auto bucket_count = decoder.get_u64();
      if (!bucket_count) return bucket_count.status();
      key.gap_buckets.emplace_back(bound.value(), bucket_count.value());
    }
    msg.keys.push_back(std::move(key));
  }
  return msg;
}

void encode_relay_watermark(const RelayWatermark& msg, xdr::Encoder& encoder) {
  encoder.put_u32(msg.relay_node);
  encoder.put_i64(msg.watermark);
}

Result<RelayWatermark> decode_relay_watermark(xdr::Decoder& decoder) {
  RelayWatermark msg;
  auto node = decoder.get_u32();
  if (!node) return node.status();
  auto watermark = decoder.get_i64();
  if (!watermark) return watermark.status();
  msg.relay_node = node.value();
  msg.watermark = watermark.value();
  return msg;
}

Result<MsgType> peek_type(xdr::Decoder& decoder) {
  auto raw = decoder.get_u32();
  if (!raw) return raw.status();
  if (raw.value() < 1 || raw.value() > 16) {
    return Status(Errc::malformed, "unknown message type");
  }
  return static_cast<MsgType>(raw.value());
}

void put_type(MsgType type, xdr::Encoder& encoder) {
  encoder.put_u32(static_cast<std::uint32_t>(type));
}

}  // namespace brisk::tp
