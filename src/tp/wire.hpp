// Record-level wire codec and control messages of the transfer protocol.
//
// Frame payloads exchanged between an EXS and the ISM are XDR-encoded
// messages: a u32 message type followed by a type-specific body. DATA
// batches carry records encoded as
//     i64 timestamp | compressed meta header | field payloads
// (field payloads carry no per-field tags — types come from the meta
// header; that is the header compression).
//
// The clock-sync messages implement the master(ISM)/slave(EXS) protocol:
// the ISM polls with TIME_REQ, the EXS answers TIME_RESP with its corrected
// clock, and the ISM pushes ADJUST deltas that the EXS folds into the
// correction value it applies to every outgoing timestamp.
//
// The session-resilience messages (protocol v2) make the EXS⇄ISM link
// survivable: HELLO carries an `incarnation` so the ISM can tell a
// reconnect of the same EXS process (batch sequence numbers continue,
// replayed batches are deduped) from a restarted one (sequence tracking
// resets); HELLO_ACK tells the rejoining EXS which batch to resume from;
// BATCH_ACK carries the ISM's cumulative receive cursor so the EXS can trim
// its replay buffer and re-send batches lost to a faulty link; HEARTBEAT
// keeps idle sessions distinguishable from dead ones.
//
// Credit-based flow control (protocol v3) rides the same ack frames: a
// HELLO_ACK or BATCH_ACK may carry a trailing CreditGrant naming how many
// records and bytes the EXS may keep in flight (sent but unacknowledged)
// beyond the ack's cursor. The extension is length-delimited by the frame:
// with credits off the ISM's acks simply end after their base fields, and
// an EXS that never receives a grant paces nothing.
//
// Federation (relay tier): a relay ISM presents itself to its parent as an
// EXS-shaped peer whose HELLO carries a trailing capability word with the
// ordered-stream bit set. Its data travels as RELAY_BATCH frames — the
// same header shape as DATA_BATCH (so replay/ack machinery is shared) but
// with a release watermark instead of the ring-drop counter and a per-record
// origin-node prefix, since one relay connection multiplexes many origin
// nodes. RELAY_WATERMARK frames advance the watermark while the relay is
// idle so an empty relay never stalls the parent's merge.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "sensors/record.hpp"
#include "xdr/xdr_decoder.hpp"
#include "xdr/xdr_encoder.hpp"

namespace brisk::tp {

/// The only version the ISM accepts; a HELLO carrying any other is refused.
inline constexpr std::uint32_t kProtocolVersion = 3;

enum class MsgType : std::uint32_t {
  hello = 1,       // EXS → ISM: node id, version, incarnation
  data_batch = 2,  // EXS → ISM: a batch of records
  time_req = 3,    // ISM → EXS: clock poll
  time_resp = 4,   // EXS → ISM: clock answer
  adjust = 5,      // ISM → EXS: clock correction delta
  bye = 6,         // either direction: orderly shutdown
  heartbeat = 7,   // either direction: liveness signal (empty body)
  hello_ack = 8,   // ISM → EXS: session accepted, resume cursor
  batch_ack = 9,   // ISM → EXS: cumulative receive cursor
  // --- consumer-gateway protocol (brisk_ism --consumer-port) -----------------
  subscribe = 10,      // consumer → ISM: filter spec, kind, queue depth
  subscribe_ack = 11,  // ISM → consumer: accepted/rejected + subscription id
  unsubscribe = 12,    // consumer → ISM: stop the stream, keep the connection
  sub_data = 13,       // ISM → consumer: one sorted record (output encoding)
  sub_agg = 14,        // ISM → consumer: one closed aggregation window
  // --- federation (relay → parent ISM) ----------------------------------------
  relay_batch = 15,      // relay → parent: ordered multi-node batch + watermark
  relay_watermark = 16,  // relay → parent: idle watermark advance
};

/// HELLO capability bits (the trailing capability word). The stream behind
/// this connection is already ordered — records arrive in (timestamp, node)
/// order and carry watermarks, so the receiver may bypass its sorter shards
/// and feed the k-way merge directly.
inline constexpr std::uint32_t kCapabilityOrderedStream = 1u << 0;
/// This node sends its records in timestamp order, so the receiver may
/// release other nodes' records once this node's stream has passed them
/// (the sorter's source floor) instead of holding them for the full delay
/// window T. Every EXS sets it.
inline constexpr std::uint32_t kCapabilityTimestampOrdered = 1u << 1;
/// Every capability bit this build understands. A HELLO carrying unknown
/// bits is malformed: capabilities change how the peer must treat the
/// stream, so they cannot be ignored safely.
inline constexpr std::uint32_t kKnownCapabilities =
    kCapabilityOrderedStream | kCapabilityTimestampOrdered;

struct Hello {
  NodeId node = 0;
  std::uint32_t version = kProtocolVersion;
  /// Distinguishes a reconnect of the same EXS process (incarnation
  /// matches the ISM's session record, batch sequence numbers continue)
  /// from a restarted process (fresh incarnation, sequence tracking
  /// resets). 0 is legal but defeats crash detection; daemons derive a
  /// unique value at startup.
  std::uint64_t incarnation = 0;
  /// Optional trailing capability word. Encoded only when non-zero, so a
  /// plain EXS HELLO carries no capability word; absent on the wire decodes
  /// as 0.
  std::uint32_t capabilities = 0;
};

/// Flow-control window granted by the ISM, piggybacked on ack frames.
/// Semantics are a sliding window anchored at the ack's cursor: the EXS may
/// hold at most `window_records` records / `window_bytes` frame bytes in
/// sent-but-unacknowledged batches. Grants are not cumulative — each one
/// replaces the previous window, so a lost ack costs nothing and a shrunk
/// window takes effect on the next send decision.
struct CreditGrant {
  /// Session the grant belongs to; the EXS ignores grants for an
  /// incarnation it is not running (stale acks across a restart).
  std::uint64_t incarnation = 0;
  /// Records the EXS may have in flight. 0 = window closed (send nothing
  /// new until a replenishing grant arrives).
  std::uint32_t window_records = 0;
  /// Frame payload bytes the EXS may have in flight. 0 = no byte cap.
  std::uint64_t window_bytes = 0;
};

struct HelloAck {
  std::uint64_t incarnation = 0;        // echo of the accepted HELLO
  std::uint32_t next_expected_seq = 0;  // first batch_seq the ISM wants
  /// Flow-control grant; absent when credits are off.
  std::optional<CreditGrant> credit;
};

struct BatchAck {
  /// All batches with batch_seq < next_expected_seq have been accepted;
  /// anything at or above it is still outstanding from the ISM's view.
  std::uint32_t next_expected_seq = 0;
  /// Flow-control grant; absent when credits are off.
  std::optional<CreditGrant> credit;
};

// ---- consumer-gateway protocol ---------------------------------------------
// The read path's mirror image of the EXS protocol: a consumer connects to
// the ISM's --consumer-port, sends SUBSCRIBE naming a filter, and receives
// SUB_DATA frames (each one output-encoded record that passed the filter)
// or, for an aggregate subscription, SUB_AGG frames (one per closed
// window). One subscription per connection; a second SUBSCRIBE replaces
// the first. The filter travels as its textual spec (see ism/filter.hpp)
// so the wire format never chases the predicate grammar.

enum class SubscriptionKind : std::uint32_t {
  stream = 0,     // every matching record, in sorted order
  aggregate = 1,  // per-(node, sensor) count/rate/histogram windows
};

struct SubscribeRequest {
  /// Subscriber label for per-subscriber gateway metrics ("" = generated).
  std::string name;
  /// Textual filter spec; "" = every record.
  std::string filter;
  SubscriptionKind kind = SubscriptionKind::stream;
  /// Requested per-subscriber queue depth in records; 0 = gateway default.
  /// The gateway clamps to its configured maximum.
  std::uint32_t queue_records = 0;
  /// Aggregation window in microseconds; 0 = gateway default.
  std::uint64_t agg_window_us = 0;
};

struct SubscribeAck {
  bool accepted = false;
  std::uint32_t subscription_id = 0;  // valid when accepted
  std::string message;                // rejection reason when !accepted
};

struct Unsubscribe {
  std::uint32_t subscription_id = 0;
};

/// One closed aggregation window: per-(node, sensor) record counts plus a
/// histogram of inter-arrival gaps (microseconds between consecutive
/// matching records of that key, by sorted-stream timestamps). Keys are
/// sorted by (node, sensor), so identical inputs produce identical frames.
struct AggWindow {
  struct Key {
    NodeId node = 0;
    SensorId sensor = 0;
    std::uint64_t count = 0;
    /// Non-empty buckets of the inter-arrival histogram as (inclusive
    /// upper bound, count) pairs, ascending by bound.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> gap_buckets;

    bool operator==(const Key&) const noexcept = default;
  };

  TimeMicros window_start = 0;  // inclusive
  TimeMicros window_end = 0;    // exclusive
  std::vector<Key> keys;

  bool operator==(const AggWindow&) const noexcept = default;
};

struct TimeReq {
  std::uint32_t request_id = 0;
};

struct TimeResp {
  std::uint32_t request_id = 0;
  TimeMicros slave_time = 0;
};

struct Adjust {
  TimeMicros delta = 0;
};

/// Standalone watermark advance from an idle relay: "everything I will ever
/// send is >= watermark". Data-carrying RELAY_BATCH frames carry the same
/// promise in their header; this frame exists so an idle relay keeps the
/// parent's merge moving.
struct RelayWatermark {
  NodeId relay_node = 0;
  TimeMicros watermark = 0;
};

// ---- record codec ----------------------------------------------------------

/// XDR wire size of a record, given its decoded form.
std::size_t record_wire_size(const sensors::Record& record);

/// Encodes a decoded record (node id travels in the batch header, sequence
/// numbers do not cross the wire — see DESIGN.md).
Status encode_record(const sensors::Record& record, xdr::Encoder& encoder);

/// Decodes one record; `node` comes from the enclosing batch.
Result<sensors::Record> decode_record(xdr::Decoder& decoder, NodeId node);

/// Encoder-relative offsets of the trace-stamp slots a transcode reserved
/// for the stages only the batcher knows (batch seal, TP send). The batch
/// builder turns them into absolute payload offsets and the batcher patches
/// the i64 timestamps in place just before the batch ships.
struct TraceStampSlots {
  bool traced = false;
  std::size_t seal_at_offset = 0;  // offset of the batch_seal stamp's i64
  std::size_t send_at_offset = 0;  // offset of the tp_send stamp's i64
};

/// Fast path used by the EXS: transcodes a native-encoded record (as read
/// from the ring) straight into wire form, adding `ts_delta` (the clock
/// correction) to the header timestamp, every X_TS field, and every trace
/// stamp, without materializing a Record. A traced record gets two extra
/// zero-valued stamps (batch_seal, tp_send) whose slot offsets are reported
/// through `slots` when non-null.
Status transcode_native_record(ByteSpan native, xdr::Encoder& encoder, TimeMicros ts_delta,
                               TraceStampSlots* slots = nullptr);

// ---- control message codec --------------------------------------------------

void encode_hello(const Hello& msg, xdr::Encoder& encoder);
Result<Hello> decode_hello(xdr::Decoder& decoder);

void encode_time_req(const TimeReq& msg, xdr::Encoder& encoder);
Result<TimeReq> decode_time_req(xdr::Decoder& decoder);

void encode_time_resp(const TimeResp& msg, xdr::Encoder& encoder);
Result<TimeResp> decode_time_resp(xdr::Decoder& decoder);

void encode_adjust(const Adjust& msg, xdr::Encoder& encoder);
Result<Adjust> decode_adjust(xdr::Decoder& decoder);

void encode_hello_ack(const HelloAck& msg, xdr::Encoder& encoder);
Result<HelloAck> decode_hello_ack(xdr::Decoder& decoder);

void encode_batch_ack(const BatchAck& msg, xdr::Encoder& encoder);
Result<BatchAck> decode_batch_ack(xdr::Decoder& decoder);

void encode_subscribe(const SubscribeRequest& msg, xdr::Encoder& encoder);
Result<SubscribeRequest> decode_subscribe(xdr::Decoder& decoder);

void encode_subscribe_ack(const SubscribeAck& msg, xdr::Encoder& encoder);
Result<SubscribeAck> decode_subscribe_ack(xdr::Decoder& decoder);

void encode_unsubscribe(const Unsubscribe& msg, xdr::Encoder& encoder);
Result<Unsubscribe> decode_unsubscribe(xdr::Decoder& decoder);

void encode_agg_window(const AggWindow& msg, xdr::Encoder& encoder);
Result<AggWindow> decode_agg_window(xdr::Decoder& decoder);

void encode_relay_watermark(const RelayWatermark& msg, xdr::Encoder& encoder);
Result<RelayWatermark> decode_relay_watermark(xdr::Decoder& decoder);

/// Reads the leading message type of a frame payload.
Result<MsgType> peek_type(xdr::Decoder& decoder);
/// Writes the leading message type.
void put_type(MsgType type, xdr::Encoder& encoder);

}  // namespace brisk::tp
