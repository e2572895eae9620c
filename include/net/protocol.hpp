// net/protocol.hpp — the sec::net wire protocol (DESIGN.md §11).
//
// Length-prefixed binary frames over a byte stream:
//
//   [u32 payload_len][payload]
//   payload = [u8 type][u64 tag][type-specific fields]
//
// All integers little-endian, encoded/decoded bytewise so the codec is
// endian- and alignment-portable with no third-party dependency. The tag is
// an opaque client token echoed verbatim in the response — the loopback
// driver stamps it with the request's schedule index so a reply can be
// charged against its *scheduled* arrival (coordinated-omission-free,
// net/client.hpp).
//
// Message sizes are exact per type and tiny by construction; a frame whose
// length field exceeds kMaxPayload, is zero, or disagrees with its type's
// wire size is a protocol error, not a "read more" state — a desynchronized
// or hostile peer must be dropped, never re-synchronized by guesswork.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sec::net {

enum class MsgType : std::uint8_t {
    kPushReq = 1,   // + u64 value
    kPopReq = 2,    //   (no fields)
    kStatsReq = 3,  //   (no fields)
    kPushResp = 4,  // + u8 ok
    kPopResp = 5,   // + u8 has_value, u64 value
    kStatsResp = 6, // + u64 pushes, pops, empties, batches + u8 shape
};

// Server-side counters a kStatsResp carries (a subset of ServerStats,
// the ones a remote client can act on).
struct WireStats {
    std::uint64_t pushes = 0;
    std::uint64_t pops = 0;    // successful pops
    std::uint64_t empties = 0; // pops that found the container empty
    std::uint64_t batches = 0; // readiness/completion batches drained
    // ContainerShape of the served structure as its wire byte (0 lifo,
    // 1 fifo) — a client learns whether PUSH/POP mean stack push/pop or
    // enqueue/dequeue without out-of-band knowledge.
    std::uint8_t shape = 0;
};

// One decoded (or to-be-encoded) message. Fields beyond `type`/`tag` are
// meaningful only for the types that carry them (see MsgType comments).
struct Message {
    MsgType type = MsgType::kPopReq;
    std::uint64_t tag = 0;
    std::uint64_t value = 0;  // kPushReq payload / kPopResp result
    bool ok = true;           // kPushResp success / kPopResp has_value
    WireStats stats{};        // kStatsResp
};

// Hard cap on a frame's payload: the largest legal message (kStatsResp) is
// 42 bytes, so anything bigger is garbage regardless of future growth slack.
inline constexpr std::size_t kMaxPayload = 64;
// Length prefix bytes preceding every payload.
inline constexpr std::size_t kHeaderBytes = 4;

// Exact payload size of a message type; 0 for an unknown type byte.
std::size_t payload_size(MsgType type) noexcept;

// Append one framed message to `out` (length prefix + payload).
void encode(const Message& msg, std::vector<std::uint8_t>& out);

enum class DecodeStatus {
    kOk,        // one message decoded; `consumed` bytes eaten
    kNeedMore,  // the buffer holds only a frame prefix; feed more bytes
    kError,     // malformed frame (oversized / zero / type-size mismatch /
                // unknown type) — the connection must be dropped
};

struct DecodeResult {
    DecodeStatus status = DecodeStatus::kNeedMore;
    std::size_t consumed = 0;  // valid only when status == kOk
};

// Decode the first complete frame of data[0, len). Never consumes bytes on
// kNeedMore or kError, so callers can retry with a longer buffer or close.
DecodeResult decode(const std::uint8_t* data, std::size_t len, Message& out);

}  // namespace sec::net
