// net_protocol.cpp — the dependency-free sec::net frame codec
// (net/protocol.hpp). Bytewise little-endian put/get so the code is
// identical on every endianness and never type-puns the stream buffer.
#include "net/protocol.hpp"

namespace sec::net {
namespace {

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
    out.push_back(v);
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
}

std::uint32_t get_u32(const std::uint8_t* p) noexcept {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{p[i]} << (8 * i);
    return v;
}

std::uint64_t get_u64(const std::uint8_t* p) noexcept {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{p[i]} << (8 * i);
    return v;
}

}  // namespace

std::size_t payload_size(MsgType type) noexcept {
    switch (type) {
        case MsgType::kPushReq:
            return 1 + 8 + 8;
        case MsgType::kPopReq:
        case MsgType::kStatsReq:
            return 1 + 8;
        case MsgType::kPushResp:
            return 1 + 8 + 1;
        case MsgType::kPopResp:
            return 1 + 8 + 1 + 8;
        case MsgType::kStatsResp:
            return 1 + 8 + 4 * 8 + 1;
    }
    return 0;  // unknown type byte
}

void encode(const Message& msg, std::vector<std::uint8_t>& out) {
    const std::size_t payload = payload_size(msg.type);
    put_u32(out, static_cast<std::uint32_t>(payload));
    put_u8(out, static_cast<std::uint8_t>(msg.type));
    put_u64(out, msg.tag);
    switch (msg.type) {
        case MsgType::kPushReq:
            put_u64(out, msg.value);
            break;
        case MsgType::kPopReq:
        case MsgType::kStatsReq:
            break;
        case MsgType::kPushResp:
            put_u8(out, msg.ok ? 1 : 0);
            break;
        case MsgType::kPopResp:
            put_u8(out, msg.ok ? 1 : 0);
            put_u64(out, msg.value);
            break;
        case MsgType::kStatsResp:
            put_u64(out, msg.stats.pushes);
            put_u64(out, msg.stats.pops);
            put_u64(out, msg.stats.empties);
            put_u64(out, msg.stats.batches);
            put_u8(out, msg.stats.shape);
            break;
    }
}

DecodeResult decode(const std::uint8_t* data, std::size_t len, Message& out) {
    if (len < kHeaderBytes) return {DecodeStatus::kNeedMore, 0};
    const std::uint32_t payload = get_u32(data);
    // Validate the header before waiting for the body: a hostile length
    // field must not make the reader buffer megabytes hoping for a frame.
    if (payload == 0 || payload > kMaxPayload) {
        return {DecodeStatus::kError, 0};
    }
    if (len < kHeaderBytes + payload) return {DecodeStatus::kNeedMore, 0};

    const std::uint8_t* p = data + kHeaderBytes;
    const auto type = static_cast<MsgType>(p[0]);
    const std::size_t expect = payload_size(type);
    if (expect == 0 || expect != payload) {
        return {DecodeStatus::kError, 0};  // unknown type / size mismatch
    }

    out = Message{};
    out.type = type;
    out.tag = get_u64(p + 1);
    switch (type) {
        case MsgType::kPushReq:
            out.value = get_u64(p + 9);
            break;
        case MsgType::kPopReq:
        case MsgType::kStatsReq:
            break;
        case MsgType::kPushResp:
            out.ok = p[9] != 0;
            break;
        case MsgType::kPopResp:
            out.ok = p[9] != 0;
            out.value = get_u64(p + 10);
            break;
        case MsgType::kStatsResp:
            out.stats.pushes = get_u64(p + 9);
            out.stats.pops = get_u64(p + 17);
            out.stats.empties = get_u64(p + 25);
            out.stats.batches = get_u64(p + 33);
            out.stats.shape = p[41];
            break;
    }
    return {DecodeStatus::kOk, kHeaderBytes + payload};
}

}  // namespace sec::net
