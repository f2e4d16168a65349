// Wire codec for the protocol message structs, used by SocketTransport
// to move the simulator's in-memory messages between real processes.
//
// In the simulator, messages travel as shared_ptr<sim::Message> with an
// *approximate* byte count for transfer-delay modelling; nothing is ever
// serialized. A real socket backend needs actual bytes, so this codec
// defines a concrete encoding:
//
//   frame payload := [tag u16][body]
//
// with little-endian fixed-width integers, u32 length prefixes on all
// variable-length fields, and nested multiformats objects (PeerId,
// Multiaddr, Cid) embedded as length-prefixed copies of their canonical
// binary encodings. Every message type in the DHT, Bitswap, GossipSub
// and indexer protocols has a tag. Each struct's layout is written once,
// as a field list that the encoder and the decoder both run, so
// encode/decode round-trip exactly (tests/codec_fuzz_test.cpp drives
// randomized identity checks and garbage-rejection under ASan, and pins
// the wire bytes and the accept/reject verdicts).
//
// decode_message() is safe on untrusted input: any truncated, oversized
// or otherwise malformed buffer yields nullptr, never UB.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "sim/network.h"

namespace ipfs::transport {

// Serializes `message`. Returns nullopt when the concrete type is not a
// known wire message (e.g. a test-local struct), which a socket backend
// reports as a send failure.
std::optional<std::vector<std::uint8_t>> encode_message(
    const sim::Message& message);

// Parses one encoded message. Returns nullptr on unknown tag, trailing
// garbage, truncation, or any length field that walks out of bounds.
sim::MessagePtr decode_message(std::span<const std::uint8_t> bytes);

}  // namespace ipfs::transport
