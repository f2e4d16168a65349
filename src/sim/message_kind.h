// One registry for protocol message kinds. The numeric values double as
// the wire tags of transport/codec.cpp ([tag u16][body] frames), so a
// new message type registers exactly once: add an enumerator here, an
// override of sim::Message::kind() on the struct, and in the codec one
// fields() layout plus one tag-table row (docs/TRANSPORT.md, "Adding a
// message type").
//
// Dispatch sites (Bitswap::handle_request's switch, the codec's tag
// table) read kind() instead of walking a dynamic_cast chain, and the
// wire tag is the kind itself, so the two layers cannot drift apart.
//
// Stable wire constants: append only, never renumber.
#pragma once

#include <cstdint>

namespace ipfs::sim {

enum class MessageKind : std::uint16_t {
  kUnknown = 0,  // default for test-local structs; never on the wire

  // DHT (dht/messages.h)
  kFindNodeRequest = 1,
  kFindNodeResponse = 2,
  kGetProvidersRequest = 3,
  kGetProvidersResponse = 4,
  kAddProviderRequest = 5,
  kPutValueRequest = 6,
  kGetValueRequest = 7,
  kGetValueResponse = 8,
  kListBucketsRequest = 9,
  kListBucketsResponse = 10,
  kDialBackRequest = 11,
  kDialBackResponse = 12,

  // Bitswap 1.2.0 (bitswap/bitswap.h)
  kWantHaveRequest = 20,
  kHaveResponse = 21,
  kWantBlockRequest = 22,
  kBlockResponse = 23,

  // GossipSub (pubsub/pubsub.h)
  kGossipRpc = 30,

  // Network indexers (indexer/messages.h)
  kAdvertiseMessage = 40,
  kQueryRequest = 41,
  kQueryResponse = 42,
};

}  // namespace ipfs::sim
