// Seeded round-trip fuzz for the transport wire codec: every protocol
// message type survives encode -> decode -> encode byte-identically, and
// truncated / mutated / garbage buffers are rejected without UB (the
// fuzz-smoke-asan CI job runs this binary under AddressSanitizer). It
// also pins the wire bytes and the accept/reject verdicts to two digests,
// so a rewrite of the codec cannot move either unnoticed.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "bitswap/bitswap.h"
#include "crypto/sha256.h"
#include "dht/key.h"
#include "dht/messages.h"
#include "indexer/messages.h"
#include "multiformats/cid.h"
#include "pubsub/pubsub.h"
#include "scenario/scenario.h"
#include "transport/codec.h"

namespace ipfs {
namespace {

using transport::decode_message;
using transport::encode_message;

class Fuzz {
 public:
  explicit Fuzz(std::uint64_t seed) : rng_(seed) {}

  std::uint64_t u64() { return rng_(); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(rng_()); }
  bool boolean() { return (rng_() & 1) != 0; }
  std::size_t index(std::size_t bound) { return rng_() % bound; }

  std::vector<std::uint8_t> bytes(std::size_t max_len) {
    std::vector<std::uint8_t> out(index(max_len + 1));
    for (auto& b : out) b = static_cast<std::uint8_t>(rng_());
    return out;
  }

  dht::Key key() {
    std::array<std::uint8_t, 32> raw{};
    for (auto& b : raw) b = static_cast<std::uint8_t>(rng_());
    return dht::Key(raw);
  }

  multiformats::Cid cid() {
    const auto data = bytes(64);
    return multiformats::Cid::from_data(multiformats::Multicodec::kRaw, data);
  }

  dht::PeerRef peer_ref() {
    dht::PeerRef ref;
    const std::uint32_t n = u32() % 100000;
    ref.id = scenario::synthetic_peer_id(n);
    ref.node = static_cast<sim::NodeId>(n);
    std::vector<multiformats::Multiaddr> addresses(index(3));
    for (auto& address : addresses)
      address = scenario::synthetic_address(u32() % 100000);
    ref.addresses = multiformats::AddressList(std::move(addresses));
    return ref;
  }

  std::vector<dht::PeerRef> peer_refs(std::size_t max) {
    std::vector<dht::PeerRef> out(index(max + 1));
    for (auto& ref : out) ref = peer_ref();
    return out;
  }

  dht::ProviderRecord provider_record() {
    dht::ProviderRecord record;
    record.provider = peer_ref();
    record.received_at = static_cast<sim::Time>(u64() % (1ull << 50));
    return record;
  }

  dht::ValueRecord value_record() {
    dht::ValueRecord record;
    record.value = bytes(128);
    record.sequence = u64();
    record.received_at = static_cast<sim::Time>(u64() % (1ull << 50));
    return record;
  }

  pubsub::MessageId message_id() {
    return pubsub::MessageId{static_cast<sim::NodeId>(u32() % 100000), u64()};
  }

 private:
  std::mt19937_64 rng_;
};

// One randomized instance of every wire message type, cycled by `pick`.
sim::MessagePtr make_message(Fuzz& fuzz, std::size_t pick) {
  switch (pick % 20) {
    case 0: {
      auto m = std::make_shared<dht::FindNodeRequest>();
      m->requester = fuzz.peer_ref();
      m->requester_is_server = fuzz.boolean();
      m->target = fuzz.key();
      return m;
    }
    case 1: {
      auto m = std::make_shared<dht::FindNodeResponse>();
      m->closer = fuzz.peer_refs(20);
      return m;
    }
    case 2: {
      auto m = std::make_shared<dht::GetProvidersRequest>();
      m->requester = fuzz.peer_ref();
      m->requester_is_server = fuzz.boolean();
      m->key = fuzz.key();
      return m;
    }
    case 3: {
      auto m = std::make_shared<dht::GetProvidersResponse>();
      const std::size_t providers = fuzz.index(6);
      for (std::size_t i = 0; i < providers; ++i) {
        m->providers.push_back(fuzz.provider_record());
      }
      m->closer = fuzz.peer_refs(20);
      return m;
    }
    case 4: {
      auto m = std::make_shared<dht::AddProviderRequest>();
      m->key = fuzz.key();
      m->provider = fuzz.peer_ref();
      return m;
    }
    case 5: {
      auto m = std::make_shared<dht::PutValueRequest>();
      m->key = fuzz.key();
      m->record = fuzz.value_record();
      return m;
    }
    case 6: {
      auto m = std::make_shared<dht::GetValueRequest>();
      m->requester = fuzz.peer_ref();
      m->requester_is_server = fuzz.boolean();
      m->key = fuzz.key();
      return m;
    }
    case 7: {
      auto m = std::make_shared<dht::GetValueResponse>();
      if (fuzz.boolean()) m->record = fuzz.value_record();
      m->closer = fuzz.peer_refs(20);
      return m;
    }
    case 8:
      return std::make_shared<dht::ListBucketsRequest>();
    case 9: {
      auto m = std::make_shared<dht::ListBucketsResponse>();
      m->peers = fuzz.peer_refs(40);
      return m;
    }
    case 10:
      return std::make_shared<dht::DialBackRequest>();
    case 11: {
      auto m = std::make_shared<dht::DialBackResponse>();
      m->reachable = fuzz.boolean();
      return m;
    }
    case 12: {
      auto m = std::make_shared<bitswap::WantHaveRequest>();
      m->cid = fuzz.cid();
      return m;
    }
    case 13: {
      auto m = std::make_shared<bitswap::HaveResponse>();
      m->have = fuzz.boolean();
      return m;
    }
    case 14: {
      auto m = std::make_shared<bitswap::WantBlockRequest>();
      m->cid = fuzz.cid();
      m->send_dont_have = fuzz.boolean();
      return m;
    }
    case 15: {
      auto m = std::make_shared<bitswap::BlockResponse>();
      m->cid = fuzz.cid();
      if (fuzz.boolean()) {
        auto data = fuzz.bytes(512);
        m->cid = multiformats::Cid::from_data(
            multiformats::Multicodec::kRaw, data);
        m->data = std::make_shared<const std::vector<std::uint8_t>>(
            std::move(data));
      } else {
        m->dont_have = fuzz.boolean();
      }
      return m;
    }
    case 16: {
      auto m = std::make_shared<pubsub::GossipRpc>();
      const std::size_t subs = fuzz.index(3);
      for (std::size_t i = 0; i < subs; ++i) {
        m->subscriptions.push_back(
            pubsub::SubOpts{"topic-" + std::to_string(fuzz.index(5)),
                            fuzz.boolean()});
      }
      m->announce_reply = fuzz.boolean();
      const std::size_t publish = fuzz.index(3);
      for (std::size_t i = 0; i < publish; ++i) {
        pubsub::PubsubMessage message;
        message.id = fuzz.message_id();
        message.topic = "topic-" + std::to_string(fuzz.index(5));
        message.data = fuzz.bytes(256);
        m->publish.push_back(std::move(message));
      }
      if (fuzz.boolean()) {
        pubsub::ControlIHave ihave;
        ihave.topic = "t";
        const std::size_t ids = fuzz.index(6);
        for (std::size_t i = 0; i < ids; ++i) {
          ihave.ids.push_back(fuzz.message_id());
        }
        m->ihave.push_back(std::move(ihave));
      }
      if (fuzz.boolean()) {
        pubsub::ControlIWant iwant;
        const std::size_t ids = fuzz.index(6);
        for (std::size_t i = 0; i < ids; ++i) {
          iwant.ids.push_back(fuzz.message_id());
        }
        m->iwant.push_back(std::move(iwant));
      }
      if (fuzz.boolean()) {
        m->graft.push_back(pubsub::ControlGraft{"t"});
      }
      if (fuzz.boolean()) {
        pubsub::ControlPrune prune;
        prune.topic = "t";
        const std::size_t px = fuzz.index(6);
        for (std::size_t i = 0; i < px; ++i) {
          prune.px.push_back(static_cast<sim::NodeId>(fuzz.u32() % 100000));
        }
        m->prune.push_back(std::move(prune));
      }
      return m;
    }
    case 17: {
      auto m = std::make_shared<indexer::AdvertiseMessage>();
      m->key = fuzz.key();
      m->provider = fuzz.peer_ref();
      return m;
    }
    case 18: {
      auto m = std::make_shared<indexer::QueryRequest>();
      m->key = fuzz.key();
      return m;
    }
    default: {
      auto m = std::make_shared<indexer::QueryResponse>();
      const std::size_t providers = fuzz.index(6);
      for (std::size_t i = 0; i < providers; ++i) {
        m->providers.push_back(fuzz.provider_record());
      }
      return m;
    }
  }
}

// encode -> decode -> encode is the identity on bytes for every type.
// (Byte-level comparison of the re-encoding checks every field without
// needing operator== on the message structs.)
TEST(CodecFuzzTest, RoundTripIsByteIdentity) {
  Fuzz fuzz(20260809);
  for (std::size_t i = 0; i < 400; ++i) {
    const sim::MessagePtr message = make_message(fuzz, i);
    const auto encoded = encode_message(*message);
    ASSERT_TRUE(encoded.has_value()) << "type " << i % 20;
    const sim::MessagePtr decoded = decode_message(*encoded);
    ASSERT_NE(decoded, nullptr) << "type " << i % 20;
    const auto re_encoded = encode_message(*decoded);
    ASSERT_TRUE(re_encoded.has_value()) << "type " << i % 20;
    EXPECT_EQ(*encoded, *re_encoded) << "type " << i % 20;
  }
}

// Spot-check decoded field values (byte identity alone would also pass
// for a codec that scrambled fields symmetrically).
TEST(CodecFuzzTest, DecodedFieldsMatch) {
  Fuzz fuzz(7);
  auto request = std::make_shared<dht::GetProvidersRequest>();
  request->requester = fuzz.peer_ref();
  request->requester_is_server = true;
  request->key = fuzz.key();
  const auto encoded = encode_message(*request);
  ASSERT_TRUE(encoded.has_value());
  const auto decoded = std::dynamic_pointer_cast<const dht::GetProvidersRequest>(
      decode_message(*encoded));
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(decoded->key.bytes(), request->key.bytes());
  EXPECT_TRUE(decoded->requester_is_server);
  EXPECT_EQ(decoded->requester.id, request->requester.id);
  EXPECT_EQ(decoded->requester.node, request->requester.node);
  EXPECT_EQ(decoded->requester.addresses.size(),
            request->requester.addresses.size());

  auto response = std::make_shared<bitswap::BlockResponse>();
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  response->cid =
      multiformats::Cid::from_data(multiformats::Multicodec::kRaw, payload);
  response->data =
      std::make_shared<const std::vector<std::uint8_t>>(payload);
  const auto encoded_block = encode_message(*response);
  ASSERT_TRUE(encoded_block.has_value());
  const auto decoded_block =
      std::dynamic_pointer_cast<const bitswap::BlockResponse>(
          decode_message(*encoded_block));
  ASSERT_NE(decoded_block, nullptr);
  ASSERT_TRUE(decoded_block->data != nullptr);
  EXPECT_EQ(*decoded_block->data, payload);
  EXPECT_EQ(decoded_block->cid.encode(), response->cid.encode());
  EXPECT_FALSE(decoded_block->dont_have);
}

// A message type the codec does not know is reported, not mis-encoded.
TEST(CodecFuzzTest, UnknownTypeIsRejected) {
  struct LocalMessage : sim::Message {};
  EXPECT_FALSE(encode_message(LocalMessage{}).has_value());
}

// Every strict prefix of a valid encoding is rejected: all fields are
// fixed-width or length-prefixed, so truncation always leaves a declared
// length unsatisfied.
TEST(CodecFuzzTest, TruncationIsRejected) {
  Fuzz fuzz(99);
  for (std::size_t i = 0; i < 60; ++i) {
    const sim::MessagePtr message = make_message(fuzz, i);
    const auto encoded = encode_message(*message);
    ASSERT_TRUE(encoded.has_value());
    for (std::size_t len = 0; len < encoded->size(); ++len) {
      const std::span<const std::uint8_t> prefix(encoded->data(), len);
      EXPECT_EQ(decode_message(prefix), nullptr)
          << "type " << i % 20 << " prefix " << len << "/" << encoded->size();
    }
  }
}

// Appending trailing bytes to a valid encoding is rejected (decode must
// consume the payload exactly).
TEST(CodecFuzzTest, TrailingGarbageIsRejected) {
  Fuzz fuzz(123);
  for (std::size_t i = 0; i < 60; ++i) {
    const sim::MessagePtr message = make_message(fuzz, i);
    auto encoded = encode_message(*message);
    ASSERT_TRUE(encoded.has_value());
    encoded->push_back(0);
    EXPECT_EQ(decode_message(*encoded), nullptr) << "type " << i % 20;
  }
}

// A length prefix over the 64 MiB field cap is refused, not read as an
// empty field with the parse going on from the bytes after it. An empty
// value's zero prefix sits right after the tag (u16) and the record's
// presence flag (u8); claiming 0xFFFFFFFF there leaves every other byte of
// a valid encoding as it was.
TEST(CodecFuzzTest, OverCapLengthPrefixIsRejected) {
  Fuzz fuzz(5);
  auto response = std::make_shared<dht::GetValueResponse>();
  response->record = fuzz.value_record();
  response->record->value.clear();
  response->closer = fuzz.peer_refs(3);
  auto encoded = encode_message(*response);
  ASSERT_TRUE(encoded.has_value());
  ASSERT_NE(decode_message(*encoded), nullptr);
  constexpr std::size_t kValuePrefix = 3;
  ASSERT_GE(encoded->size(), kValuePrefix + 4);
  for (std::size_t i = kValuePrefix; i < kValuePrefix + 4; ++i) {
    ASSERT_EQ((*encoded)[i], 0) << "byte " << i;
    (*encoded)[i] = 0xFF;
  }
  EXPECT_EQ(decode_message(*encoded), nullptr);
}

// Random byte soup and bit-flipped encodings never crash the decoder
// (ASan keeps this honest); anything it does accept must re-encode.
TEST(CodecFuzzTest, GarbageAndMutationsAreSafe) {
  Fuzz fuzz(31337);
  for (std::size_t i = 0; i < 500; ++i) {
    const auto garbage = fuzz.bytes(512);
    const sim::MessagePtr decoded = decode_message(garbage);
    if (decoded != nullptr) {
      EXPECT_TRUE(encode_message(*decoded).has_value());
    }
  }
  for (std::size_t i = 0; i < 500; ++i) {
    const sim::MessagePtr message = make_message(fuzz, i);
    auto encoded = encode_message(*message);
    ASSERT_TRUE(encoded.has_value());
    if (encoded->empty()) continue;
    (*encoded)[fuzz.index(encoded->size())] ^=
        static_cast<std::uint8_t>(1u << fuzz.index(8));
    const sim::MessagePtr decoded = decode_message(*encoded);
    if (decoded != nullptr) {
      EXPECT_TRUE(encode_message(*decoded).has_value());
    }
  }
}

// The wire bytes and the accept/reject verdicts, pinned. Round-trip
// identity holds for any self-consistent format, so it cannot tell
// whether a rewrite of the codec kept the bytes or the rejection rules;
// these two digests can. Taken by running this test at the commit before
// the codec's layouts were written once for both directions. Re-pin only
// for a deliberate change of the wire format, and say why.
constexpr const char* kPinnedWireDigest =
    "52ee232019fe6447ab3a38952ebce8985ab7349823a39993684d443858325007";
constexpr const char* kPinnedVerdictDigest =
    "09312bb4dfc8b2738c9cd25308c025bcc7bccd81faf5853b1f14753166996be8";

TEST(CodecFuzzTest, WireBytesMatchPinnedDigest) {
  // Wire digest: the encodings of the round-trip corpus.
  crypto::Sha256 wire;
  Fuzz corpus(20260809);
  for (std::size_t i = 0; i < 400; ++i) {
    const auto encoded = encode_message(*make_message(corpus, i));
    ASSERT_TRUE(encoded.has_value()) << "type " << i % 20;
    wire.update(*encoded);
  }

  // Verdict digest: per input, 1 and the re-encoding if it decodes, else
  // 0. The inputs are GarbageAndMutationsAreSafe's draws, then every
  // single-bit flip of 40 valid encodings.
  crypto::Sha256 verdicts;
  const auto judge = [&verdicts](std::span<const std::uint8_t> input) {
    const sim::MessagePtr decoded = decode_message(input);
    const std::uint8_t accepted = decoded != nullptr ? 1 : 0;
    verdicts.update(std::span<const std::uint8_t>(&accepted, 1));
    if (decoded == nullptr) return;
    const auto re_encoded = encode_message(*decoded);
    ASSERT_TRUE(re_encoded.has_value());
    verdicts.update(*re_encoded);
  };
  Fuzz fuzz(31337);
  for (std::size_t i = 0; i < 500; ++i) {
    judge(fuzz.bytes(512));
    if (HasFatalFailure()) return;
  }
  for (std::size_t i = 0; i < 500; ++i) {
    auto encoded = encode_message(*make_message(fuzz, i));
    ASSERT_TRUE(encoded.has_value());
    if (encoded->empty()) continue;
    (*encoded)[fuzz.index(encoded->size())] ^=
        static_cast<std::uint8_t>(1u << fuzz.index(8));
    judge(*encoded);
    if (HasFatalFailure()) return;
  }
  Fuzz flips(4242);
  for (std::size_t i = 0; i < 40; ++i) {
    auto encoded = encode_message(*make_message(flips, i));
    ASSERT_TRUE(encoded.has_value());
    for (std::size_t bit = 0; bit < encoded->size() * 8; ++bit) {
      (*encoded)[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      judge(*encoded);
      (*encoded)[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      if (HasFatalFailure()) return;
    }
  }

  EXPECT_EQ(crypto::to_hex(wire.finish()), kPinnedWireDigest);
  EXPECT_EQ(crypto::to_hex(verdicts.finish()), kPinnedVerdictDigest);
}

}  // namespace
}  // namespace ipfs
