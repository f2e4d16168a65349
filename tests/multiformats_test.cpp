// Multiformats tests: varint, multibase, multihash, CID and multiaddr
// behaviour, including the CID structure from Figure 1 and the
// multiaddress structure from Figure 2 of the paper.
#include <gtest/gtest.h>

#include "crypto/sha256.h"
#include "multiformats/cid.h"
#include "multiformats/multiaddr.h"
#include "multiformats/multibase.h"
#include "multiformats/multihash.h"
#include "multiformats/peerid.h"
#include "multiformats/varint.h"

namespace ipfs::multiformats {
namespace {

std::vector<std::uint8_t> bytes_of(std::string_view s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

// --------------------------------------------------------------------------
// varint
// --------------------------------------------------------------------------

TEST(VarintTest, EncodesKnownValues) {
  EXPECT_EQ(varint_encode(0), (std::vector<std::uint8_t>{0x00}));
  EXPECT_EQ(varint_encode(1), (std::vector<std::uint8_t>{0x01}));
  EXPECT_EQ(varint_encode(127), (std::vector<std::uint8_t>{0x7f}));
  EXPECT_EQ(varint_encode(128), (std::vector<std::uint8_t>{0x80, 0x01}));
  EXPECT_EQ(varint_encode(300), (std::vector<std::uint8_t>{0xac, 0x02}));
  EXPECT_EQ(varint_encode(16384),
            (std::vector<std::uint8_t>{0x80, 0x80, 0x01}));
}

class VarintRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VarintRoundTrip, DecodesItsOwnEncoding) {
  const auto encoded = varint_encode(GetParam());
  const auto decoded = varint_decode(encoded);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->value, GetParam());
  EXPECT_EQ(decoded->consumed, encoded.size());
}

INSTANTIATE_TEST_SUITE_P(Values, VarintRoundTrip,
                         ::testing::Values(0ULL, 1ULL, 127ULL, 128ULL, 255ULL,
                                           300ULL, 16383ULL, 16384ULL,
                                           0xffffffULL, 0xdeadbeefULL,
                                           (1ULL << 62) - 1));

TEST(VarintTest, RejectsTruncatedInput) {
  const std::vector<std::uint8_t> truncated = {0x80};
  EXPECT_FALSE(varint_decode(truncated).has_value());
  EXPECT_FALSE(varint_decode({}).has_value());
}

TEST(VarintTest, RejectsNonMinimalEncoding) {
  const std::vector<std::uint8_t> padded = {0x81, 0x00};  // 1 with padding
  EXPECT_FALSE(varint_decode(padded).has_value());
}

TEST(VarintTest, DecodeReportsConsumedPrefixOnly) {
  const std::vector<std::uint8_t> data = {0xac, 0x02, 0xff, 0xff};
  const auto decoded = varint_decode(data);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->value, 300u);
  EXPECT_EQ(decoded->consumed, 2u);
}

// --------------------------------------------------------------------------
// multibase
// --------------------------------------------------------------------------

TEST(MultibaseTest, Base32KnownValue) {
  // RFC 4648: "foobar" -> MZXW6YTBOI (lowercase, unpadded here).
  EXPECT_EQ(base32_encode(bytes_of("foobar")), "mzxw6ytboi");
  EXPECT_EQ(base32_decode("mzxw6ytboi").value(), bytes_of("foobar"));
}

TEST(MultibaseTest, Base58KnownValue) {
  // "Hello World!" from the draft-msporny-base58 test vectors.
  EXPECT_EQ(base58btc_encode(bytes_of("Hello World!")), "2NEpo7TZRRrLZSi2U");
  EXPECT_EQ(base58btc_decode("2NEpo7TZRRrLZSi2U").value(),
            bytes_of("Hello World!"));
}

TEST(MultibaseTest, Base58PreservesLeadingZeros) {
  const std::vector<std::uint8_t> data = {0x00, 0x00, 0x01, 0x02};
  const auto text = base58btc_encode(data);
  EXPECT_TRUE(text.starts_with("11"));
  EXPECT_EQ(base58btc_decode(text).value(), data);
}

TEST(MultibaseTest, Base64KnownValue) {
  EXPECT_EQ(base64_encode(bytes_of("foobar"), false), "Zm9vYmFy");
  EXPECT_EQ(base64_decode("Zm9vYmFy", false).value(), bytes_of("foobar"));
  EXPECT_EQ(base64_encode(bytes_of("fo"), false), "Zm8");
}

class MultibaseRoundTrip : public ::testing::TestWithParam<Multibase> {};

TEST_P(MultibaseRoundTrip, AllBasesRoundTrip) {
  std::vector<std::uint8_t> data;
  for (int i = 0; i < 100; ++i) data.push_back(static_cast<std::uint8_t>(i * 7));
  const auto text = multibase_encode(GetParam(), data);
  const auto back = multibase_decode(text);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, data);
}

INSTANTIATE_TEST_SUITE_P(Bases, MultibaseRoundTrip,
                         ::testing::Values(Multibase::kIdentity,
                                           Multibase::kBase16,
                                           Multibase::kBase32,
                                           Multibase::kBase58Btc,
                                           Multibase::kBase64,
                                           Multibase::kBase64Url));

TEST(MultibaseTest, RejectsUnknownPrefixAndBadPayload) {
  EXPECT_FALSE(multibase_decode("?abc").has_value());
  EXPECT_FALSE(multibase_decode("").has_value());
  EXPECT_FALSE(base32_decode("0189").has_value());   // '0','1' not in alphabet
  EXPECT_FALSE(base58btc_decode("0OIl").has_value());  // excluded chars
}

// --------------------------------------------------------------------------
// multihash
// --------------------------------------------------------------------------

TEST(MultihashTest, Sha256EncodingHasExpectedHeader) {
  const auto data = bytes_of("ipfs");
  const auto mh = Multihash::sha2_256(data);
  const auto encoded = mh.encode();
  ASSERT_EQ(encoded.size(), 34u);
  EXPECT_EQ(encoded[0], 0x12);  // sha2-256 code
  EXPECT_EQ(encoded[1], 0x20);  // 32-byte digest
  EXPECT_TRUE(mh.verifies(data));
  EXPECT_FALSE(mh.verifies(bytes_of("ipfs!")));
}

TEST(MultihashTest, DecodeRoundTrip) {
  const auto mh = Multihash::sha2_256(bytes_of("round trip"));
  std::size_t consumed = 0;
  const auto decoded = Multihash::decode(mh.encode(), &consumed);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, mh);
  EXPECT_EQ(consumed, 34u);
}

TEST(MultihashTest, RejectsTruncatedDigest) {
  auto encoded = Multihash::sha2_256(bytes_of("x")).encode();
  encoded.resize(20);
  EXPECT_FALSE(Multihash::decode(encoded).has_value());
}

TEST(MultihashTest, IdentityHashVerifiesRawBytes) {
  const auto data = bytes_of("inline-key");
  const auto mh = Multihash::identity(data);
  EXPECT_TRUE(mh.verifies(data));
  EXPECT_EQ(mh.digest(), data);
}

// --------------------------------------------------------------------------
// CID (paper Figure 1)
// --------------------------------------------------------------------------

TEST(CidTest, V1StructureMatchesFigure1) {
  const auto data = bytes_of("hello ipfs");
  const auto cid = Cid::from_data(Multicodec::kRaw, data);
  const auto encoded = cid.encode();
  // <version=1><codec=raw 0x55><multihash sha2-256>
  ASSERT_GE(encoded.size(), 4u);
  EXPECT_EQ(encoded[0], 0x01);
  EXPECT_EQ(encoded[1], 0x55);
  EXPECT_EQ(encoded[2], 0x12);
  EXPECT_EQ(encoded[3], 0x20);
  // Textual form: multibase prefix 'b' for base32 (Figure 1).
  EXPECT_EQ(cid.to_string()[0], 'b');
}

TEST(CidTest, TextRoundTripBase32) {
  const auto cid = Cid::from_data(Multicodec::kDagPb, bytes_of("a block"));
  const auto parsed = Cid::parse(cid.to_string());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, cid);
}

TEST(CidTest, V0RoundTripBase58) {
  const auto mh = Multihash::sha2_256(bytes_of("v0 block"));
  const auto cid = Cid::v0(mh);
  const auto text = cid.to_string();
  EXPECT_TRUE(text.starts_with("Qm"));
  EXPECT_EQ(text.size(), 46u);
  const auto parsed = Cid::parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->version(), 0);
  EXPECT_EQ(*parsed, cid);
}

TEST(CidTest, V0UpgradesToV1) {
  const auto mh = Multihash::sha2_256(bytes_of("upgrade me"));
  const auto v1 = Cid::v0(mh).as_v1();
  EXPECT_EQ(v1.version(), 1);
  EXPECT_EQ(v1.content_codec(), Multicodec::kDagPb);
  EXPECT_EQ(v1.hash(), mh);
}

TEST(CidTest, SameContentSameCidDifferentContentDifferentCid) {
  const auto a1 = Cid::from_data(Multicodec::kRaw, bytes_of("content"));
  const auto a2 = Cid::from_data(Multicodec::kRaw, bytes_of("content"));
  const auto b = Cid::from_data(Multicodec::kRaw, bytes_of("Content"));
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
}

TEST(CidTest, RejectsGarbage) {
  EXPECT_FALSE(Cid::parse("not-a-cid").has_value());
  EXPECT_FALSE(Cid::parse("").has_value());
  const std::vector<std::uint8_t> garbage = {0x09, 0x01, 0x02};
  EXPECT_FALSE(Cid::decode(garbage).has_value());
}

// --------------------------------------------------------------------------
// Multiaddr (paper Figure 2)
// --------------------------------------------------------------------------

TEST(MultiaddrTest, ParsesFigure2Address) {
  // The paper's example: /ip4/1.2.3.4/tcp/3333/p2p/<PeerID>.
  const auto peer = PeerId::from_public_key(crypto::Ed25519PublicKey{});
  const auto text = "/ip4/1.2.3.4/tcp/3333/p2p/" + peer.to_base58();
  const auto addr = Multiaddr::parse(text);
  ASSERT_TRUE(addr.has_value());
  const auto id = addr->value_for(MultiaddrProtocol::kP2p);
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(std::vector<std::uint8_t>(id->begin(), id->end()), peer.encode());
  EXPECT_EQ(addr->to_string(), text);
}

TEST(MultiaddrTest, BinaryRoundTrip) {
  const auto addr = Multiaddr::parse("/ip4/127.0.0.1/udp/4001/quic");
  ASSERT_TRUE(addr.has_value());
  const auto decoded = Multiaddr::decode(addr->encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, *addr);
  EXPECT_EQ(decoded->to_string(), "/ip4/127.0.0.1/udp/4001/quic");
}

TEST(MultiaddrTest, ParsesIp6) {
  const auto addr = Multiaddr::parse("/ip6/2001:db8::1/tcp/8080");
  ASSERT_TRUE(addr.has_value());
  const auto value = addr->value_for(MultiaddrProtocol::kIp6);
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value->size(), 16u);
  EXPECT_EQ((*value)[0], 0x20);
  EXPECT_EQ((*value)[1], 0x01);
  EXPECT_EQ((*value)[15], 0x01);
}

TEST(MultiaddrTest, ParsesDnsAndWebsocket) {
  const auto addr = Multiaddr::parse("/dns4/example.com/tcp/443/wss");
  ASSERT_TRUE(addr.has_value());
  EXPECT_EQ(addr->to_string(), "/dns4/example.com/tcp/443/wss");
}

TEST(MultiaddrTest, ParsesRelayAddress) {
  const std::string text = "/ip4/10.0.0.1/tcp/4001/p2p-circuit";
  const auto addr = Multiaddr::parse(text);
  ASSERT_TRUE(addr.has_value());
  EXPECT_EQ(addr->to_string(), text);
  // p2p-circuit is a bare protocol code (0x0122, two varint bytes).
  const std::vector<std::uint8_t> packed = {0x04, 10,   0,    0,   1,
                                            0x06, 0x0f, 0xa1, 0xa2, 0x02};
  EXPECT_EQ(addr->encode(), packed);
  const auto decoded = Multiaddr::decode(packed);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, *addr);
  EXPECT_EQ(decoded->to_string(), text);
}

TEST(MultiaddrTest, RejectsMalformedInput) {
  EXPECT_FALSE(Multiaddr::parse("").has_value());
  EXPECT_FALSE(Multiaddr::parse("ip4/1.2.3.4").has_value());
  EXPECT_FALSE(Multiaddr::parse("/ip4/999.2.3.4/tcp/80").has_value());
  EXPECT_FALSE(Multiaddr::parse("/ip4/1.2.3.4/tcp/99999").has_value());
  EXPECT_FALSE(Multiaddr::parse("/ip4/1.2.3.4/tcp").has_value());
  EXPECT_FALSE(Multiaddr::parse("/nosuchproto/1").has_value());
}

TEST(MultiaddrTest, DecodeRejectsMalformedBytes) {
  using Bytes = std::vector<std::uint8_t>;
  // The well-formed baseline: /ip4/1.2.3.4/tcp/80.
  ASSERT_TRUE(
      Multiaddr::decode(Bytes{0x04, 1, 2, 3, 4, 0x06, 0x00, 0x50}).has_value());

  EXPECT_FALSE(Multiaddr::decode(Bytes{}).has_value());
  // 0x07 names no protocol in the table.
  EXPECT_FALSE(Multiaddr::decode(Bytes{0x07, 1, 2, 3, 4}).has_value());
  // ip4 carries four bytes, tcp two.
  EXPECT_FALSE(Multiaddr::decode(Bytes{0x04, 1, 2, 3}).has_value());
  EXPECT_FALSE(Multiaddr::decode(Bytes{0x04, 1, 2, 3, 4, 0x06, 0x00})
                   .has_value());
  // dns4 announces five name bytes and carries two.
  EXPECT_FALSE(Multiaddr::decode(Bytes{0x36, 0x05, 'a', 'b'}).has_value());
  // The ip4 code in two varint bytes where one would do.
  EXPECT_FALSE(Multiaddr::decode(Bytes{0x84, 0x00, 1, 2, 3, 4}).has_value());
  // A length prefix in a non-minimal varint.
  EXPECT_FALSE(
      Multiaddr::decode(Bytes{0x36, 0x81, 0x00, 'a'}).has_value());
}

TEST(MultiaddrTest, ConvenienceConstructors) {
  EXPECT_EQ(make_tcp_multiaddr("192.168.1.5", 4001).to_string(),
            "/ip4/192.168.1.5/tcp/4001");
  EXPECT_EQ(make_quic_multiaddr("10.1.2.3", 4001).to_string(),
            "/ip4/10.1.2.3/udp/4001/quic");
}

// --------------------------------------------------------------------------
// PeerId (paper Section 2.2)
// --------------------------------------------------------------------------

TEST(PeerIdTest, DerivedFromPublicKeyAndRecoverable) {
  crypto::Ed25519Seed seed{};
  seed[0] = 42;
  const auto kp = crypto::ed25519_keypair(seed);
  const auto peer = PeerId::from_public_key(kp.public_key);
  // Ed25519 PeerIDs use the identity multihash and render as 12D3KooW...
  EXPECT_TRUE(peer.to_base58().starts_with("12D3KooW"));
  const auto recovered = peer.public_key();
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(*recovered, kp.public_key);
}

TEST(PeerIdTest, ParseRoundTrip) {
  crypto::Ed25519Seed seed{};
  seed[5] = 7;
  const auto kp = crypto::ed25519_keypair(seed);
  const auto peer = PeerId::from_public_key(kp.public_key);
  const auto parsed = PeerId::parse(peer.to_base58());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, peer);
}

TEST(PeerIdTest, DistinctKeysDistinctPeerIds) {
  crypto::Ed25519Seed s1{}, s2{};
  s1[0] = 1;
  s2[0] = 2;
  const auto p1 = PeerId::from_public_key(crypto::ed25519_keypair(s1).public_key);
  const auto p2 = PeerId::from_public_key(crypto::ed25519_keypair(s2).public_key);
  EXPECT_NE(p1, p2);
}

}  // namespace
}  // namespace ipfs::multiformats
