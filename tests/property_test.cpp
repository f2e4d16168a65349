// Property-style invariant sweeps (TEST_P / INSTANTIATE_TEST_SUITE_P):
// round-trips, canonical encodings, ordering invariants and conservation
// laws across randomized inputs.
#include <gtest/gtest.h>

#include <algorithm>

#include "crypto/ed25519.h"
#include "crypto/sha256.h"
#include "dht/key.h"
#include "dht/routing_table.h"
#include "merkledag/merkledag.h"
#include "merkledag/unixfs.h"
#include "multiformats/cid.h"
#include "multiformats/multiaddr.h"
#include "multiformats/multibase.h"
#include "multiformats/varint.h"
#include "sim/rng.h"
#include "stats/stats.h"
#include "testutil.h"

namespace ipfs {
namespace {

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

// --------------------------------------------------------------------------
// Multibase: decode(encode(x)) == x for every base, many random inputs
// --------------------------------------------------------------------------

using BaseAndSeed = std::tuple<multiformats::Multibase, std::uint64_t>;

class MultibaseProperty : public ::testing::TestWithParam<BaseAndSeed> {};

TEST_P(MultibaseProperty, RoundTripsRandomPayloads) {
  const auto [base, seed] = GetParam();
  sim::Rng rng(seed);
  for (int trial = 0; trial < 50; ++trial) {
    const auto length = static_cast<std::size_t>(rng.uniform_int(0, 200));
    const auto data = random_bytes(length, rng.next());
    const auto text = multiformats::multibase_encode(base, data);
    const auto back = multiformats::multibase_decode(text);
    ASSERT_TRUE(back.has_value()) << "len=" << length;
    EXPECT_EQ(*back, data);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBases, MultibaseProperty,
    ::testing::Combine(
        ::testing::Values(multiformats::Multibase::kBase16,
                          multiformats::Multibase::kBase32,
                          multiformats::Multibase::kBase58Btc,
                          multiformats::Multibase::kBase64,
                          multiformats::Multibase::kBase64Url),
        ::testing::Values(1ULL, 2ULL, 3ULL)));

// --------------------------------------------------------------------------
// Varint: round trip + length monotonicity across magnitudes
// --------------------------------------------------------------------------

class VarintProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VarintProperty, RoundTripsAndIsMinimal) {
  sim::Rng rng(GetParam());
  std::size_t previous_length = 1;
  for (int bits = 0; bits < 63; ++bits) {
    const std::uint64_t value =
        (1ULL << bits) | (rng.next() & ((1ULL << bits) - 1));
    const auto encoded = multiformats::varint_encode(value);
    const auto decoded = multiformats::varint_decode(encoded);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->value, value);
    EXPECT_EQ(decoded->consumed, encoded.size());
    // Length never decreases with magnitude and matches ceil(bits/7).
    EXPECT_GE(encoded.size(), previous_length);
    EXPECT_EQ(encoded.size(), static_cast<std::size_t>(bits / 7) + 1);
    previous_length = encoded.size();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VarintProperty,
                         ::testing::Values(11ULL, 22ULL, 33ULL));

// --------------------------------------------------------------------------
// Ed25519: sign/verify over random seeds and message lengths
// --------------------------------------------------------------------------

class Ed25519Property : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Ed25519Property, SignVerifyAcrossMessageLengths) {
  sim::Rng rng(GetParam());
  crypto::Ed25519Seed seed{};
  for (auto& b : seed) b = static_cast<std::uint8_t>(rng.next());
  const auto keypair = crypto::ed25519_keypair(seed);

  for (const std::size_t length : {0u, 1u, 31u, 32u, 33u, 100u, 1000u}) {
    const auto message = random_bytes(length, rng.next());
    const auto signature = crypto::ed25519_sign(keypair, message);
    EXPECT_TRUE(crypto::ed25519_verify(keypair.public_key, message,
                                       signature));
    // Any single-bit flip in the message must invalidate the signature.
    if (!message.empty()) {
      auto tampered = message;
      tampered[tampered.size() / 2] ^= 0x01;
      EXPECT_FALSE(crypto::ed25519_verify(keypair.public_key, tampered,
                                          signature));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Ed25519Property,
                         ::testing::Values(101ULL, 202ULL, 303ULL));

// --------------------------------------------------------------------------
// DHT keys: XOR-metric axioms on random key triples
// --------------------------------------------------------------------------

class KeyMetricProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KeyMetricProperty, XorMetricAxioms) {
  sim::Rng rng(GetParam());
  for (int trial = 0; trial < 100; ++trial) {
    const dht::Key a = dht::Key::hash_of(random_bytes(16, rng.next()));
    const dht::Key b = dht::Key::hash_of(random_bytes(16, rng.next()));
    const dht::Key c = dht::Key::hash_of(random_bytes(16, rng.next()));

    // Identity and symmetry.
    const auto zero = a.distance_to(a);
    EXPECT_TRUE(std::all_of(zero.begin(), zero.end(),
                            [](std::uint8_t byte) { return byte == 0; }));
    EXPECT_EQ(a.distance_to(b), b.distance_to(a));

    // XOR "triangle equality": d(a,c) == d(a,b) XOR d(b,c).
    const auto ab = a.distance_to(b);
    const auto bc = b.distance_to(c);
    const auto ac = a.distance_to(c);
    for (int i = 0; i < 32; ++i) EXPECT_EQ(ac[i], ab[i] ^ bc[i]);

    // Unidirectionality: exactly one of a,b is closer to c (unless equal).
    if (a != b) {
      EXPECT_NE(a.closer_to(c, b), b.closer_to(c, a));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KeyMetricProperty,
                         ::testing::Values(5ULL, 6ULL, 7ULL));

// --------------------------------------------------------------------------
// Routing table: closest() agrees with brute force on random tables
// --------------------------------------------------------------------------

class RoutingTableProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RoutingTableProperty, ClosestMatchesBruteForce) {
  sim::Rng rng(GetParam());
  dht::PeerDirectory directory;
  dht::RoutingTable table(
      directory, dht::Key::for_peer(testutil::synthetic_peer_id(rng.next())));
  std::vector<dht::PeerRef> inserted;
  for (int i = 0; i < 300; ++i) {
    dht::PeerRef ref{testutil::synthetic_peer_id(rng.next()),
                     static_cast<sim::NodeId>(i),
                     {}};
    if (table.upsert(ref)) inserted.push_back(ref);
  }
  // Note: upsert may reject peers whose bucket is full; brute-force over
  // what the table actually holds.
  const auto held = table.all_peers();

  for (int trial = 0; trial < 10; ++trial) {
    const dht::Key target = dht::Key::hash_of(random_bytes(8, rng.next()));
    const auto closest = table.closest(target, 20);
    ASSERT_LE(closest.size(), 20u);

    // Brute force.
    auto expected = held;
    std::sort(expected.begin(), expected.end(),
              [&](const dht::PeerRef& x, const dht::PeerRef& y) {
                return dht::Key::for_peer(x.id).distance_to(target) <
                       dht::Key::for_peer(y.id).distance_to(target);
              });
    expected.resize(std::min<std::size_t>(20, expected.size()));
    ASSERT_EQ(closest.size(), expected.size());
    for (std::size_t i = 0; i < closest.size(); ++i)
      EXPECT_EQ(closest[i].id, expected[i].id) << "position " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutingTableProperty,
                         ::testing::Values(13ULL, 14ULL, 15ULL));

// --------------------------------------------------------------------------
// Merkle DAG: cat(import(x)) == x across sizes and chunk sizes, and
// block-count conservation
// --------------------------------------------------------------------------

using SizeAndChunk = std::tuple<std::size_t, std::size_t>;

class MerkleDagProperty : public ::testing::TestWithParam<SizeAndChunk> {};

TEST_P(MerkleDagProperty, ImportCatRoundTrip) {
  const auto [size, chunk_size] = GetParam();
  blockstore::BlockStore store;
  const auto data = random_bytes(size, size * 31 + chunk_size);
  const auto result = merkledag::import_bytes(store, data, chunk_size);
  EXPECT_EQ(merkledag::cat(store, result.root), data);

  // Chunk-count conservation.
  const std::size_t expected_chunks =
      data.empty() ? 1 : (data.size() + chunk_size - 1) / chunk_size;
  EXPECT_EQ(result.chunk_count, expected_chunks);

  // Every reachable block verifies against its CID.
  const auto cids = merkledag::enumerate(store, result.root);
  ASSERT_TRUE(cids.has_value());
  for (const auto& cid : *cids) {
    const auto block = store.get(cid);
    ASSERT_TRUE(block != nullptr);
    EXPECT_TRUE(cid.hash().verifies(*block));
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndChunks, MerkleDagProperty,
    ::testing::Combine(::testing::Values(0u, 1u, 255u, 256u, 257u, 4096u,
                                         100000u),
                       ::testing::Values(256u, 1024u)));

// --------------------------------------------------------------------------
// UnixFS trees: resolve(import(tree), path) finds every file
// --------------------------------------------------------------------------

class TreeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TreeProperty, EveryImportedFileResolves) {
  sim::Rng rng(GetParam());
  blockstore::BlockStore store;
  std::vector<merkledag::TreeFile> files;
  const char* const names[] = {"a", "bb", "ccc", "d-4", "e_5"};
  for (int i = 0; i < 12; ++i) {
    std::string path = names[rng.uniform_int(0, 4)];
    const int depth = static_cast<int>(rng.uniform_int(0, 3));
    for (int d = 0; d < depth; ++d)
      path += std::string("/") + names[rng.uniform_int(0, 4)];
    path += "/file" + std::to_string(i);
    files.push_back({path, random_bytes(
                               static_cast<std::size_t>(
                                   rng.uniform_int(1, 5000)),
                               rng.next())});
  }
  const auto root = merkledag::import_tree(store, files);
  ASSERT_TRUE(root.has_value());
  for (const auto& file : files) {
    const auto cid = merkledag::resolve_path(store, *root, file.path);
    ASSERT_TRUE(cid.has_value()) << file.path;
    EXPECT_EQ(merkledag::cat(store, *cid), file.content) << file.path;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeProperty,
                         ::testing::Values(41ULL, 42ULL, 43ULL));

// --------------------------------------------------------------------------
// Stats: CDF/percentile consistency on random samples
// --------------------------------------------------------------------------

class StatsProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StatsProperty, CdfAndPercentilesAgree) {
  sim::Rng rng(GetParam());
  std::vector<double> samples;
  for (int i = 0; i < 500; ++i) samples.push_back(rng.uniform(0, 1000));
  const stats::Cdf cdf(samples);

  for (const double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0}) {
    const double value = cdf.percentile(p);
    // at(percentile(p)) must bracket p/100 within one sample weight.
    const double fraction = cdf.at(value);
    EXPECT_GE(fraction, p / 100.0 - 0.01);
    EXPECT_LE(cdf.at(value - 1e-9), p / 100.0 + 0.01);
  }
  // Monotonicity of at().
  EXPECT_LE(cdf.at(100.0), cdf.at(500.0));
  EXPECT_LE(cdf.at(500.0), cdf.at(900.0));
}

INSTANTIATE_TEST_SUITE_P(Seeds, StatsProperty,
                         ::testing::Values(51ULL, 52ULL, 53ULL));

// --------------------------------------------------------------------------
// Multiaddr: parse(to_string(x)) == x over random well-formed addresses
// --------------------------------------------------------------------------

class MultiaddrProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MultiaddrProperty, TextAndBinaryRoundTrips) {
  sim::Rng rng(GetParam());
  for (int trial = 0; trial < 60; ++trial) {
    const std::string ip = std::to_string(rng.uniform_int(1, 254)) + "." +
                           std::to_string(rng.uniform_int(0, 255)) + "." +
                           std::to_string(rng.uniform_int(0, 255)) + "." +
                           std::to_string(rng.uniform_int(1, 254));
    const auto port = static_cast<std::uint16_t>(rng.uniform_int(1, 65535));
    const bool quic = rng.chance(0.5);
    const auto addr = quic ? multiformats::make_quic_multiaddr(ip, port)
                           : multiformats::make_tcp_multiaddr(ip, port);
    ASSERT_FALSE(addr.empty());

    const auto reparsed = multiformats::Multiaddr::parse(addr.to_string());
    ASSERT_TRUE(reparsed.has_value());
    EXPECT_EQ(*reparsed, addr);

    const auto decoded = multiformats::Multiaddr::decode(addr.encode());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, addr);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiaddrProperty,
                         ::testing::Values(61ULL, 62ULL, 63ULL));

}  // namespace
}  // namespace ipfs
