// Crypto substrate tests: FIPS 180-4 vectors for SHA-256/512 and RFC 8032
// vectors for Ed25519. SHA-256's scalar and hardware compress paths are
// also driven directly and checked against each other; the hardware cases
// skip on a CPU without the SHA extensions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "crypto/ed25519.h"
#include "crypto/sha256.h"
#include "crypto/sha256_compress.h"
#include "crypto/sha512.h"

namespace ipfs::crypto {
namespace {

std::vector<std::uint8_t> bytes_of(std::string_view s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

constexpr std::string_view kAbcDigest =
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad";

// Hashed by a namespace-scope initializer, before main() runs: Sha256 must
// find its compress path whichever of this file's statics and crypto's the
// link initializes first.
const Sha256Digest kAbcHashedDuringStaticInit = sha256("abc");

TEST(Sha256Test, EmptyInput) {
  EXPECT_EQ(to_hex(sha256("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(to_hex(sha256("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(to_hex(sha256(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 ctx;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  EXPECT_EQ(to_hex(ctx.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const std::string data(300, 'x');
  // Split the input at every possible point; digests must agree.
  for (std::size_t split = 0; split <= data.size(); split += 37) {
    Sha256 ctx;
    ctx.update(std::string_view(data).substr(0, split));
    ctx.update(std::string_view(data).substr(split));
    EXPECT_EQ(ctx.finish(), sha256(data)) << "split=" << split;
  }
}

TEST(Sha256Test, ResetReusesContext) {
  Sha256 ctx;
  ctx.update("garbage");
  ctx.reset();
  ctx.update("abc");
  EXPECT_EQ(to_hex(ctx.finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, HashesDuringStaticInitialization) {
  EXPECT_EQ(to_hex(kAbcHashedDuringStaticInit), kAbcDigest);
}

// One compress path's digest of `data`: all whole blocks straight from
// `data` in one call, then the padded tail in one more. It pads by itself,
// so it is also a reference for Sha256's buffering and padding.
Sha256Digest digest_with(Sha256CompressFn compress,
                         std::span<const std::uint8_t> data) {
  std::array<std::uint32_t, 8> state = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                        0xa54ff53a, 0x510e527f, 0x9b05688c,
                                        0x1f83d9ab, 0x5be0cd19};
  const std::size_t whole = data.size() / 64;
  if (whole > 0) compress(state, data.data(), whole);
  const std::size_t rest = data.size() % 64;
  std::array<std::uint8_t, 128> tail{};
  if (rest > 0) std::memcpy(tail.data(), data.data() + whole * 64, rest);
  tail[rest] = 0x80;
  const std::size_t tail_blocks = rest < 56 ? 1 : 2;
  const std::uint64_t bits = std::uint64_t{data.size()} * 8;
  for (std::size_t i = 0; i < 8; ++i)
    tail[tail_blocks * 64 - 1 - i] = static_cast<std::uint8_t>(bits >> (8 * i));
  compress(state, tail.data(), tail_blocks);
  Sha256Digest digest;
  for (std::size_t i = 0; i < digest.size(); ++i)
    digest[i] = static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  return digest;
}

void expect_fips_vectors(Sha256CompressFn compress) {
  const struct {
    std::string message;
    std::string_view digest;
  } vectors[] = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc", kAbcDigest},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {std::string(1000000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
  for (const auto& vec : vectors) {
    EXPECT_EQ(to_hex(digest_with(compress, bytes_of(vec.message))), vec.digest)
        << vec.message.size() << "-byte message";
  }
}

TEST(Sha256CompressTest, ScalarMatchesFipsVectors) {
  expect_fips_vectors(&sha256_compress_scalar);
}

TEST(Sha256CompressTest, HardwareMatchesFipsVectors) {
  const Sha256CompressFn hw = sha256_compress_hw();
  if (hw == nullptr) GTEST_SKIP() << "this CPU lacks the SHA extensions";
  expect_fips_vectors(hw);
}

// Every tail length, a run of up to 64 whole blocks, and each start offset
// an unaligned load can see.
TEST(Sha256CompressTest, PathsAgreeOnEveryLengthAndOffset) {
  const Sha256CompressFn hw = sha256_compress_hw();
  if (hw == nullptr) GTEST_SKIP() << "this CPU lacks the SHA extensions";
  const auto buffer = random_bytes(4096 + 7, 1);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 4096; ++length) {
      const std::span<const std::uint8_t> data(buffer.data() + offset, length);
      ASSERT_EQ(digest_with(hw, data),
                digest_with(&sha256_compress_scalar, data))
          << "offset " << offset << ", length " << length;
    }
  }
}

TEST(Sha256CompressTest, PathsAgreeOnRunsFromRandomStates) {
  const Sha256CompressFn hw = sha256_compress_hw();
  if (hw == nullptr) GTEST_SKIP() << "this CPU lacks the SHA extensions";
  std::mt19937_64 rng(2);
  for (std::size_t n_blocks = 1; n_blocks <= 8; ++n_blocks) {
    for (int trial = 0; trial < 16; ++trial) {
      std::array<std::uint32_t, 8> scalar_state;
      for (auto& word : scalar_state) word = static_cast<std::uint32_t>(rng());
      auto hw_state = scalar_state;
      const auto data = random_bytes(n_blocks * 64, rng());
      sha256_compress_scalar(scalar_state, data.data(), n_blocks);
      hw(hw_state, data.data(), n_blocks);
      ASSERT_EQ(hw_state, scalar_state)
          << n_blocks << " blocks, trial " << trial;
    }
  }
}

// Sha256 runs the path this CPU picked. Fed in random pieces, its
// buffering and padding must give the scalar reference's digest: every
// tail length up to 200 bytes, then inputs up to 300 KiB.
TEST(Sha256Test, UpdateSplitAtRandomPointsMatchesScalar) {
  std::mt19937_64 rng(3);
  for (std::size_t trial = 0; trial < 220; ++trial) {
    const std::size_t length = trial < 200 ? trial : rng() % (300 * 1024);
    const std::size_t max_piece = trial < 200 ? 150 : 70 * 1024;
    const auto data = random_bytes(length, rng());
    Sha256 ctx;
    for (std::size_t pos = 0; pos < length;) {
      const std::size_t piece =
          std::min<std::size_t>(length - pos, rng() % (max_piece + 1));
      ctx.update(std::span(data).subspan(pos, piece));
      pos += piece;
    }
    ASSERT_EQ(ctx.finish(), digest_with(&sha256_compress_scalar, data))
        << "length " << length;
  }
}

TEST(Sha512Test, EmptyInput) {
  EXPECT_EQ(to_hex(sha512("")),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
            "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e");
}

TEST(Sha512Test, Abc) {
  EXPECT_EQ(to_hex(sha512("abc")),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
}

TEST(Sha512Test, TwoBlockMessage) {
  EXPECT_EQ(
      to_hex(sha512("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                    "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")),
      "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
      "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909");
}

Ed25519Seed seed_from_hex(std::string_view hex) {
  const auto bytes = from_hex(hex);
  Ed25519Seed seed;
  std::copy(bytes.begin(), bytes.end(), seed.begin());
  return seed;
}

struct Rfc8032Vector {
  std::string seed_hex;
  std::string public_hex;
  std::string message_hex;
  std::string signature_hex;
};

// Without this, gtest prints the vector as raw bytes, heap pointers included,
// and ctest names each case after that print, so the names changed per build.
void PrintTo(const Rfc8032Vector& vec, std::ostream* os) {
  *os << "seed " << vec.seed_hex.substr(0, 16);
}

class Ed25519Rfc8032Test : public ::testing::TestWithParam<Rfc8032Vector> {};

TEST_P(Ed25519Rfc8032Test, KeyDerivationSignAndVerify) {
  const auto& vec = GetParam();
  const auto kp = ed25519_keypair(seed_from_hex(vec.seed_hex));
  EXPECT_EQ(to_hex(kp.public_key), vec.public_hex);

  const auto message = from_hex(vec.message_hex);
  const auto sig = ed25519_sign(kp, message);
  EXPECT_EQ(to_hex(sig), vec.signature_hex);
  EXPECT_TRUE(ed25519_verify(kp.public_key, message, sig));
}

INSTANTIATE_TEST_SUITE_P(
    Rfc8032Vectors, Ed25519Rfc8032Test,
    ::testing::Values(
        Rfc8032Vector{
            "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
            "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
            "",
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
            "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"},
        Rfc8032Vector{
            "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
            "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
            "72",
            "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
            "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"},
        Rfc8032Vector{
            "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
            "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
            "af82",
            "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
            "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"}));

TEST(Ed25519Test, RejectsTamperedMessage) {
  const auto kp = ed25519_keypair(seed_from_hex(
      "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60"));
  const auto message = bytes_of("original message");
  const auto sig = ed25519_sign(kp, message);
  auto tampered = message;
  tampered[0] ^= 1;
  EXPECT_TRUE(ed25519_verify(kp.public_key, message, sig));
  EXPECT_FALSE(ed25519_verify(kp.public_key, tampered, sig));
}

TEST(Ed25519Test, RejectsTamperedSignature) {
  const auto kp = ed25519_keypair(seed_from_hex(
      "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb"));
  const auto message = bytes_of("hello ipfs");
  auto sig = ed25519_sign(kp, message);
  sig[10] ^= 0x40;
  EXPECT_FALSE(ed25519_verify(kp.public_key, message, sig));
}

TEST(Ed25519Test, RejectsWrongKey) {
  const auto kp1 = ed25519_keypair(seed_from_hex(
      "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60"));
  const auto kp2 = ed25519_keypair(seed_from_hex(
      "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7"));
  const auto message = bytes_of("key confusion");
  const auto sig = ed25519_sign(kp1, message);
  EXPECT_FALSE(ed25519_verify(kp2.public_key, message, sig));
}

TEST(Ed25519Test, RejectsNonCanonicalS) {
  const auto kp = ed25519_keypair(seed_from_hex(
      "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60"));
  const auto message = bytes_of("strict verification");
  auto sig = ed25519_sign(kp, message);
  // Force S into the non-canonical range by setting its top bits.
  sig[63] |= 0xf0;
  EXPECT_FALSE(ed25519_verify(kp.public_key, message, sig));
}

TEST(Ed25519Test, SignaturesAreDeterministic) {
  const auto kp = ed25519_keypair(seed_from_hex(
      "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7"));
  const auto message = bytes_of("same input, same signature");
  EXPECT_EQ(ed25519_sign(kp, message), ed25519_sign(kp, message));
}

TEST(HexTest, RoundTrip) {
  const auto bytes = from_hex("00ff10ab");
  EXPECT_EQ(to_hex(bytes), "00ff10ab");
  EXPECT_THROW(from_hex("0"), std::invalid_argument);
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);
}

}  // namespace
}  // namespace ipfs::crypto
