#include "crypto/sha256.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "crypto/sha256_compress.h"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace ipfs::crypto {
namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::array<std::uint32_t, 8> kInitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

std::uint32_t load_be32(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

void store_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

#if defined(__x86_64__)
// The SHA-NI path. Each function carries its own target attribute instead
// of the build passing -msha, so one binary runs on any x86-64 CPU and
// takes this path only where cpuid reports the extensions.
//
// The instructions keep the working variables as two vectors, ABEF and
// CDGH (A in the highest lane), and take the message four words at a time.
// w[g % 4] holds words 4g..4g+3 while rounds 4g..4g+3 run; the same step
// finishes words 4g+4.. (msg2) and starts words 4g+12.. (msg1).
template <int G>
__attribute__((target("sha,sse4.1,ssse3"), always_inline)) inline void
rounds_shani(__m128i& abef, __m128i& cdgh, __m128i (&w)[4]) {
  const __m128i wk = _mm_add_epi32(
      w[G % 4], _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                    kRoundConstants.data() + 4 * G)));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  if constexpr (G >= 3 && G <= 14) {
    __m128i& next = w[(G + 1) % 4];
    next = _mm_add_epi32(next, _mm_alignr_epi8(w[G % 4], w[(G + 3) % 4], 4));
    next = _mm_sha256msg2_epu32(next, w[G % 4]);
  }
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
  if constexpr (G >= 1 && G <= 12)
    w[(G + 3) % 4] = _mm_sha256msg1_epu32(w[(G + 3) % 4], w[G % 4]);
}

template <int... G>
__attribute__((target("sha,sse4.1,ssse3"), always_inline)) inline void
all_rounds_shani(__m128i& abef, __m128i& cdgh, __m128i (&w)[4],
                 std::integer_sequence<int, G...>) {
  (rounds_shani<G>(abef, cdgh, w), ...);
}

// The state stays in registers across the whole run of blocks.
__attribute__((target("sha,sse4.1,ssse3"))) void compress_shani(
    std::array<std::uint32_t, 8>& state, const std::uint8_t* data,
    std::size_t n_blocks) {
  // Swaps the bytes of each 32-bit lane: message words are big-endian.
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  const __m128i dcba =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state.data()));
  const __m128i hgfe =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state.data() + 4));
  const __m128i badc = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(badc, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, badc, 0xF0);

  for (; n_blocks > 0; --n_blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    // The block's four 16-byte quarters.
    const auto quarter = [data](int i) {
      return reinterpret_cast<const __m128i*>(data + 16 * i);
    };
    __m128i w[4] = {_mm_shuffle_epi8(_mm_loadu_si128(quarter(0)), bswap),
                    _mm_shuffle_epi8(_mm_loadu_si128(quarter(1)), bswap),
                    _mm_shuffle_epi8(_mm_loadu_si128(quarter(2)), bswap),
                    _mm_shuffle_epi8(_mm_loadu_si128(quarter(3)), bswap)};
    all_rounds_shani(abef, cdgh, w, std::make_integer_sequence<int, 16>{});
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state.data()),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state.data() + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}
#endif

// Chosen on first use, not at namespace scope: a hash run while another
// file's statics are being initialized must already find a path.
Sha256CompressFn compress_fn() {
  static const Sha256CompressFn fn = [] {
    const Sha256CompressFn hw = sha256_compress_hw();
    return hw != nullptr ? hw : &sha256_compress_scalar;
  }();
  return fn;
}

}  // namespace

void sha256_compress_scalar(std::array<std::uint32_t, 8>& state,
                            const std::uint8_t* data, std::size_t n_blocks) {
  for (; n_blocks > 0; --n_blocks, data += 64) {
    std::array<std::uint32_t, 64> w;
    for (int i = 0; i < 16; ++i) w[i] = load_be32(data + 4 * i);
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 = std::rotr(w[i - 15], 7) ^
                               std::rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = std::rotr(w[i - 2], 17) ^
                               std::rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    auto [a, b, c, d, e, f, g, h] = state;
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 =
          std::rotr(e, 6) ^ std::rotr(e, 11) ^ std::rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kRoundConstants[i] + w[i];
      const std::uint32_t s0 =
          std::rotr(a, 2) ^ std::rotr(a, 13) ^ std::rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

Sha256CompressFn sha256_compress_hw() {
#if defined(__x86_64__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0 ||
      (ecx & bit_SSSE3) == 0 || (ecx & bit_SSE4_1) == 0)
    return nullptr;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0 ||
      (ebx & bit_SHA) == 0)
    return nullptr;
  return &compress_shani;
#else
  return nullptr;
#endif
}

Sha256::Sha256() { reset(); }

void Sha256::reset() {
  state_ = kInitialState;
  total_bytes_ = 0;
  buffered_ = 0;
}

void Sha256::update(std::span<const std::uint8_t> data) {
  // An empty span may carry a null data(), which memcpy must not get.
  if (data.empty()) return;
  const Sha256CompressFn compress = compress_fn();
  total_bytes_ += data.size();
  if (buffered_ > 0) {
    const std::size_t take = std::min(data.size(), buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    data = data.subspan(take);
    if (buffered_ < buffer_.size()) return;
    compress(state_, buffer_.data(), 1);
    buffered_ = 0;
  }
  // Every whole block in one call, so the hardware path keeps the state in
  // registers across a whole chunk.
  const std::size_t blocks = data.size() / 64;
  if (blocks > 0) compress(state_, data.data(), blocks);
  buffered_ = data.size() % 64;
  std::memcpy(buffer_.data(), data.data() + blocks * 64, buffered_);
}

void Sha256::update(std::string_view data) {
  update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

Sha256Digest Sha256::finish() {
  // FIPS 180-4 padding: 0x80, zeros, then the bit length in the last eight
  // bytes of a block; a second block when fewer than nine bytes are free.
  const Sha256CompressFn compress = compress_fn();
  const std::uint64_t bit_length = total_bytes_ * 8;
  buffer_[buffered_++] = 0x80;
  if (buffered_ > 56) {
    std::memset(buffer_.data() + buffered_, 0, buffer_.size() - buffered_);
    compress(state_, buffer_.data(), 1);
    buffered_ = 0;
  }
  std::memset(buffer_.data() + buffered_, 0, 56 - buffered_);
  for (int i = 0; i < 8; ++i)
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_length >> (56 - 8 * i));
  compress(state_, buffer_.data(), 1);

  Sha256Digest digest;
  for (int i = 0; i < 8; ++i) store_be32(digest.data() + 4 * i, state_[i]);
  return digest;
}

Sha256Digest sha256(std::span<const std::uint8_t> data) {
  Sha256 ctx;
  ctx.update(data);
  return ctx.finish();
}

Sha256Digest sha256(std::string_view data) {
  Sha256 ctx;
  ctx.update(data);
  return ctx.finish();
}

std::string to_hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kAlphabet[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const std::uint8_t b : bytes) {
    out.push_back(kAlphabet[b >> 4]);
    out.push_back(kAlphabet[b & 0x0f]);
  }
  return out;
}

std::vector<std::uint8_t> from_hex(std::string_view hex) {
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    throw std::invalid_argument("invalid hex digit");
  };
  if (hex.size() % 2 != 0) throw std::invalid_argument("odd hex length");
  std::vector<std::uint8_t> out(hex.size() / 2);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>((nibble(hex[2 * i]) << 4) |
                                       nibble(hex[2 * i + 1]));
  }
  return out;
}

}  // namespace ipfs::crypto
