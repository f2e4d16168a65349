// SHA-256 (FIPS 180-4). CIDs and DHT keys hash through this implementation,
// which runs on the x86 SHA extensions when the CPU has them and on portable
// scalar code otherwise; both give the same digests.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace ipfs::crypto {

using Sha256Digest = std::array<std::uint8_t, 32>;

// Incremental SHA-256 context. Usable for streaming inputs (chunked files)
// as well as one-shot hashing via the free function below.
class Sha256 {
 public:
  Sha256();

  void update(std::span<const std::uint8_t> data);
  void update(std::string_view data);

  // Finalizes and returns the digest. The context must not be reused
  // afterwards without calling reset().
  Sha256Digest finish();

  void reset();

 private:
  std::array<std::uint32_t, 8> state_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::uint64_t total_bytes_ = 0;
  std::size_t buffered_ = 0;
};

Sha256Digest sha256(std::span<const std::uint8_t> data);
Sha256Digest sha256(std::string_view data);

// Hex rendering used by tests and debug output.
std::string to_hex(std::span<const std::uint8_t> bytes);
std::vector<std::uint8_t> from_hex(std::string_view hex);

}  // namespace ipfs::crypto
