// SHA-256's compression function, one implementation per instruction set.
// Private to crypto: Sha256 picks a path once, on first use, and the tests
// call each path directly. Callers outside crypto use crypto/sha256.h.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace ipfs::crypto {

// Folds `n_blocks` consecutive 64-byte blocks at `data` into `state`. The
// data need not be aligned.
using Sha256CompressFn = void (*)(std::array<std::uint32_t, 8>& state,
                                  const std::uint8_t* data,
                                  std::size_t n_blocks);

// The FIPS 180-4 rounds in portable C++: the fallback on every host, and
// the reference the hardware path is tested against.
void sha256_compress_scalar(std::array<std::uint32_t, 8>& state,
                            const std::uint8_t* data, std::size_t n_blocks);

// The x86 SHA extensions path (sha256rnds2, sha256msg1, sha256msg2), or
// null when this CPU lacks them. A query, not a switch: Sha256 runs this
// path whenever it is non-null.
Sha256CompressFn sha256_compress_hw();

}  // namespace ipfs::crypto
