// Deterministic random number generation for the simulator.
//
// Every source of randomness forks a named stream from the run seed, so
// adding a new consumer never perturbs the draws of existing ones and every
// experiment is exactly reproducible from its printed seed.
#pragma once

#include <bit>
#include <cstdint>
#include <string_view>

#include "sim/time.h"

namespace ipfs::sim {

// xoshiro256** seeded via splitmix64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  // One xoshiro256** step. Inline: bulk byte generation (catalog objects,
  // bench payloads) calls it once per 8 bytes.
  std::uint64_t next() {
    const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = std::rotl(state_[3], 45);
    return result;
  }

  // Uniform double in [0, 1).
  double uniform();
  double uniform(double lo, double hi);

  // Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  bool chance(double probability);

  double exponential(double mean);
  double normal(double mean, double stddev);
  // Log-normal parameterized by the median and sigma of log-space.
  double lognormal_median(double median, double sigma);

  // Zipf-distributed rank in [1, n] with exponent s (rejection sampling).
  std::uint64_t zipf(std::uint64_t n, double s);

  // Derives an independent stream for `name`; deterministic in (seed, name).
  Rng fork(std::string_view name) const;

 private:
  std::uint64_t state_[4];
  std::uint64_t seed_;
  bool have_gauss_ = false;
  double gauss_spare_ = 0.0;
};

// Uniform duration in [lo, hi); hi <= lo yields lo without a draw.
Duration uniform_duration(Rng& rng, Duration lo, Duration hi);

}  // namespace ipfs::sim
