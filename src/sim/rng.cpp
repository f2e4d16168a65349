#include "sim/rng.h"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace ipfs::sim {
namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// FNV-1a over the stream name, mixed into the fork seed.
std::uint64_t hash_name(std::string_view name) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : name) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

Rng::Rng(std::uint64_t seed) : seed_(seed) {
  std::uint64_t sm = seed;
  for (auto& s : state_) s = splitmix64(sm);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next() % span);
}

bool Rng::chance(double probability) { return uniform() < probability; }

Duration uniform_duration(Rng& rng, Duration lo, Duration hi) {
  if (hi <= lo) return lo;
  return lo + static_cast<Duration>(rng.uniform(0.0, 1.0) *
                                    static_cast<double>(hi - lo));
}

double Rng::exponential(double mean) {
  double u = uniform();
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

double Rng::normal(double mean, double stddev) {
  if (have_gauss_) {
    have_gauss_ = false;
    return mean + stddev * gauss_spare_;
  }
  // Box–Muller.
  double u1 = uniform();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  gauss_spare_ = r * std::sin(theta);
  have_gauss_ = true;
  return mean + stddev * r * std::cos(theta);
}

double Rng::lognormal_median(double median, double sigma) {
  return median * std::exp(normal(0.0, sigma));
}

std::uint64_t Rng::zipf(std::uint64_t n, double s) {
  // Inverse of the continuous approximation of the Zipf CDF. Exact enough
  // for workload popularity modelling; handles s == 1 as a special case.
  const double u = uniform();
  double x;
  if (std::abs(s - 1.0) < 1e-9) {
    x = std::pow(static_cast<double>(n) + 1.0, u);
  } else {
    const double total =
        (std::pow(static_cast<double>(n) + 1.0, 1.0 - s) - 1.0) / (1.0 - s);
    x = std::pow(1.0 + u * total * (1.0 - s), 1.0 / (1.0 - s));
  }
  const auto rank = static_cast<std::uint64_t>(x);
  return std::clamp<std::uint64_t>(rank, 1, n);
}

Rng Rng::fork(std::string_view name) const {
  return Rng(seed_ ^ hash_name(name) ^ 0x5851f42d4c957f2dULL);
}

}  // namespace ipfs::sim
