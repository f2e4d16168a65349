#include "workload/gateway_workload.h"

#include <bit>
#include <cmath>
#include <cstring>
#include <numbers>

#include "gateway/fleet.h"
#include "world/geography.h"

namespace ipfs::workload {
namespace {

// Zipf exponent of content popularity.
constexpr double kZipfExponent = 1.0;
// Log-space spread of object sizes around the median (Figure 11a).
constexpr double kSizeSigma = 0.9;
// Diurnal modulation depth (Figure 4b's swing around the mean rate).
constexpr double kDiurnalDepth = 0.45;

}  // namespace

GatewayWorkload::GatewayWorkload(const GatewayWorkloadConfig& config,
                                 sim::Rng rng)
    : config_(config), rng_(rng) {
  // Catalog: sizes are drawn up front so hosts can import the objects.
  catalog_.reserve(config_.catalog_size);
  sim::Rng size_rng = rng_.fork("sizes");
  for (std::size_t i = 0; i < config_.catalog_size; ++i) {
    CatalogObject object;
    object.size = std::min<std::uint64_t>(
        config_.size_cap_bytes,
        static_cast<std::uint64_t>(size_rng.lognormal_median(
            config_.size_median_bytes, kSizeSigma)));
    object.size = std::max<std::uint64_t>(object.size, 1024);
    object.pinned = size_rng.uniform() < config_.pinned_share;
    catalog_.push_back(object);
  }

  for (const auto& country : world::countries())
    country_weights_.push_back(country.gateway_user_share);
}

std::vector<std::uint8_t> GatewayWorkload::object_bytes(
    std::size_t rank) const {
  // Deterministic pseudo-random content: same rank, same bytes, so the
  // CID computed anywhere matches. Each whole 8 bytes hold one RNG word,
  // least significant byte first; a ragged tail stays zero.
  sim::Rng content(0xC0FFEEu + static_cast<std::uint64_t>(rank) * 7919);
  std::vector<std::uint8_t> out(catalog_[rank].size);
  // Whole-word stores through a local pointer: byte stores through out[]
  // may alias the vector's own data pointer, which makes the compiler
  // reload it before every byte.
  std::uint8_t* const data = out.data();
  const std::size_t words = out.size() / 8;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t word = content.next();
    if constexpr (std::endian::native == std::endian::big)
      word = __builtin_bswap64(word);
    std::memcpy(data + 8 * w, &word, sizeof word);
  }
  return out;
}

double GatewayWorkload::rate_multiplier(sim::Time t) const {
  // Double-peaked diurnal curve (Figure 4b): the mean rate modulated by
  // a fundamental plus a half-day harmonic.
  const double day_fraction =
      static_cast<double>(t % sim::hours(24)) /
      static_cast<double>(sim::hours(24));
  const double angle = 2.0 * std::numbers::pi * day_fraction;
  const double wave = 0.7 * std::sin(angle - 1.2) + 0.3 * std::sin(2 * angle);
  return std::max(0.1, 1.0 + kDiurnalDepth * wave);
}

std::size_t GatewayWorkload::pick_rank() {
  return static_cast<std::size_t>(rng_.zipf(catalog_.size(), kZipfExponent)) -
         1;
}

int GatewayWorkload::pick_country() {
  double total = 0.0;
  for (const double w : country_weights_) total += w;
  double x = rng_.uniform() * total;
  for (std::size_t i = 0; i < country_weights_.size(); ++i) {
    x -= country_weights_[i];
    if (x <= 0.0) return static_cast<int>(i);
  }
  return 0;
}

void GatewayWorkload::run(gateway::Gateway& gateway) {
  run_with(gateway.node().transport(),
           [&gateway](const multiformats::Cid& cid,
                      std::function<void(gateway::GatewayResponse)> done) {
             gateway.handle_get(cid, std::move(done));
           });
}

void GatewayWorkload::run(gateway::GatewayFleet& fleet) {
  run_with(fleet.replica(0).node().transport(),
           [&fleet](const multiformats::Cid& cid,
                    std::function<void(gateway::GatewayResponse)> done) {
             fleet.handle_get(cid, std::move(done));
           });
}

void GatewayWorkload::run_with(transport::Transport& transport,
                               RequestFn request) {
  transport_ = &transport;
  request_ = std::move(request);
  log_.clear();
  log_.reserve(config_.requests_total);
  schedule_next(0);
}

void GatewayWorkload::schedule_next(std::uint64_t issued) {
  if (issued >= config_.requests_total) return;

  // Non-homogeneous Poisson arrivals: the base inter-arrival time is
  // stretched or squeezed by the diurnal rate multiplier.
  const double base_gap_us =
      static_cast<double>(config_.duration) /
      static_cast<double>(config_.requests_total);
  const double gap =
      rng_.exponential(base_gap_us / rate_multiplier(transport_->now()));

  transport_->schedule_after(
      static_cast<sim::Duration>(gap), [this, issued] {
        const std::size_t rank = pick_rank();
        const int country = pick_country();
        const sim::Time issued_at = transport_->now();
        request_(
            catalog_[rank].cid,
            [this, rank, country, issued_at](gateway::GatewayResponse r) {
              RequestLogEntry entry;
              entry.timestamp = issued_at;
              entry.user_country = country;
              entry.catalog_rank = rank;
              entry.source = r.source;
              entry.latency = r.latency;
              entry.bytes = r.bytes;
              log_.push_back(entry);
            });
        schedule_next(issued + 1);
      });
}

}  // namespace ipfs::workload
