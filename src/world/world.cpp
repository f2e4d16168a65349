#include "world/world.h"

#include <algorithm>

#include "bitswap/bitswap.h"
#include "crypto/sha256.h"

namespace ipfs::world {

multiformats::PeerId synthetic_peer_id(std::uint64_t n) {
  std::uint8_t seed[9];
  for (int i = 0; i < 8; ++i) seed[i] = static_cast<std::uint8_t>(n >> (8 * i));
  seed[8] = 0x77;  // domain separation from other hash uses
  const auto digest = crypto::sha256(std::span<const std::uint8_t>(seed, 9));
  crypto::Ed25519PublicKey key;
  std::copy(digest.begin(), digest.end(), key.begin());
  return multiformats::PeerId::from_public_key(key);
}

World::World(const WorldConfig& config)
    : config_(config),
      latency_(default_latency_model()),
      population_(generate_population(config.population,
                                      sim::Rng(config.seed).fork("population"))),
      rng_(sim::Rng(config.seed).fork("world")) {
  network_ = std::make_unique<sim::Network>(simulator_, latency_, config.seed);
  churn_ = std::make_unique<sim::ChurnProcess>(*network_, config.seed);
  // Designate the first bootstrap_count peers as the canonical bootstrap
  // nodes: stable, dialable, well provisioned, placed alternately in the
  // US and DE.
  for (std::size_t i = 0;
       i < std::min(config_.bootstrap_count, population_.peers.size()); ++i) {
    PeerProfile& peer = population_.peers[i];
    peer.dialable = true;
    peer.stable = true;
    peer.transport = sim::Transport::kTcp;
    peer.country = country_index(i % 2 == 0 ? "US" : "DE");
  }

  build_nodes();
  build_hydras();
  build_indexers();
  seed_routing_tables();
  if (config_.enable_churn) start_churn();
}

void World::build_nodes() {
  const auto& country_list = countries();
  dht_nodes_.reserve(population_.peers.size());
  for (std::size_t i = 0; i < population_.peers.size(); ++i) {
    const PeerProfile& peer = population_.peers[i];
    sim::NodeConfig config;
    config.region = country_list[peer.country].region;
    config.dialable = peer.dialable;
    config.transport = peer.transport;
    config.dial_success_prob =
        peer.stable ? 1.0 : config_.population.dial_success_prob;
    if (!peer.dialable && config_.dcutr_share > 0.0 &&
        rng_.chance(config_.dcutr_share)) {
      // NAT'ed peer reachable through a relay (DCUtR extension).
      config.relay = static_cast<sim::NodeId>(i % config_.bootstrap_count);
    }
    if (peer.stable) {
      config.upload_bytes_per_sec = 40.0 * 1024 * 1024;
      config.download_bytes_per_sec = 40.0 * 1024 * 1024;
    } else {
      config.upload_bytes_per_sec = rng_.uniform(1.0, 6.0) * 1024 * 1024;
      config.download_bytes_per_sec = rng_.uniform(4.0, 16.0) * 1024 * 1024;
    }

    transport::SimTransport& endpoint =
        endpoints_.emplace_back(*network_, config);
    std::vector<multiformats::Multiaddr> addresses;
    for (const auto& ip : peer.ips)
      addresses.push_back(multiformats::make_tcp_multiaddr(ip, 4001));

    auto dht = std::make_unique<dht::DhtNode>(
        endpoint, synthetic_peer_id(i), std::move(addresses),
        /*shared_store=*/nullptr, &directory_);
    dht->force_mode(dht::DhtNode::Mode::kServer);
    dht->attach_to_network();

    // World peers also speak Bitswap: they hold no third-party content,
    // so every probe gets a prompt DONT_HAVE (real peers answer rather
    // than time out).
    dht::DhtNode* dht_raw = dht.get();
    endpoint.set_request_handler(
        [dht_raw](sim::NodeId from, const sim::MessagePtr& message,
                  auto respond) {
          if (dht_raw->handle_request(from, message, respond)) return;
          bitswap::Bitswap::answer_holding_nothing(message, respond);
        });
    dht_nodes_.push_back(std::move(dht));
  }
}

void World::build_hydras() {
  // Hydra boosters: each machine runs many always-on DHT server heads
  // whose PeerIDs scatter across the key space, all answering from one
  // shared record store. A record stored with any head becomes
  // retrievable through every head.
  for (std::size_t h = 0; h < config_.hydra_count; ++h) {
    hydra_stores_.push_back(std::make_unique<dht::RecordStore>());
    dht::RecordStore* shared = hydra_stores_.back().get();
    for (std::size_t head = 0; head < config_.hydra_heads; ++head) {
      sim::NodeConfig config;
      config.region = static_cast<int>(h % kRegionCount);
      config.dialable = true;
      config.upload_bytes_per_sec = 100.0 * 1024 * 1024;
      config.download_bytes_per_sec = 100.0 * 1024 * 1024;
      transport::SimTransport& endpoint =
          endpoints_.emplace_back(*network_, config);
      const std::uint64_t identity =
          0x48595200000000ULL + h * 4096 + head;  // 'HYR' prefix
      auto dht = std::make_unique<dht::DhtNode>(
          endpoint, synthetic_peer_id(identity),
          std::vector<multiformats::Multiaddr>{
              multiformats::make_tcp_multiaddr("44.0.0.1", 4001)},
          shared, &directory_);
      dht->force_mode(dht::DhtNode::Mode::kServer);
      dht->attach_to_network();
      dht_nodes_.push_back(std::move(dht));
    }
  }
}

void World::build_indexers() {
  // Network indexers: stable infrastructure appended after the
  // population (and hydras), so they are exempt from churn and their
  // presence never shifts the population's node ids or rng draws. Placed
  // round-robin across regions like hydras.
  for (std::size_t i = 0; i < config_.indexer_count; ++i) {
    indexer::IndexerConfig config = config_.indexer;
    config.net.region = static_cast<int>(i % kRegionCount);
    config.net.dialable = true;
    indexers_.push_back(std::make_unique<indexer::Indexer>(
        endpoints_.emplace_back(*network_, config.net), config));
  }
}

routing::RoutingConfig World::routing_config(
    routing::RoutingConfig::Mode mode) const {
  routing::RoutingConfig config;
  config.mode = mode;
  for (const auto& ix : indexers_) config.indexers.push_back(ix->node());
  return config;
}

void World::seed_routing_tables() {
  // Pre-converge the swarm: fill each peer's k-buckets with structurally
  // correct entries (peers at common-prefix-length b land in bucket b),
  // as a long-running network's tables would look. Offline and NAT'ed
  // peers are seeded too — the table staleness real lookups contend with.
  using Entry = dht::RoutingTable::Entry;
  std::vector<Entry> sorted;
  sorted.reserve(dht_nodes_.size());
  for (const auto& node : dht_nodes_) {
    const dht::Key& key = node->routing_table().local_key();
    sorted.push_back({key, directory_.intern(node->self(), key)});
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const Entry& a, const Entry& b) { return a.key < b.key; });

  // [first, last) of the sorted entries sharing the first `bits` bits of
  // key, given `within`, the range sharing its first bits - 1. Those agree
  // on all earlier bits, so sorting put the ones whose next bit is 0
  // first: one partition point splits them.
  using Range = std::pair<std::size_t, std::size_t>;
  const auto narrow = [&](const dht::Key& key, int bits, Range within) {
    const int bit = bits - 1;
    const auto bit_of = [bit](const dht::Key& k) {
      return (k.bytes()[bit / 8] >> (7 - bit % 8)) & 1;
    };
    const auto split = static_cast<std::size_t>(
        std::partition_point(
            sorted.begin() + within.first, sorted.begin() + within.second,
            [&](const Entry& entry) { return bit_of(entry.key) == 0; }) -
        sorted.begin());
    return bit_of(key) == 0 ? Range(within.first, split)
                            : Range(split, within.second);
  };

  struct BucketRange {
    std::size_t outer_lo, outer_hi, inner_lo, inner_hi, total;
  };
  std::vector<Range> levels;
  std::vector<BucketRange> buckets;
  std::vector<std::size_t> alloc;
  std::vector<std::size_t> reserve;
  std::vector<std::pair<std::size_t, std::size_t>> moved;  // pos -> t
  const std::size_t budget = config_.max_routing_entries;

  for (const auto& node : dht_nodes_) {
    dht::RoutingTable& table = node->routing_table();
    const dht::Key& key = table.local_key();

    levels.assign(1, {0, sorted.size()});  // the empty prefix
    for (int bits = 1; bits <= 256; ++bits) {
      const Range range = narrow(key, bits, levels.back());
      levels.push_back(range);
      if (range.second - range.first <= 1) break;
    }

    // Per-bucket candidate counts, deepest bucket first (the draw order
    // below). Bucket (depth-1) holds entries sharing depth-1 bits but
    // differing at bit depth-1: levels[depth-1] minus levels[depth].
    buckets.clear();
    for (std::size_t depth = levels.size(); depth-- > 1;) {
      const auto [outer_lo, outer_hi] = levels[depth - 1];
      const auto [inner_lo, inner_hi] = levels[depth];
      buckets.push_back({outer_lo, outer_hi, inner_lo, inner_hi,
                         (outer_hi - outer_lo) - (inner_hi - inner_lo)});
    }

    // Split the entry budget across buckets. Unbounded, every bucket
    // gets its full k = 20. When the budget binds (large worlds with a
    // capped max_routing_entries), a deepest-first greedy would spend
    // everything inside the node's own aligned prefix block — every
    // entry then points at a near neighbour, no table links distant
    // subtrees, and a crawl BFS shatters into ~n/2^b islands. So first
    // reserve a couple of long-range entries in every occupied bucket,
    // then pour the remainder into the deepest buckets (closest
    // neighbours matter most for closest-peer correctness).
    constexpr std::size_t kLongRangeReserve = 2;
    alloc.assign(buckets.size(), 0);
    std::size_t want = 0;
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      alloc[b] = std::min(buckets[b].total, dht::kBucketSize);
      want += alloc[b];
    }
    if (want > budget) {
      reserve.assign(buckets.size(), 0);
      std::size_t reserved = 0;
      for (std::size_t b = 0; b < buckets.size(); ++b) {
        reserve[b] = std::min(alloc[b], kLongRangeReserve);
        reserved += reserve[b];
      }
      if (reserved >= budget) {
        // Tiny budget: one entry per bucket, shallowest (longest-range)
        // first, round-robin until the budget is gone.
        std::fill(alloc.begin(), alloc.end(), 0);
        std::size_t left = budget;
        for (std::size_t round = 0; left > 0; ++round) {
          bool granted = false;
          for (std::size_t b = buckets.size(); b-- > 0 && left > 0;) {
            if (alloc[b] < reserve[b]) {
              ++alloc[b];
              --left;
              granted = true;
            }
          }
          if (!granted) break;
        }
      } else {
        std::size_t left = budget - reserved;
        for (std::size_t b = 0; b < buckets.size(); ++b) {
          const std::size_t extra = std::min(alloc[b] - reserve[b], left);
          alloc[b] = reserve[b] + extra;
          left -= extra;
        }
      }
    }

    // The table lists buckets shallowest first, so the deepest bucket,
    // drawn first, fills the tail of the vector.
    std::size_t end = 0;
    for (const std::size_t take : alloc) end += take;
    std::vector<Entry> entries(end);
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      // The candidate set is [outer_lo, outer_hi) minus [inner_lo,
      // inner_hi): two contiguous runs of the sorted array, addressable
      // by arithmetic. Materializing it would cost O(n) per node (the
      // bucket-0 set is half the network), turning world construction
      // quadratic; at 100k peers that is the difference between
      // milliseconds and minutes.
      const auto [outer_lo, outer_hi, inner_lo, inner_hi, total] = buckets[b];
      const std::size_t take = alloc[b];
      if (take == 0) continue;
      end -= take;
      const std::size_t left_len = inner_lo - outer_lo;
      const auto candidate_at = [&](std::size_t t) {
        return t < left_len ? outer_lo + t : inner_hi + (t - left_len);
      };
      // Uniform sample without replacement: the same partial
      // Fisher-Yates the dense version ran, with the handful of
      // displaced positions tracked in a sparse overlay so the draw
      // sequence (and therefore every seeded world) is unchanged.
      moved.clear();
      const auto value_at = [&](std::size_t pos) {
        for (const auto& [p, t] : moved)
          if (p == pos) return t;
        return candidate_at(pos);
      };
      const auto set_at = [&](std::size_t pos, std::size_t t) {
        for (auto& [p, existing] : moved) {
          if (p == pos) {
            existing = t;
            return;
          }
        }
        moved.emplace_back(pos, t);
      };
      for (std::size_t pick = 0; pick < take; ++pick) {
        const std::size_t swap_with = pick + static_cast<std::size_t>(
            rng_.uniform_int(0,
                             static_cast<std::int64_t>(total - pick) - 1));
        const std::size_t chosen = value_at(swap_with);
        set_at(swap_with, value_at(pick));
        entries[end + pick] = sorted[chosen];
      }
    }
    table.assign(std::move(entries));
  }
}

void World::start_churn() {
  for (std::size_t i = 0; i < population_.peers.size(); ++i) {
    const PeerProfile& peer = population_.peers[i];
    if (peer.stable) continue;       // bootstrap/cloud peers stay up
    if (!peer.dialable) continue;    // permanently unreachable either way
    churn_->manage(dht_nodes_[i]->node(), peer.session_median_minutes,
                   peer.offline_median_minutes);
  }
}

std::vector<dht::PeerRef> World::bootstrap_refs() const {
  std::vector<dht::PeerRef> out;
  for (std::size_t i = 0;
       i < std::min(config_.bootstrap_count, dht_nodes_.size()); ++i)
    out.push_back(dht_nodes_[i]->self());
  return out;
}

double World::online_fraction() const {
  std::size_t online = 0;
  for (const auto& node : dht_nodes_)
    if (network_->online(node->node())) ++online;
  return static_cast<double>(online) / static_cast<double>(dht_nodes_.size());
}

}  // namespace ipfs::world
