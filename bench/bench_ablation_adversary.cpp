// Ablation: adversarial resilience — eclipse/Sybil/flash-crowd attacks
// with the defense stack toggled (docs/ADVERSARY.md).
//
// Henningsen et al.'s measurements of the public IPFS DHT showed that
// node IDs are free and the keyspace is cheaply enumerable, so a handful
// of machines can occupy the XOR neighborhood of a chosen CID and starve
// its retrievals. This bench stages that attack against the same
// publish/retrieve pipeline the paper's Figure 9/10 experiments measure
// and toggles the defense stack:
//
//   baseline      no attack, defenses on (indexer race + quorum + caps)
//   eclipse_off   eclipse armed, undefended protocol (DHT-only, quorum 1)
//   eclipse_on    eclipse armed, defenses on
//
// Each arm publishes one 64 KiB object and retrieves it with a fresh,
// measurement-reset client per round (connections dropped so the
// opportunistic Bitswap phase cannot shortcut provider discovery — the
// paper's Section 4.3 reset). Two informational panels ride along: the
// Sybil bucket-flood occupancy with the per-bucket /16 diversity cap off
// vs on, and gateway request-coalescing under a flash crowd driven
// through the AttackPlan's deterministic schedule.
//
// Acceptance gates: baseline retrieves 100%; the undefended eclipse
// drops target-CID success below 50%; with defenses on success returns
// to 100% with median TTFB within 2x the unattacked baseline; the
// capped Sybil run keeps every bucket's adversarial occupancy within the
// cap while the uncapped run exceeds it; and the flash crowd coalesces
// to a single upstream retrieval. Any failure exits non-zero.
//
// Writes a JSONL artifact (one sample per line) for plotting; path
// overridable via IPFS_BENCH_ARTIFACT.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "adversary/adversary.h"
#include "blockstore/blockstore.h"
#include "common.h"
#include "gateway/gateway.h"
#include "indexer/indexer.h"
#include "merkledag/merkledag.h"
#include "node/ipfs_node.h"
#include "routing/router.h"
#include "stats/stats.h"

using namespace ipfs;

namespace {

constexpr std::size_t kDiversityCap = 2;
constexpr std::size_t kProviderQuorum = 3;

std::vector<std::uint8_t> deterministic_bytes(std::size_t n,
                                              std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::uint8_t> bytes(n);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next() & 0xff);
  return bytes;
}

// One retrieval arm: a dht_servers swarm, one publisher, `rounds` fresh
// retriever nodes created before arm() so each is a registered eclipse
// victim, each measurement-reset before its retrieval.
struct ArmResult {
  int attempts = 0;
  int successes = 0;
  std::vector<double> ttfb;  // successful samples, seconds
  std::size_t via_dht = 0;
  std::size_t via_indexer = 0;
  std::uint64_t records_swallowed = 0;
  std::uint64_t poisoned_served = 0;

  double success_rate() const {
    return attempts == 0 ? 0.0
                         : static_cast<double>(successes) / attempts;
  }
};

ArmResult run_retrieval_arm(bool attacked, bool defended, std::uint64_t seed,
                            std::size_t honest_peers, int rounds) {
  // The eclipse target must be known at build time, so the object is
  // hashed through a scratch store first.
  const auto content = deterministic_bytes(64 * 1024, seed ^ 0xAD5A);
  blockstore::BlockStore scratch;
  const multiformats::Cid cid = merkledag::import_bytes(scratch, content).root;

  scenario::ScenarioBuilder builder;
  builder.peers(honest_peers)
      .seed(seed)
      .single_region(20.0)
      .dht_servers(true);
  if (defended)
    builder.indexers(1).indexer_config(
        indexer::IndexerConfig().with_ingest_lag(sim::seconds(1)));
  if (attacked) builder.eclipse(dht::Key::for_cid(cid));
  scenario::Scenario s = builder.build();

  node::IpfsNodeConfig publisher_config;
  publisher_config.identity_seed = 0x9AB;
  publisher_config.provide_after_fetch = false;
  // The defended arm's routing config races the indexer against the
  // walk and carries the indexer list, so provide() pushes advertisements
  // alongside the DHT provider records. Undefended nodes keep the DHT
  // baseline.
  if (defended) publisher_config.routing = s.routing_config();
  node::IpfsNode publisher(s.network(), publisher_config);

  std::vector<std::unique_ptr<node::IpfsNode>> retrievers;
  for (int round = 0; round < rounds; ++round) {
    node::IpfsNodeConfig config;
    config.identity_seed = 0xFE7C + static_cast<std::uint64_t>(round);
    config.provide_after_fetch = false;
    if (defended) {
      config.routing = s.routing_config();
      config.provider_quorum = kProviderQuorum;
      config.bucket_diversity_cap = kDiversityCap;
    }
    retrievers.push_back(
        std::make_unique<node::IpfsNode>(s.network(), config));
  }

  std::vector<dht::PeerRef> seeds;
  for (std::size_t i = 0; i < 6; ++i) seeds.push_back(s.ref(i));
  publisher.bootstrap(seeds, [](bool) {});
  for (const auto& retriever : retrievers)
    retriever->bootstrap(seeds, [](bool) {});
  s.simulator().run();

  if (attacked) {
    s.attack()->add_victim(publisher.self());
    for (const auto& retriever : retrievers)
      s.attack()->add_victim(retriever->self());
    s.attack()->arm();
    // Let the announce plant the attackers in every victim's table.
    s.simulator().run_until(s.simulator().now() + sim::seconds(5));
  }

  ArmResult arm;
  bool published = false;
  publisher.publish(content, [&](node::PublishTrace t) { published = t.ok; });
  s.simulator().run();
  if (!published) {
    arm.attempts = rounds;  // the whole arm fails
    return arm;
  }
  // Clear the indexer ingest lag so the defended arms measure the
  // steady state, not the advertisement pipeline.
  s.simulator().run_until(s.simulator().now() + sim::seconds(5));

  for (const auto& retriever : retrievers) {
    s.simulator().run_until(s.simulator().now() + sim::seconds(10));
    retriever->reset_for_next_measurement();
    const sim::Time start = s.simulator().now();
    sim::Time end = start;
    node::RetrievalTrace trace;
    bool done = false;
    retriever->retrieve(cid, [&](node::RetrievalTrace t) {
      end = s.simulator().now();
      trace = t;
      done = true;
    });
    s.simulator().run();
    ++arm.attempts;
    if (!done || !trace.ok) continue;
    ++arm.successes;
    arm.ttfb.push_back(sim::to_seconds((end - start) - trace.fetch));
    if (trace.routing_source == routing::Source::kDht) ++arm.via_dht;
    if (trace.routing_source == routing::Source::kIndexer) ++arm.via_indexer;
  }

  if (attacked) {
    arm.records_swallowed = s.attack()->counters().provider_records_swallowed;
    arm.poisoned_served = s.attack()->counters().poisoned_records_served;
    s.attack()->disarm();
    s.attack()->detach();
  }
  return arm;
}

// Sybil panel: the same deterministic bucket flood with the per-bucket
// /16 diversity cap off vs on.
struct SybilPanel {
  std::size_t worst_occupancy = 0;  // adversarial entries, worst bucket
  std::uint64_t rejections = 0;
  std::uint64_t floods_sent = 0;
};

SybilPanel run_sybil_panel(std::uint64_t seed, std::size_t cap) {
  adversary::SybilConfig sybil;
  sybil.per_victim = 8;
  sybil.target_cpl = 6;
  sybil.rounds = 2;
  sybil.interval = sim::seconds(20);
  scenario::Scenario s = scenario::ScenarioBuilder()
                             .peers(24)
                             .seed(seed)
                             .single_region(15.0)
                             .dht_servers(true)
                             .sybils(sybil)
                             .build();
  if (cap > 0)
    for (std::size_t v = 0; v < s.size(); ++v)
      s.dht(v).set_bucket_diversity_cap(cap);
  s.attack()->arm();
  s.simulator().run_until(s.simulator().now() + sim::minutes(2));
  s.attack()->disarm();
  s.simulator().run();

  SybilPanel panel;
  for (std::size_t v = 0; v < s.size(); ++v) {
    std::size_t adversarial = 0;
    const dht::Key self_key = dht::Key::for_peer(s.ref(v).id);
    // Adversarial entries grouped by bucket (cpl vs the victim's key);
    // the flood aims all of one victim's sybils at a single bucket.
    std::vector<std::size_t> per_bucket(dht::kBucketCount, 0);
    for (const auto& peer : s.dht(v).routing_table().all_peers()) {
      if (!s.attack()->is_adversarial_id(peer.id)) continue;
      ++adversarial;
      const std::size_t cpl = static_cast<std::size_t>(
          self_key.common_prefix_len(dht::Key::for_peer(peer.id)));
      panel.worst_occupancy =
          std::max(panel.worst_occupancy, ++per_bucket[cpl]);
    }
    panel.rejections += s.dht(v).routing_table().diversity_rejections();
  }
  panel.floods_sent = s.attack()->counters().flood_requests_sent;
  s.attack()->detach();
  return panel;
}

// Flash-crowd panel: the AttackPlan's deterministic request schedule
// mapped onto gateway GETs for one CID, landing inside a window narrower
// than the P2P retrieval so the singleflight layer must coalesce them.
struct FlashPanel {
  std::size_t crowd = 0;
  std::size_t served = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t p2p_requests = 0;
};

FlashPanel run_flash_panel(std::uint64_t seed, std::size_t crowd) {
  adversary::FlashCrowdConfig flash;
  flash.requests = crowd;
  flash.start = sim::seconds(2);
  flash.window = sim::milliseconds(200);
  scenario::Scenario s = scenario::ScenarioBuilder()
                             .peers(48)
                             .seed(seed)
                             .single_region(20.0)
                             .dht_servers(true)
                             .flash_crowd(flash)
                             .build();

  gateway::GatewayConfig gateway_config;
  gateway_config.node.identity_seed = 0x6A7E;
  gateway_config.node.provide_after_fetch = false;
  gateway::Gateway gateway(s.network(), gateway_config);
  node::IpfsNodeConfig publisher_config;
  publisher_config.identity_seed = 0x9AB;
  node::IpfsNode publisher(s.network(), publisher_config);

  std::vector<dht::PeerRef> seeds;
  for (std::size_t i = 0; i < 6; ++i) seeds.push_back(s.ref(i));
  gateway.bootstrap(seeds, [](bool) {});
  publisher.bootstrap(seeds, [](bool) {});
  s.simulator().run();

  const auto content = deterministic_bytes(128 * 1024, seed ^ 0xF1A5);
  node::PublishTrace publish_trace;
  publisher.publish(content,
                    [&](node::PublishTrace t) { publish_trace = t; });
  s.simulator().run();

  FlashPanel panel;
  panel.crowd = crowd;
  if (!publish_trace.ok) return panel;

  s.attack()->set_flash_request_handler([&](std::size_t) {
    gateway.handle_get(publish_trace.cid, [&](gateway::GatewayResponse r) {
      if (r.source != gateway::ServedFrom::kFailed) ++panel.served;
    });
  });
  s.attack()->arm();
  s.simulator().run();
  s.attack()->disarm();
  s.attack()->detach();

  panel.coalesced = gateway.coalesced_requests();
  panel.p2p_requests = gateway.stats(gateway::ServedFrom::kP2p).requests;
  return panel;
}

void print_arm_row(const char* label, const ArmResult& arm) {
  if (arm.ttfb.empty()) {
    std::printf("%-14s %4d/%-4d %8s %8s %8s   swallowed=%llu poisoned=%llu\n",
                label, arm.successes, arm.attempts, "-", "-", "-",
                static_cast<unsigned long long>(arm.records_swallowed),
                static_cast<unsigned long long>(arm.poisoned_served));
    return;
  }
  const stats::Cdf cdf(arm.ttfb);
  std::printf("%-14s %4d/%-4d %8.4f %8.4f %8.4f   dht=%zu ix=%zu "
              "swallowed=%llu poisoned=%llu\n",
              label, arm.successes, arm.attempts, cdf.percentile(50),
              cdf.percentile(90), cdf.percentile(99), arm.via_dht,
              arm.via_indexer,
              static_cast<unsigned long long>(arm.records_swallowed),
              static_cast<unsigned long long>(arm.poisoned_served));
}

void dump_arm(std::ofstream& out, const char* series, const ArmResult& arm) {
  out << "{\"bench\":\"ablation_adversary\",\"series\":\"" << series
      << "\",\"attempts\":" << arm.attempts
      << ",\"successes\":" << arm.successes << "}\n";
  for (const double v : arm.ttfb)
    out << "{\"bench\":\"ablation_adversary\",\"series\":\"" << series
        << "\",\"ttfb_s\":" << v << "}\n";
}

}  // namespace

int main() {
  bench::print_header(
      "Ablation: adversarial resilience — eclipse/Sybil/flash-crowd "
      "attacks vs the defense stack",
      "Henningsen et al.: free node IDs let a few machines eclipse a "
      "CID; diversity caps + provider quorum + the indexer race answer");

  const std::uint64_t seed = bench::run_seed();
  const std::size_t honest_peers =
      bench::env_size("IPFS_BENCH_PEERS", bench::scaled(64, 32));
  const int rounds = static_cast<int>(bench::scaled(8, 4));

  const ArmResult baseline =
      run_retrieval_arm(false, true, seed, honest_peers, rounds);
  const ArmResult eclipse_off =
      run_retrieval_arm(true, false, seed, honest_peers, rounds);
  const ArmResult eclipse_on =
      run_retrieval_arm(true, true, seed, honest_peers, rounds);

  std::printf("world: %zu honest dht servers, %d retrieval rounds/arm, "
              "eclipse attackers=%zu min_cpl=%d\n\n",
              honest_peers, rounds, adversary::EclipseConfig{}.attackers,
              adversary::EclipseConfig{}.min_cpl);
  std::printf("%-14s %9s %8s %8s %8s   %s\n", "ttfb (seconds)", "ok/n",
              "p50", "p90", "p99", "routing source / attack counters");
  print_arm_row("baseline", baseline);
  print_arm_row("eclipse_off", eclipse_off);
  print_arm_row("eclipse_on", eclipse_on);

  const SybilPanel uncapped = run_sybil_panel(seed, 0);
  const SybilPanel capped = run_sybil_panel(seed, kDiversityCap);
  std::printf("\nsybil flood   worst-bucket occupancy  rejections  floods\n");
  std::printf("  cap=0       %21zu  %10llu  %6llu\n", uncapped.worst_occupancy,
              static_cast<unsigned long long>(uncapped.rejections),
              static_cast<unsigned long long>(uncapped.floods_sent));
  std::printf("  cap=%zu       %21zu  %10llu  %6llu\n", kDiversityCap,
              capped.worst_occupancy,
              static_cast<unsigned long long>(capped.rejections),
              static_cast<unsigned long long>(capped.floods_sent));

  const FlashPanel flash = run_flash_panel(seed, 16);
  std::printf("\nflash crowd   %zu requests in 200 ms: served=%zu "
              "coalesced=%llu upstream_p2p=%llu\n",
              flash.crowd, flash.served,
              static_cast<unsigned long long>(flash.coalesced),
              static_cast<unsigned long long>(flash.p2p_requests));

  const char* artifact_env = std::getenv("IPFS_BENCH_ARTIFACT");
  const std::string artifact_path =
      artifact_env != nullptr && artifact_env[0] != '\0'
          ? artifact_env
          : "bench_ablation_adversary.jsonl";
  std::ofstream artifact(artifact_path, std::ios::trunc);
  dump_arm(artifact, "baseline", baseline);
  dump_arm(artifact, "eclipse_off", eclipse_off);
  dump_arm(artifact, "eclipse_on", eclipse_on);
  artifact << "{\"bench\":\"ablation_adversary\",\"series\":\"sybil\","
           << "\"cap\":0,\"worst_occupancy\":" << uncapped.worst_occupancy
           << ",\"rejections\":" << uncapped.rejections << "}\n";
  artifact << "{\"bench\":\"ablation_adversary\",\"series\":\"sybil\","
           << "\"cap\":" << kDiversityCap
           << ",\"worst_occupancy\":" << capped.worst_occupancy
           << ",\"rejections\":" << capped.rejections << "}\n";
  artifact << "{\"bench\":\"ablation_adversary\",\"series\":\"flash\","
           << "\"crowd\":" << flash.crowd << ",\"served\":" << flash.served
           << ",\"coalesced\":" << flash.coalesced
           << ",\"upstream_p2p\":" << flash.p2p_requests << "}\n";

  // ---- Gates ---------------------------------------------------------------
  bool pass = true;
  const auto gate = [&](bool ok, const char* desc) {
    std::printf("%s %s\n", ok ? "gate:    " : "FAIL:    ", desc);
    if (!ok) pass = false;
  };

  std::printf("\n");
  gate(baseline.successes == baseline.attempts && baseline.attempts > 0,
       "unattacked baseline retrieves 100%");
  gate(eclipse_off.success_rate() < 0.5,
       "undefended eclipse drops target-CID success below 50%");
  gate(eclipse_on.successes == eclipse_on.attempts && eclipse_on.attempts > 0,
       "defenses on (caps + quorum + race) restore 100% success");
  if (!baseline.ttfb.empty() && !eclipse_on.ttfb.empty()) {
    const double base_median = stats::Cdf(baseline.ttfb).percentile(50);
    const double defended_median = stats::Cdf(eclipse_on.ttfb).percentile(50);
    std::printf("median ttfb baseline=%.4fs eclipse_on=%.4fs (%.2fx)\n",
                base_median, defended_median, defended_median / base_median);
    gate(defended_median <= 2.0 * base_median,
         "defended median TTFB within 2x the unattacked baseline");
    artifact << "{\"bench\":\"ablation_adversary\",\"series\":\"summary\","
             << "\"median_baseline_s\":" << base_median
             << ",\"median_eclipse_on_s\":" << defended_median
             << ",\"eclipse_off_ok\":" << eclipse_off.successes
             << ",\"eclipse_off_attempts\":" << eclipse_off.attempts << "}\n";
  }
  gate(eclipse_off.records_swallowed > 0 && eclipse_off.poisoned_served > 0,
       "undefended arm exercised the attack (records swallowed + poisoned)");
  gate(uncapped.worst_occupancy > kDiversityCap,
       "uncapped sybil flood exceeds the diversity cap in some bucket");
  gate(capped.worst_occupancy <= kDiversityCap && capped.rejections > 0,
       "capped tables bound adversarial occupancy and reject the overflow");
  // Requests landing while the first retrieval is in flight coalesce
  // onto it; any that land after completion hit the gateway node's warm
  // store. Either way the whole crowd costs exactly one upstream fetch.
  gate(flash.served == flash.crowd && flash.coalesced > 0 &&
           flash.p2p_requests == flash.coalesced + 1,
       "flash crowd fully served through one upstream P2P retrieval");

  std::printf("artifact: %s\n", artifact_path.c_str());
  return pass ? 0 : 1;
}
