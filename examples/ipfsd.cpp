// ipfsd: a minimal IPFS daemon running the full node stack over real UDP
// sockets (transport::SocketTransport) — the same node::IpfsNode code the
// simulator drives, now as one OS process per peer.
//
// A localhost cluster (scripts/daemon_smoke.sh drives a 3-process one):
//
//   ./ipfsd --index 0 --port 9100 --serve-ms 4000 &
//   JOIN="--peer 0:9100 --bootstrap 0 --serve-ms 4000"
//   MSG="hello interplanetary world"
//   ./ipfsd --index 1 --port 9101 $JOIN --publish "$MSG" &
//   ./ipfsd --index 2 --port 9102 $JOIN --fetch "$MSG"
//
// The publisher imports the string, walks the DHT for the closest peers
// and fire-and-forgets provider records; the fetcher derives the same
// root CID locally (content addressing makes the rendezvous implicit),
// resolves a provider through the DHT and pulls the blocks over Bitswap.
// Node identities derive from --index (IpfsNode::derive_keypair), so
// every process can compute every other's PeerId offline; --peer entries
// seed the socket peer table and --bootstrap names which of those to join
// through. --metrics dumps the per-process counter registry as JSONL.
//
// Exit code: 0 when this node's role succeeded (publish ok / fetch ok /
// plain server finished serving), 1 otherwise.
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "blockstore/blockstore.h"
#include "dht/messages.h"
#include "merkledag/merkledag.h"
#include "multiformats/multiaddr.h"
#include "multiformats/peerid.h"
#include "node/ipfs_node.h"
#include "transport/socket_transport.h"

namespace {

struct Options {
  std::uint64_t index = 0;
  std::uint16_t port = 0;
  std::vector<std::pair<std::uint64_t, std::uint16_t>> peers;
  std::vector<std::uint64_t> bootstrap;
  std::optional<std::string> publish;
  std::optional<std::string> fetch;
  std::int64_t serve_ms = 5000;
  std::optional<std::string> metrics_path;
  std::optional<std::string> store_dir;
};

// Mirrors the node layer's listen_address_for derivation so the PeerRefs
// this process builds for its neighbours carry the addresses their
// DhtNodes advertise about themselves.
ipfs::multiformats::Multiaddr listen_address_for(std::uint64_t seed) {
  return ipfs::multiformats::make_tcp_multiaddr(
      "10." + std::to_string(seed % 250) + "." +
          std::to_string((seed / 250) % 250) + ".1",
      4001);
}

ipfs::dht::PeerRef ref_for(std::uint64_t index) {
  ipfs::dht::PeerRef ref;
  ref.id = ipfs::multiformats::PeerId::from_public_key(
      ipfs::node::IpfsNode::derive_keypair(index).public_key);
  ref.node = static_cast<ipfs::sim::NodeId>(index);
  ref.addresses = {listen_address_for(index)};
  return ref;
}

std::optional<Options> parse(int argc, char** argv) {
  Options opts;
  auto next = [&](int& i) -> std::optional<std::string> {
    if (i + 1 >= argc) return std::nullopt;
    return std::string(argv[++i]);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::optional<std::string> value;
    if (arg == "--index" && (value = next(i))) {
      opts.index = std::stoull(*value);
    } else if (arg == "--port" && (value = next(i))) {
      opts.port = static_cast<std::uint16_t>(std::stoul(*value));
    } else if (arg == "--peer" && (value = next(i))) {
      const auto colon = value->find(':');
      if (colon == std::string::npos) return std::nullopt;
      opts.peers.emplace_back(
          std::stoull(value->substr(0, colon)),
          static_cast<std::uint16_t>(std::stoul(value->substr(colon + 1))));
    } else if (arg == "--bootstrap" && (value = next(i))) {
      opts.bootstrap.push_back(std::stoull(*value));
    } else if (arg == "--publish" && (value = next(i))) {
      opts.publish = *value;
    } else if (arg == "--fetch" && (value = next(i))) {
      opts.fetch = *value;
    } else if (arg == "--serve-ms" && (value = next(i))) {
      opts.serve_ms = std::stoll(*value);
    } else if (arg == "--metrics" && (value = next(i))) {
      opts.metrics_path = *value;
    } else if (arg == "--store-dir" && (value = next(i))) {
      opts.store_dir = *value;
    } else {
      std::cerr << "ipfsd: bad argument " << arg << "\n";
      return std::nullopt;
    }
  }
  return opts;
}

void dump_metrics(const Options& opts, ipfs::metrics::Registry& registry,
                  bool ok) {
  if (!opts.metrics_path.has_value()) return;
  std::ofstream out(*opts.metrics_path);
  out << "{\"event\":\"summary\",\"index\":" << opts.index
      << ",\"role\":\""
      << (opts.publish ? "publisher" : opts.fetch ? "fetcher" : "server")
      << "\",\"ok\":" << (ok ? "true" : "false") << "}\n";
  for (const auto& [name, counter] : registry.counters()) {
    out << "{\"event\":\"counter\",\"index\":" << opts.index << ",\"name\":\""
        << name << "\",\"value\":" << counter.value() << "}\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto parsed = parse(argc, argv);
  if (!parsed.has_value()) {
    std::cerr << "usage: ipfsd --index I --port P [--peer J:PORT]... "
                 "[--bootstrap J]... [--publish S] [--fetch S] "
                 "[--serve-ms MS] [--metrics FILE] [--store-dir DIR]\n";
    return 1;
  }
  const Options& opts = *parsed;

  ipfs::transport::SocketTransport transport(
      static_cast<ipfs::transport::PeerAddr>(opts.index), "127.0.0.1",
      opts.port);
  for (const auto& [peer, port] : opts.peers) {
    transport.add_peer(static_cast<ipfs::transport::PeerAddr>(peer),
                       "127.0.0.1", port);
  }

  ipfs::node::IpfsNodeConfig config;
  config.identity_seed = opts.index;
  if (opts.store_dir.has_value()) {
    // Durable data plane (docs/BLOCKSTORE.md): the log-structured store
    // on real files. A kill -9 loses nothing the process appended, since
    // the kernel still holds the unsynced tail; only a power cut can
    // take blocks that no flush acked.
    config.store.backend = ipfs::blockstore::StoreConfig::Backend::kPersistent;
    config.store.directory = *opts.store_dir;
  }
  ipfs::node::IpfsNode node(transport, config);
  if (opts.store_dir.has_value()) {
    std::cerr << "ipfsd[" << opts.index << "] restored "
              << node.store().block_count() << " blocks from "
              << *opts.store_dir << "\n";
  }

  const ipfs::sim::Time start = transport.now();
  const ipfs::sim::Time stop = start + ipfs::sim::milliseconds(
                                           static_cast<double>(opts.serve_ms));

  // Every daemon is a DHT server: localhost endpoints are dialable by
  // construction, and AutoNAT's verdict (> 3 reachable probes) can never
  // pass in a cluster this small. Pinning keeps the bootstrap dial-backs
  // from demoting us back to client.
  node.dht().fix_mode(ipfs::dht::DhtNode::Mode::kServer);

  // Join through the bootstrap peers, retrying while they come up (the
  // smoke script launches the cluster concurrently).
  bool joined = opts.bootstrap.empty();
  if (!joined) {
    std::vector<ipfs::dht::PeerRef> seeds;
    for (const std::uint64_t peer : opts.bootstrap) {
      seeds.push_back(ref_for(peer));
    }
    std::function<void()> attempt = [&] {
      node.bootstrap(seeds, [&](bool ok) {
        if (ok) {
          joined = true;
          std::cerr << "ipfsd[" << opts.index << "] joined\n";
          return;
        }
        if (transport.now() < stop) {
          transport.schedule_after(ipfs::sim::milliseconds(250.0),
                                   [&] { attempt(); });
        }
      });
    };
    attempt();
    while (!joined && transport.now() < stop) {
      transport.poll_once(ipfs::sim::milliseconds(5.0));
    }
    if (!joined) {
      std::cerr << "ipfsd[" << opts.index << "] bootstrap failed\n";
      dump_metrics(opts, transport.metrics(), false);
      return 1;
    }
  }

  bool role_ok = !opts.publish.has_value() && !opts.fetch.has_value();

  if (opts.publish.has_value()) {
    const std::span<const std::uint8_t> data(
        reinterpret_cast<const std::uint8_t*>(opts.publish->data()),
        opts.publish->size());
    bool done = false;
    node.publish(data, [&](ipfs::node::PublishTrace trace) {
      done = true;
      role_ok = trace.ok;
      std::cerr << "ipfsd[" << opts.index << "] published "
                << trace.cid.to_string() << " records="
                << trace.provider_records_sent << "\n";
    });
    while (!done && transport.now() < stop) {
      transport.poll_once(ipfs::sim::milliseconds(5.0));
    }
  }

  if (opts.fetch.has_value()) {
    // Derive the root CID the publisher's import produced: same bytes,
    // same chunker, same root — without touching this node's own store.
    ipfs::blockstore::BlockStore scratch;
    const std::span<const std::uint8_t> data(
        reinterpret_cast<const std::uint8_t*>(opts.fetch->data()),
        opts.fetch->size());
    const auto expected = ipfs::merkledag::import_bytes(scratch, data);

    bool done = false;
    std::function<void()> attempt = [&] {
      node.retrieve(expected.root, [&](ipfs::node::RetrievalTrace trace) {
        if (trace.ok) {
          done = true;
          role_ok = true;
          std::cerr << "ipfsd[" << opts.index << "] fetched "
                    << expected.root.to_string() << " bytes=" << trace.bytes
                    << " from=" << trace.provider_node << "\n";
          return;
        }
        // The publisher may not have finished providing yet.
        if (transport.now() < stop) {
          transport.schedule_after(ipfs::sim::milliseconds(400.0),
                                   [&] { attempt(); });
        }
      });
    };
    attempt();
    while (!done && transport.now() < stop) {
      transport.poll_once(ipfs::sim::milliseconds(5.0));
    }
    if (!done) {
      std::cerr << "ipfsd[" << opts.index << "] fetch failed\n";
    }
  }

  // Keep serving until the deadline so other cluster members can finish.
  while (transport.now() < stop) {
    transport.poll_once(ipfs::sim::milliseconds(5.0));
  }

  dump_metrics(opts, transport.metrics(), role_ok);
  std::cerr << "ipfsd[" << opts.index << "] done ok=" << role_ok << "\n";
  return role_ok ? 0 : 1;
}
