// Backend parity (ISSUE 8 satellite): the same publish -> provide ->
// resolve -> fetch scenario, run once over SimTransport on the
// discrete-event fabric and once over SocketTransports exchanging real
// UDP datagrams on loopback, must produce the same provider records and
// the same block bytes. Timings are NOT compared — virtual time and wall
// time differ by construction; parity is about protocol outcomes.
//
// The SocketTransportTest cases below pin the socket backend's timer
// contract on loopback: due order, cancellation, daemon timers not
// counting against idle(), RPC and dial timeouts firing exactly once,
// and unknown peers failing on the next poll rather than inside the call.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "bitswap/bitswap.h"
#include "blockstore/blockstore.h"
#include "dht/dht_node.h"
#include "dht/key.h"
#include "dht/messages.h"
#include "multiformats/cid.h"
#include "scenario/scenario.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "transport/sim_transport.h"
#include "transport/socket_transport.h"
#include "transport/transport.h"

namespace ipfs {
namespace {

// One protocol endpoint: a DHT server plus Bitswap, multiplexed onto a
// transport exactly the way node::IpfsNode does it.
struct Rig {
  blockstore::BlockStore store;
  dht::DhtNode dht;
  bitswap::Bitswap bitswap;

  Rig(transport::Transport& transport, std::uint64_t identity)
      : dht(transport, scenario::synthetic_peer_id(identity),
            {scenario::synthetic_address(
                static_cast<std::uint32_t>(identity))}),
        bitswap(transport, store) {
    dht.force_mode(dht::DhtNode::Mode::kServer);
    transport.set_request_handler(
        [this](sim::NodeId from, const sim::MessagePtr& message,
               const std::function<void(sim::MessagePtr, std::size_t)>&
                   respond) {
          if (dht.handle_request(from, message, respond)) return;
          bitswap.handle_request(from, message, respond);
        });
    transport.set_message_handler(
        [this](sim::NodeId from, const sim::MessagePtr& message) {
          dht.handle_message(from, message);
        });
  }
};

struct ParityOutcome {
  bool provide_ok = false;
  int provider_stores = 0;
  bool lookup_done = false;
  std::vector<sim::NodeId> provider_nodes;  // sorted
  std::optional<std::vector<std::uint8_t>> block_data;
  // Provider-side transport counters (socket run only).
  std::uint64_t tx_messages = 0;
  std::uint64_t rx_messages = 0;
};

std::vector<std::uint8_t> test_payload() {
  return {'p', 'a', 'r', 'i', 't', 'y', '-', 'b', 'l', 'o', 'c', 'k'};
}

// Runs the scenario over three already-wired transports. `pump` advances
// the backend's event loop until the given condition holds (or its
// internal deadline passes). Node 0 is a plain server, node 1 the
// provider, node 2 the fetcher.
ParityOutcome run_scenario(
    const std::array<transport::Transport*, 3>& transports,
    const std::function<void(const std::function<bool()>&)>& pump) {
  std::array<std::unique_ptr<Rig>, 3> rigs;
  for (std::size_t i = 0; i < rigs.size(); ++i) {
    rigs[i] = std::make_unique<Rig>(*transports[i], 100 + i);
  }
  // Pre-seeded, already-converged routing tables (the scenario harness's
  // convention) so the walk outcome does not depend on bootstrap timing.
  for (auto& rig : rigs) {
    for (auto& other : rigs) {
      if (other == rig) continue;
      rig->dht.routing_table().upsert(other->dht.self());
    }
  }

  const auto block = blockstore::Block::from_data(
      multiformats::Multicodec::kRaw, test_payload());
  const multiformats::Cid& cid = block.cid;
  rigs[1]->store.put(block);
  const dht::Key key = dht::Key::for_cid(cid);

  ParityOutcome outcome;
  rigs[1]->dht.provide(key, [&outcome](dht::DhtNode::ProvideResult result) {
    outcome.provide_ok = result.ok;
    outcome.provider_stores = result.stores_sent;
  });
  pump([&outcome] { return outcome.provide_ok; });

  rigs[2]->dht.find_providers(key, [&outcome](dht::LookupResult result) {
    outcome.lookup_done = true;
    for (const auto& record : result.providers) {
      outcome.provider_nodes.push_back(record.provider.node);
    }
    std::sort(outcome.provider_nodes.begin(), outcome.provider_nodes.end());
    outcome.provider_nodes.erase(
        std::unique(outcome.provider_nodes.begin(),
                    outcome.provider_nodes.end()),
        outcome.provider_nodes.end());
  });
  pump([&outcome] { return outcome.lookup_done; });

  bool fetch_done = false;
  transports[2]->connect(
      transports[1]->local(),
      [&](bool ok, sim::Duration) {
        if (!ok) {
          fetch_done = true;
          return;
        }
        rigs[2]->bitswap.fetch_block(
            transports[1]->local(), cid,
            [&](bitswap::BlockResult block) {
              if (block.data) outcome.block_data = *block.data;
              fetch_done = true;
            });
      });
  pump([&fetch_done] { return fetch_done; });
  return outcome;
}

ParityOutcome run_over_sim() {
  sim::Simulator simulator;
  const sim::LatencyModel latency(
      std::vector<std::vector<double>>{{20.0}});
  sim::Network network(simulator, latency, /*seed=*/7);
  std::array<std::unique_ptr<transport::SimTransport>, 3> transports;
  for (auto& t : transports) {
    t = std::make_unique<transport::SimTransport>(network, sim::NodeConfig{});
  }
  return run_scenario(
      {transports[0].get(), transports[1].get(), transports[2].get()},
      [&simulator](const std::function<bool()>& done) {
        simulator.run();
        EXPECT_TRUE(done());
      });
}

ParityOutcome run_over_sockets() {
  std::array<std::unique_ptr<transport::SocketTransport>, 3> transports;
  for (std::size_t i = 0; i < transports.size(); ++i) {
    transports[i] = std::make_unique<transport::SocketTransport>(
        static_cast<transport::PeerAddr>(i), "127.0.0.1", /*port=*/0);
  }
  // Full-mesh peer table over the ephemeral loopback ports.
  for (auto& t : transports) {
    for (std::size_t j = 0; j < transports.size(); ++j) {
      if (transports[j].get() == t.get()) continue;
      t->add_peer(static_cast<transport::PeerAddr>(j), "127.0.0.1",
                  transports[j]->port());
    }
  }
  ParityOutcome outcome = run_scenario(
      {transports[0].get(), transports[1].get(), transports[2].get()},
      [&transports](const std::function<bool()>& done) {
        const sim::Time deadline =
            transports[0]->now() + sim::seconds(30);
        while (!done() && transports[0]->now() < deadline) {
          for (auto& t : transports) t->poll_once(sim::milliseconds(1));
        }
        EXPECT_TRUE(done());
      });
  outcome.tx_messages =
      transports[1]->metrics().counter_value("transport.tx.messages");
  outcome.rx_messages =
      transports[1]->metrics().counter_value("transport.rx.messages");
  return outcome;
}

TEST(TransportParityTest, SimAndSocketBackendsAgree) {
  const ParityOutcome sim_outcome = run_over_sim();
  const ParityOutcome socket_outcome = run_over_sockets();

  // Both backends complete the whole pipeline...
  EXPECT_TRUE(sim_outcome.provide_ok);
  EXPECT_TRUE(socket_outcome.provide_ok);
  EXPECT_TRUE(sim_outcome.lookup_done);
  EXPECT_TRUE(socket_outcome.lookup_done);

  // ...store provider records on the same peers...
  EXPECT_GT(sim_outcome.provider_stores, 0);
  EXPECT_GT(socket_outcome.provider_stores, 0);
  EXPECT_EQ(sim_outcome.provider_nodes, socket_outcome.provider_nodes);
  ASSERT_FALSE(socket_outcome.provider_nodes.empty());
  EXPECT_EQ(socket_outcome.provider_nodes.front(),
            static_cast<sim::NodeId>(1));

  // ...and move the same block bytes.
  ASSERT_TRUE(sim_outcome.block_data.has_value());
  ASSERT_TRUE(socket_outcome.block_data.has_value());
  EXPECT_EQ(*sim_outcome.block_data, *socket_outcome.block_data);
  EXPECT_EQ(*socket_outcome.block_data, test_payload());
}

// The socket backend's transport counters move: the scenario above sends
// real datagrams, and both directions are visible in the per-process
// metrics registry (docs/OBSERVABILITY.md).
TEST(TransportParityTest, SocketCountersAdvance) {
  const ParityOutcome outcome = run_over_sockets();
  ASSERT_TRUE(outcome.block_data.has_value());
  EXPECT_GT(outcome.tx_messages, 0u);
  EXPECT_GT(outcome.rx_messages, 0u);
}

// --- SocketTransport timer contract ----------------------------------------

// Polls `t` until `done` holds or `limit` of wall time has passed.
void poll_until(transport::SocketTransport& t,
                const std::function<bool()>& done, sim::Duration limit) {
  const sim::Time deadline = t.now() + limit;
  while (!done() && t.now() < deadline) t.poll_once(sim::milliseconds(5));
}

TEST(SocketTransportTest, TimersFireInDueOrderAndCancelledOnesNever) {
  transport::SocketTransport t(0, "127.0.0.1", /*port=*/0);
  std::vector<int> fired;
  t.schedule_after(sim::milliseconds(20), [&] { fired.push_back(20); });
  transport::Timer early =
      t.schedule_after(sim::milliseconds(5), [&] { fired.push_back(5); });
  t.schedule_after(sim::milliseconds(10), [&] { fired.push_back(10); });
  t.schedule_daemon_after(sim::milliseconds(15),
                          [&] { fired.push_back(15); });
  EXPECT_TRUE(early.active());
  early.cancel();
  EXPECT_FALSE(early.active());

  poll_until(t, [&] { return fired.size() >= 3; }, sim::seconds(5));
  EXPECT_EQ(fired, (std::vector<int>{10, 15, 20}));
}

TEST(SocketTransportTest, DaemonTimersDoNotKeepTheLoopBusy) {
  transport::SocketTransport t(0, "127.0.0.1", /*port=*/0);
  EXPECT_TRUE(t.idle());
  t.schedule_daemon_after(sim::seconds(60), [] {});
  EXPECT_TRUE(t.idle());
  transport::Timer foreground = t.schedule_after(sim::seconds(60), [] {});
  EXPECT_FALSE(t.idle());
  foreground.cancel();
  EXPECT_TRUE(t.idle());
}

TEST(SocketTransportTest, RequestToASilentPeerTimesOutOnce) {
  transport::SocketTransport client(0, "127.0.0.1", /*port=*/0);
  // Bound, so the request datagram is accepted, but never polled.
  transport::SocketTransport silent(1, "127.0.0.1", /*port=*/0);
  client.add_peer(1, "127.0.0.1", silent.port());

  int calls = 0;
  sim::RpcStatus status = sim::RpcStatus::kOk;
  bool null_response = false;
  sim::Time fired_at = 0;
  const sim::Time sent = client.now();
  client.request(1, std::make_shared<dht::ListBucketsRequest>(), 0,
                 sim::milliseconds(50),
                 [&](sim::RpcStatus s, const sim::MessagePtr& response) {
                   ++calls;
                   status = s;
                   null_response = response == nullptr;
                   fired_at = client.now();
                 });
  EXPECT_FALSE(client.idle());
  poll_until(client, [&] { return calls > 0; }, sim::seconds(5));
  // Keep polling past the timeout: it must not fire again.
  poll_until(client, [] { return false; }, sim::milliseconds(30));

  EXPECT_EQ(calls, 1);
  EXPECT_EQ(status, sim::RpcStatus::kTimeout);
  EXPECT_TRUE(null_response);
  EXPECT_GE(fired_at - sent, sim::milliseconds(50));
  EXPECT_TRUE(client.idle());
}

TEST(SocketTransportTest, AnsweredRequestDisarmsItsTimeout) {
  transport::SocketTransport client(0, "127.0.0.1", /*port=*/0);
  transport::SocketTransport server(1, "127.0.0.1", /*port=*/0);
  client.add_peer(1, "127.0.0.1", server.port());
  server.set_request_handler(
      [](sim::NodeId, const sim::MessagePtr&,
         const std::function<void(sim::MessagePtr, std::size_t)>& respond) {
        respond(std::make_shared<dht::ListBucketsResponse>(), 0);
      });

  const sim::Duration timeout = sim::milliseconds(200);
  int calls = 0;
  sim::RpcStatus status = sim::RpcStatus::kTimeout;
  client.request(1, std::make_shared<dht::ListBucketsRequest>(), 0, timeout,
                 [&](sim::RpcStatus s, const sim::MessagePtr&) {
                   ++calls;
                   status = s;
                 });
  const sim::Time deadline = client.now() + sim::seconds(5);
  while (calls == 0 && client.now() < deadline) {
    server.poll_once(sim::milliseconds(1));
    client.poll_once(sim::milliseconds(1));
  }
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(status, sim::RpcStatus::kOk);
  EXPECT_TRUE(client.idle());

  poll_until(client, [] { return false; }, timeout + sim::milliseconds(50));
  EXPECT_EQ(calls, 1);
}

TEST(SocketTransportTest, UnknownPeerFailsOnTheNextPollNotReentrantly) {
  transport::SocketTransport t(0, "127.0.0.1", /*port=*/0);
  const transport::PeerAddr unknown = 7;

  bool dialed = false;
  bool dial_ok = true;
  t.connect(unknown, [&](bool ok, sim::Duration) {
    dialed = true;
    dial_ok = ok;
  });
  int calls = 0;
  sim::RpcStatus status = sim::RpcStatus::kOk;
  t.request(unknown, std::make_shared<dht::ListBucketsRequest>(), 0,
            sim::seconds(1), [&](sim::RpcStatus s, const sim::MessagePtr&) {
              ++calls;
              status = s;
            });
  EXPECT_FALSE(dialed);
  EXPECT_EQ(calls, 0);

  t.poll_once(0);
  EXPECT_TRUE(dialed);
  EXPECT_FALSE(dial_ok);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(status, sim::RpcStatus::kUnreachable);
  EXPECT_TRUE(t.idle());
}

// The suite's one slow test: the dial timeout is 5 s of wall time.
TEST(SocketTransportTest, DialToASilentPeerFailsAfterTheDialTimeout) {
  transport::SocketTransport client(0, "127.0.0.1", /*port=*/0);
  transport::SocketTransport silent(1, "127.0.0.1", /*port=*/0);
  client.add_peer(1, "127.0.0.1", silent.port());

  bool fired = false;
  bool dial_ok = true;
  sim::Duration elapsed = 0;
  const sim::Time started = client.now();
  client.connect(1, [&](bool ok, sim::Duration e) {
    fired = true;
    dial_ok = ok;
    elapsed = e;
  });
  EXPECT_FALSE(client.idle());
  poll_until(client, [&] { return fired; }, sim::seconds(10));

  EXPECT_TRUE(fired);
  EXPECT_FALSE(dial_ok);
  EXPECT_GE(elapsed, sim::seconds(5));
  EXPECT_GE(client.now() - started, sim::seconds(5));
  EXPECT_FALSE(client.connected(1));
  EXPECT_TRUE(client.idle());
}

}  // namespace
}  // namespace ipfs
