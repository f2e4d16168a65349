// GossipSub engine tests: mesh formation within degree bounds, at-most-
// once delivery, fanout publishing, IHAVE/IWANT gossip recovery, and —
// the churn cases ISSUE 4 calls out — mesh repair after FaultPlan
// crash-restarts and after node removals.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "pubsub/pubsub.h"
#include "scenario/scenario.h"

namespace ipfs {
namespace {

using pubsub::MessageId;
using pubsub::PubsubMessage;

constexpr char kTopic[] = "test-topic";

scenario::Scenario pubsub_swarm(std::size_t peers, std::uint64_t seed = 42) {
  return scenario::ScenarioBuilder()
      .peers(peers)
      .seed(seed)
      .single_region(20.0)
      .pubsub(true)
      .build();
}

// Per-node delivery log: message id -> count.
using DeliveryLog = std::map<MessageId, int>;

void subscribe_all(scenario::Scenario& s, std::vector<DeliveryLog>& logs) {
  logs.resize(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    s.pubsub(i).subscribe(
        kTopic, [&logs, i](const PubsubMessage& m) { ++logs[i][m.id]; });
  }
}

TEST(Pubsub, MeshFormsWithinDegreeBounds) {
  auto s = pubsub_swarm(30);
  std::vector<DeliveryLog> logs;
  subscribe_all(s, logs);
  s.simulator().run_until(sim::seconds(30));

  const auto& config = s.pubsub(0).config();
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto mesh = s.pubsub(i).mesh_peers(kTopic);
    EXPECT_GE(mesh.size(), static_cast<std::size_t>(config.degree_lo))
        << "node " << i << " under-meshed";
    EXPECT_LE(mesh.size(), static_cast<std::size_t>(config.degree_hi))
        << "node " << i << " over-meshed";
    // Mesh members must be known topic peers.
    const auto peers = s.pubsub(i).topic_peers(kTopic);
    for (const auto member : mesh)
      EXPECT_NE(std::find(peers.begin(), peers.end(), member), peers.end());
  }
}

TEST(Pubsub, MeshEdgesAreSymmetric) {
  auto s = pubsub_swarm(20);
  std::vector<DeliveryLog> logs;
  subscribe_all(s, logs);
  s.simulator().run_until(sim::seconds(30));

  // After the swarm settles (no publishes, no faults), a grafted edge
  // must be acknowledged on both sides.
  for (std::size_t i = 0; i < s.size(); ++i) {
    for (const auto member : s.pubsub(i).mesh_peers(kTopic)) {
      std::size_t j = 0;
      while (j < s.size() && s.node(j) != member) ++j;
      ASSERT_LT(j, s.size());
      const auto back = s.pubsub(j).mesh_peers(kTopic);
      EXPECT_NE(std::find(back.begin(), back.end(), s.node(i)), back.end())
          << "edge " << i << " -> " << j << " not reciprocated";
    }
  }
}

TEST(Pubsub, PublishReachesEverySubscriberExactlyOnce) {
  auto s = pubsub_swarm(30);
  std::vector<DeliveryLog> logs;
  subscribe_all(s, logs);
  s.simulator().run_until(sim::seconds(15));  // let meshes form

  std::vector<MessageId> published;
  for (std::size_t p = 0; p < 5; ++p) {
    published.push_back(
        s.pubsub(p).publish(kTopic, {static_cast<std::uint8_t>(p)}));
  }
  s.simulator().run_until(sim::seconds(45));

  for (std::size_t i = 0; i < s.size(); ++i) {
    for (const auto& id : published) {
      ASSERT_TRUE(logs[i].contains(id))
          << "node " << i << " missed message from origin " << id.origin;
      EXPECT_EQ(logs[i][id], 1)
          << "node " << i << " delivered a duplicate (at-most-once broken)";
    }
  }
}

TEST(Pubsub, FanoutDeliversFromNonSubscribedPublisher) {
  auto s = pubsub_swarm(20);
  std::vector<DeliveryLog> logs(s.size());
  // Node 0 publishes without subscribing; everyone else subscribes.
  for (std::size_t i = 1; i < s.size(); ++i) {
    s.pubsub(i).subscribe(
        kTopic, [&logs, i](const PubsubMessage& m) { ++logs[i][m.id]; });
  }
  s.simulator().run_until(sim::seconds(15));

  const auto id = s.pubsub(0).publish(kTopic, {0xab});
  s.simulator().run_until(sim::seconds(30));

  EXPECT_EQ(s.pubsub(0).delivered(), 0u);  // publisher never subscribed
  for (std::size_t i = 1; i < s.size(); ++i) {
    ASSERT_TRUE(logs[i].contains(id)) << "node " << i << " missed fanout";
    EXPECT_EQ(logs[i][id], 1);
  }
}

TEST(Pubsub, IhaveIwantRecoversMessageOutsideMesh) {
  // Degree 0 disables eager mesh push entirely, leaving IHAVE/IWANT
  // gossip as the only propagation path.
  pubsub::PubsubConfig config;
  config.with_degree(0, 0, 0);
  auto s = scenario::ScenarioBuilder()
               .peers(2)
               .seed(7)
               .single_region(20.0)
               .pubsub(true)
               .pubsub_config(config)
               .build();
  std::vector<DeliveryLog> logs;
  subscribe_all(s, logs);
  s.simulator().run_until(sim::seconds(5));

  ASSERT_TRUE(s.pubsub(0).mesh_peers(kTopic).empty());
  const auto id = s.pubsub(0).publish(kTopic, {0x01});
  s.simulator().run_until(sim::seconds(20));

  ASSERT_TRUE(logs[1].contains(id)) << "gossip never recovered the message";
  EXPECT_EQ(logs[1][id], 1);
  EXPECT_GE(
      s.network().metrics().counter_value("pubsub.gossip_recovered"), 1u);
}

TEST(Pubsub, UnsubscribeLeavesTheMesh) {
  auto s = pubsub_swarm(12);
  std::vector<DeliveryLog> logs;
  subscribe_all(s, logs);
  s.simulator().run_until(sim::seconds(20));

  s.pubsub(0).unsubscribe(kTopic);
  s.simulator().run_until(sim::seconds(30));

  EXPECT_FALSE(s.pubsub(0).subscribed(kTopic));
  EXPECT_TRUE(s.pubsub(0).mesh_peers(kTopic).empty());
  for (std::size_t i = 1; i < s.size(); ++i) {
    const auto mesh = s.pubsub(i).mesh_peers(kTopic);
    EXPECT_EQ(std::find(mesh.begin(), mesh.end(), s.node(0)), mesh.end())
        << "node " << i << " kept the unsubscribed node meshed";
  }

  const std::size_t before = logs[0].size();
  s.pubsub(3).publish(kTopic, {0x02});
  s.simulator().run_until(sim::seconds(40));
  EXPECT_EQ(logs[0].size(), before) << "unsubscribed node still delivering";
}

TEST(Pubsub, MeshRepairsAfterNodesLeaveForGood) {
  auto s = pubsub_swarm(24);
  std::vector<DeliveryLog> logs;
  subscribe_all(s, logs);
  s.simulator().run_until(sim::seconds(20));

  // A quarter of the swarm goes offline and never comes back.
  std::set<sim::NodeId> removed;
  for (std::size_t i = 0; i < 6; ++i) {
    removed.insert(s.node(i));
    s.network().set_online(s.node(i), false);
  }
  s.simulator().run_until(sim::minutes(2));

  const auto& config = s.pubsub(6).config();
  for (std::size_t i = 6; i < s.size(); ++i) {
    const auto mesh = s.pubsub(i).mesh_peers(kTopic);
    for (const auto member : mesh)
      EXPECT_FALSE(removed.contains(member))
          << "node " << i << " still meshes a removed peer";
    EXPECT_GE(mesh.size(), static_cast<std::size_t>(config.degree_lo))
        << "node " << i << " did not re-mesh after removals";
    EXPECT_LE(mesh.size(), static_cast<std::size_t>(config.degree_hi));
  }

  // The repaired mesh still routes.
  const auto id = s.pubsub(6).publish(kTopic, {0x03});
  s.simulator().run_until(sim::minutes(2) + sim::seconds(30));
  for (std::size_t i = 6; i < s.size(); ++i) {
    ASSERT_TRUE(logs[i].contains(id))
        << "node " << i << " unreachable after mesh repair";
    EXPECT_EQ(logs[i][id], 1);
  }
}

TEST(Pubsub, MeshRepairsAfterFaultPlanCrashRestarts) {
  sim::FaultConfig fault_config;
  fault_config.crashes_per_hour_per_node = 30.0;  // ~every 2 min per node
  fault_config.min_downtime = sim::seconds(5);
  fault_config.max_downtime = sim::seconds(20);

  auto s = scenario::ScenarioBuilder()
               .peers(20)
               .seed(11)
               .single_region(20.0)
               .pubsub(true)
               .faults(fault_config)
               .build();
  std::vector<DeliveryLog> logs;
  subscribe_all(s, logs);

  // Crash semantics: the engine loses all soft state; the application
  // re-subscribes and re-seeds candidates on restart (like IpfsNode's
  // bootstrap path does).
  s.faults()->add_crash_listener([&s, &logs](sim::NodeId node, bool online) {
    std::size_t i = 0;
    while (i < s.size() && s.node(i) != node) ++i;
    if (i == s.size()) return;
    if (!online) {
      s.pubsub(i).handle_crash();
      return;
    }
    s.pubsub(i).handle_restart();
    for (std::size_t j = 0; j < s.size(); ++j)
      if (j != i) s.pubsub(i).add_candidate_peer(s.node(j));
    s.pubsub(i).subscribe(
        kTopic, [&logs, i](const PubsubMessage& m) { ++logs[i][m.id]; });
  });
  for (std::size_t i = 0; i < s.size(); ++i)
    s.faults()->manage_crashes(s.node(i));

  s.faults()->arm();
  s.simulator().run_until(sim::minutes(10));
  s.faults()->disarm();
  // Quiet period: every downed node has restarted; meshes re-converge.
  s.simulator().run_until(sim::minutes(12));

  ASSERT_GT(s.faults()->counters().crashes, 0u) << "fault plan never fired";

  const auto& config = s.pubsub(0).config();
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto mesh = s.pubsub(i).mesh_peers(kTopic);
    EXPECT_GE(mesh.size(), static_cast<std::size_t>(config.degree_lo))
        << "node " << i << " under-meshed after crash churn";
    EXPECT_LE(mesh.size(), static_cast<std::size_t>(config.degree_hi));
  }

  // At-most-once must have held throughout the churn.
  for (std::size_t i = 0; i < s.size(); ++i)
    for (const auto& [id, count] : logs[i])
      EXPECT_LE(count, 1) << "node " << i << " double-delivered during churn";

  // And the repaired overlay still floods edge to edge.
  const auto id = s.pubsub(0).publish(kTopic, {0x04});
  s.simulator().run_until(sim::minutes(13));
  for (std::size_t i = 0; i < s.size(); ++i) {
    ASSERT_TRUE(logs[i].contains(id))
        << "node " << i << " unreachable after crash churn";
    EXPECT_EQ(logs[i][id], 1);
  }
}

}  // namespace
}  // namespace ipfs
