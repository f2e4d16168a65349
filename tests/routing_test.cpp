// ContentRouter tests, one suite per mode: the DHT baseline walk, the
// delegated indexer path with per-indexer timeout/failover, and the race
// of the two — including the guarantee that an out-raced or crashed DHT
// walk leaves no dangling foreground timers (the drain returns promptly
// instead of waiting out the 3 min lookup deadline).
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "indexer/indexer.h"
#include "routing/router.h"
#include "scenario/scenario.h"
#include "testutil.h"

namespace ipfs::routing {
namespace {

dht::Key test_key(std::uint8_t tag) {
  return dht::Key::hash_of(std::vector<std::uint8_t>{tag, 0x5a});
}

// A converged DHT swarm with `indexers` delegated indexers riding along.
scenario::Scenario make_swarm(std::size_t peers, std::size_t indexers,
                              sim::Duration ingest_lag = sim::seconds(1),
                              std::uint64_t seed = 42) {
  return scenario::ScenarioBuilder()
      .peers(peers)
      .seed(seed)
      .single_region(10.0)
      .dht_servers(true)
      .indexers(indexers)
      .indexer_config(indexer::IndexerConfig().with_ingest_lag(ingest_lag))
      .build();
}

// The scenario's routing config (race mode over its indexers) switched
// to `mode`.
RoutingConfig in_mode(const scenario::Scenario& s, RoutingConfig::Mode mode) {
  RoutingConfig config = s.routing_config();
  config.mode = mode;
  return config;
}

// Publishes `key` into the DHT from node 0 and drains.
void provide_via_dht(scenario::Scenario& s, const dht::Key& key) {
  bool ok = false;
  s.dht(0).provide(key, [&](dht::DhtNode::ProvideResult r) { ok = r.ok; });
  s.simulator().run();
  ASSERT_TRUE(ok);
}

// Advertises `key` to every indexer and waits out the ingest lag.
void advertise_and_ingest(scenario::Scenario& s, const dht::Key& key,
                          const dht::PeerRef& provider) {
  advertise_to_indexers(s.dht(0).transport(), s.routing_config(), key,
                        provider);
  s.simulator().run_until(s.simulator().now() + sim::seconds(5));
}

TEST(DhtRouterTest, FindsProvidersThroughTheWalk) {
  scenario::Scenario s = make_swarm(40, 0);
  const dht::Key key = test_key(1);
  provide_via_dht(s, key);

  ContentRouter router(s.dht(9).transport(), s.dht(9),
                       in_mode(s, RoutingConfig::Mode::kDht));
  std::optional<FindResult> result;
  router.find_providers(key, [&](FindResult r) { result = r; }, 0);
  s.simulator().run();

  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok);
  EXPECT_EQ(result->source, Source::kDht);
  ASSERT_FALSE(result->providers.empty());
  EXPECT_EQ(result->providers[0].provider.id, s.ref(0).id);
}

TEST(IndexerRouterTest, ResolvesInOneRttFromAnIndexer) {
  scenario::Scenario s = make_swarm(2, 1);
  const dht::Key key = test_key(3);
  advertise_and_ingest(s, key, s.ref(0));

  ContentRouter router(s.dht(1).transport(), s.dht(1),
                       in_mode(s, RoutingConfig::Mode::kIndexer));
  std::optional<FindResult> result;
  const sim::Time before = s.simulator().now();
  router.find_providers(key, [&](FindResult r) { result = r; }, 0);
  s.simulator().run();

  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok);
  EXPECT_EQ(result->source, Source::kIndexer);
  ASSERT_FALSE(result->providers.empty());
  EXPECT_EQ(result->providers[0].provider.id, s.ref(0).id);
  EXPECT_LT(s.simulator().now() - before, sim::milliseconds(500));
}

TEST(IndexerRouterTest, EmptyIndexerListFailsImmediately) {
  scenario::Scenario s = make_swarm(2, 0);
  ContentRouter router(s.dht(1).transport(), s.dht(1),
                       in_mode(s, RoutingConfig::Mode::kIndexer));
  std::optional<FindResult> result;
  router.find_providers(test_key(4), [&](FindResult r) { result = r; }, 0);
  ASSERT_TRUE(result.has_value());  // settled synchronously
  EXPECT_FALSE(result->ok);
  EXPECT_EQ(result->source, Source::kNone);
}

TEST(IndexerRouterTest, FailsOverPastACrashedIndexer) {
  scenario::Scenario s = make_swarm(2, 2);
  const dht::Key key = test_key(5);
  advertise_and_ingest(s, key, s.ref(0));

  // First indexer in the config order goes down; the router must carry
  // on to the second.
  s.network().set_online(s.indexer(0).node(), false);
  s.indexer(0).handle_crash();

  ContentRouter router(s.dht(1).transport(), s.dht(1),
                       in_mode(s, RoutingConfig::Mode::kIndexer));
  std::optional<FindResult> result;
  router.find_providers(key, [&](FindResult r) { result = r; }, 0);
  s.simulator().run();

  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok);
  EXPECT_EQ(result->source, Source::kIndexer);
  EXPECT_GE(s.network().metrics().counter("routing.indexer.failover").value(),
            1u);
  EXPECT_EQ(s.simulator().foreground_pending(), 0u);
  EXPECT_EQ(s.network().pending_request_count(), 0u);
}

TEST(IndexerRouterTest, UnresponsiveIndexerTimesOutThenFailsOver) {
  scenario::Scenario s = make_swarm(2, 2);
  const dht::Key key = test_key(6);
  advertise_and_ingest(s, key, s.ref(0));

  // Reachable but mute: the dial succeeds and the query must burn the
  // full per-indexer timeout before failing over.
  s.network().set_request_handler(
      s.indexer(0).node(), [](sim::NodeId, const sim::MessagePtr&, auto) {});

  RoutingConfig config = in_mode(s, RoutingConfig::Mode::kIndexer);
  config.indexer_timeout = sim::seconds(2);
  ContentRouter router(s.dht(1).transport(), s.dht(1), config);
  std::optional<FindResult> result;
  const sim::Time before = s.simulator().now();
  router.find_providers(key, [&](FindResult r) { result = r; }, 0);
  s.simulator().run();

  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok);
  EXPECT_EQ(result->source, Source::kIndexer);
  EXPECT_GE(s.simulator().now() - before, config.indexer_timeout);
}

TEST(IndexerRouterTest, ExhaustedListWithStaleIndexesFails) {
  // The advert never ingests (long lag), so every indexer answers empty
  // and the delegated path reports failure.
  scenario::Scenario s = make_swarm(2, 2, /*ingest_lag=*/sim::hours(1));
  const dht::Key key = test_key(7);
  advertise_to_indexers(s.dht(0).transport(), s.routing_config(), key,
                        s.ref(0));
  s.simulator().run();

  ContentRouter router(s.dht(1).transport(), s.dht(1),
                       in_mode(s, RoutingConfig::Mode::kIndexer));
  std::optional<FindResult> result;
  router.find_providers(key, [&](FindResult r) { result = r; }, 0);
  s.simulator().run();

  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->ok);
  EXPECT_EQ(result->source, Source::kNone);
}

TEST(RaceRouterTest, IndexerWinsAndTheLosingWalkIsPutDown) {
  scenario::Scenario s = make_swarm(40, 1);
  const dht::Key key = test_key(8);
  provide_via_dht(s, key);
  advertise_and_ingest(s, key, s.ref(0));

  ContentRouter router(s.dht(9).transport(), s.dht(9), s.routing_config());
  std::optional<FindResult> result;
  const sim::Time before = s.simulator().now();
  router.find_providers(key, [&](FindResult r) { result = r; }, 0);
  s.simulator().run();

  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok);
  // One RTT to a same-region indexer beats the iterative walk.
  EXPECT_EQ(result->source, Source::kIndexer);
  // The losing walk was cancelled: its 3 min deadline timer is gone and
  // the drain owes nothing.
  EXPECT_LT(s.simulator().now() - before, dht::kLookupDeadline);
  EXPECT_EQ(s.simulator().foreground_pending(), 0u);
  EXPECT_EQ(s.network().pending_request_count(), 0u);
}

TEST(RaceRouterTest, DegradesToTheDhtWhenEveryIndexerIsDown) {
  scenario::Scenario s = make_swarm(40, 2);
  const dht::Key key = test_key(9);
  provide_via_dht(s, key);
  advertise_and_ingest(s, key, s.ref(0));

  for (std::size_t i = 0; i < s.indexer_count(); ++i) {
    s.network().set_online(s.indexer(i).node(), false);
    s.indexer(i).handle_crash();
  }

  ContentRouter router(s.dht(9).transport(), s.dht(9), s.routing_config());
  std::optional<FindResult> result;
  router.find_providers(key, [&](FindResult r) { result = r; }, 0);
  s.simulator().run();

  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok);
  EXPECT_EQ(result->source, Source::kDht);
  ASSERT_FALSE(result->providers.empty());
  EXPECT_EQ(result->providers[0].provider.id, s.ref(0).id);
  EXPECT_EQ(s.simulator().foreground_pending(), 0u);
  EXPECT_EQ(s.network().pending_request_count(), 0u);
}

TEST(RaceRouterTest, CrashAbandonsBothPathsAndClosesTheirSpans) {
  scenario::Scenario s = make_swarm(40, 1);
  const dht::Key key = test_key(10);
  provide_via_dht(s, key);
  advertise_and_ingest(s, key, s.ref(0));
  const sim::Time before = s.simulator().now();
  const metrics::Registry& metrics = s.network().metrics();
  const std::size_t first_event = metrics.events().size();

  ContentRouter router(s.dht(9).transport(), s.dht(9), s.routing_config());
  bool fired = false;
  router.find_providers(key, [&](FindResult) { fired = true; }, 0);
  router.handle_crash();

  // The race span closes first, then the indexer path's span; then the
  // walk is aborted (its lookup span closes) and the walk's span closes.
  std::vector<const metrics::TraceEvent*> ends;
  for (std::size_t i = first_event; i < metrics.events().size(); ++i) {
    const metrics::TraceEvent& event = metrics.events()[i];
    if (event.kind == metrics::EventKind::kSpanEnd &&
        (event.name.starts_with("routing.find.") ||
         event.name.starts_with("dht.lookup.")))
      ends.push_back(&event);
  }
  ASSERT_EQ(ends.size(), 4u);
  EXPECT_EQ(ends[0]->name, "routing.find.race");
  EXPECT_EQ(ends[1]->name, "routing.find.indexer");
  EXPECT_EQ(ends[2]->name, "dht.lookup.get_providers");
  EXPECT_EQ(ends[3]->name, "routing.find.dht");
  for (const metrics::TraceEvent* end : ends) EXPECT_FALSE(end->ok);
  EXPECT_EQ(ends[1]->parent, ends[0]->span);
  EXPECT_EQ(ends[2]->parent, ends[3]->span);
  EXPECT_EQ(ends[3]->parent, ends[0]->span);

  s.simulator().run();
  EXPECT_FALSE(fired);
  // The crash cancelled the walk's deadline timer: nothing held the drain
  // open anywhere near the 3 min lookup deadline.
  EXPECT_LT(s.simulator().now() - before, dht::kLookupDeadline);
  EXPECT_EQ(s.simulator().foreground_pending(), 0u);
  EXPECT_EQ(s.network().pending_request_count(), 0u);
}

TEST(RaceRouterTest, CrashWithTwoLookupsClosesThemInRequestOrder) {
  scenario::Scenario s = make_swarm(40, 1);
  const dht::Key first_key = test_key(11);
  const dht::Key second_key = test_key(12);
  for (const dht::Key& key : {first_key, second_key}) {
    provide_via_dht(s, key);
    advertise_and_ingest(s, key, s.ref(0));
  }
  const sim::Time before = s.simulator().now();
  const metrics::Registry& metrics = s.network().metrics();
  const std::size_t first_event = metrics.events().size();

  ContentRouter router(s.dht(9).transport(), s.dht(9), s.routing_config());
  bool fired = false;
  router.find_providers(first_key, [&](FindResult) { fired = true; }, 0);
  router.find_providers(second_key, [&](FindResult) { fired = true; }, 0);
  router.handle_crash();

  // Each lookup's race span is the parent of its indexer and dht spans.
  std::vector<metrics::SpanId> races;
  std::vector<const metrics::TraceEvent*> ends;
  for (std::size_t i = first_event; i < metrics.events().size(); ++i) {
    const metrics::TraceEvent& event = metrics.events()[i];
    if (!event.name.starts_with("routing.find.")) continue;
    if (event.kind == metrics::EventKind::kSpanBegin &&
        event.name == "routing.find.race")
      races.push_back(event.span);
    if (event.kind == metrics::EventKind::kSpanEnd) ends.push_back(&event);
  }
  ASSERT_EQ(races.size(), 2u);
  ASSERT_EQ(ends.size(), 6u);
  // Race spans, then indexer spans, then dht spans; lookup #1 before #2
  // within each group.
  const char* const names[] = {"routing.find.race",    "routing.find.race",
                               "routing.find.indexer", "routing.find.indexer",
                               "routing.find.dht",     "routing.find.dht"};
  for (std::size_t i = 0; i < ends.size(); ++i) {
    EXPECT_EQ(ends[i]->name, names[i]) << i;
    EXPECT_FALSE(ends[i]->ok) << i;
    const metrics::SpanId lookup = i < 2 ? ends[i]->span : ends[i]->parent;
    EXPECT_EQ(lookup, races[i % 2]) << i;
  }

  s.simulator().run();
  EXPECT_FALSE(fired);
  EXPECT_LT(s.simulator().now() - before, dht::kLookupDeadline);
  EXPECT_EQ(s.simulator().foreground_pending(), 0u);
  EXPECT_EQ(s.network().pending_request_count(), 0u);
}

}  // namespace
}  // namespace ipfs::routing
