// Metrics-layer tests: registry instruments, span lifecycle, the bounded
// trace stream, JSONL round-trips, and consistency between the trace
// stream and the node-level PublishTrace/RetrievalTrace views derived
// from it.
#include <gtest/gtest.h>

#include <sstream>

#include "metrics/metrics.h"
#include "node/ipfs_node.h"
#include "stats/jsonl.h"
#include "testutil.h"

namespace ipfs {
namespace {

// A registry on a hand-cranked clock, so span durations are exact.
struct ClockedRegistry {
  sim::Time now = 0;
  metrics::Registry registry{[this] { return now; }};
};

TEST(MetricsRegistryTest, CountersAndHistograms) {
  ClockedRegistry clocked;
  auto& registry = clocked.registry;

  registry.counter("a").inc();
  registry.counter("a").inc(4);
  EXPECT_EQ(registry.counter_value("a"), 5u);
  EXPECT_EQ(registry.counter_value("never-touched"), 0u);

  registry.histogram("h").record(sim::seconds(2));
  registry.histogram("h").record(sim::seconds(4));
  EXPECT_EQ(registry.histogram("h").count(), 2u);
  EXPECT_EQ(registry.histogram("h").sum(), sim::seconds(6));
  EXPECT_DOUBLE_EQ(registry.histogram("h").samples_seconds()[1], 4.0);
}

TEST(MetricsRegistryTest, SpanLifecycleFeedsTraceAndHistogram) {
  ClockedRegistry clocked;
  auto& registry = clocked.registry;

  const auto parent = registry.begin_span("op.total", 3, "cid-1");
  clocked.now = 100;
  const auto child = registry.begin_span("op.phase", 3, "cid-1", parent, 9);
  EXPECT_EQ(registry.open_span_count(), 2u);

  clocked.now = 250;
  EXPECT_EQ(registry.end_span(child, true, 42), 150);
  clocked.now = 400;
  EXPECT_EQ(registry.end_span(parent, false), 400);
  EXPECT_EQ(registry.open_span_count(), 0u);

  // Same-named histogram fed by the span close.
  EXPECT_EQ(registry.histogram("op.phase").count(), 1u);
  EXPECT_EQ(registry.histogram("op.phase").sum(), 150);

  ASSERT_EQ(registry.events().size(), 4u);
  const auto& child_end = registry.events()[2];
  EXPECT_EQ(child_end.kind, metrics::EventKind::kSpanEnd);
  EXPECT_EQ(child_end.name, "op.phase");
  EXPECT_EQ(child_end.parent, parent);
  EXPECT_EQ(child_end.peer, 9u);
  EXPECT_EQ(child_end.value, 42u);
  EXPECT_EQ(child_end.duration, 150);
  EXPECT_TRUE(child_end.ok);
  const auto& parent_end = registry.events()[3];
  EXPECT_FALSE(parent_end.ok);
  EXPECT_EQ(parent_end.duration, 400);
}

TEST(MetricsRegistryTest, EndingUnknownOrClosedSpanIsANoOp) {
  ClockedRegistry clocked;
  auto& registry = clocked.registry;
  const auto span = registry.begin_span("op");
  EXPECT_EQ(registry.end_span(span), 0);
  EXPECT_EQ(registry.end_span(span), 0);          // already closed
  EXPECT_EQ(registry.end_span(span + 1000), 0);   // never existed
  EXPECT_EQ(registry.events().size(), 2u);        // one begin + one end
}

TEST(MetricsRegistryTest, TraceCapacityDropsEventsButNotInstruments) {
  ClockedRegistry clocked;
  auto& registry = clocked.registry;
  registry.set_trace_capacity(3);
  for (int i = 0; i < 5; ++i) {
    registry.instant("tick");
    registry.counter("ticks").inc();
  }
  EXPECT_EQ(registry.events().size(), 3u);
  EXPECT_EQ(registry.trace_dropped(), 2u);
  EXPECT_EQ(registry.counter_value("ticks"), 5u);

  // Span timing survives the full stream: histograms and end_span's
  // return value come from the open-span table, not the event buffer.
  const auto span = registry.begin_span("late.op");
  clocked.now = 70;
  EXPECT_EQ(registry.end_span(span), 70);
  EXPECT_EQ(registry.histogram("late.op").count(), 1u);
}

TEST(MetricsRegistryTest, TraceFilterGatesTheStreamOnly) {
  ClockedRegistry clocked;
  auto& registry = clocked.registry;
  registry.set_trace_filter([](const std::string& name) {
    return name.starts_with("keep.");
  });

  registry.instant("keep.this");
  const auto span = registry.begin_span("drop.that");
  clocked.now = 10;
  EXPECT_EQ(registry.end_span(span), 10);

  ASSERT_EQ(registry.events().size(), 1u);
  EXPECT_EQ(registry.events()[0].name, "keep.this");
  EXPECT_EQ(registry.trace_dropped(), 0u);  // filtered, not dropped
  EXPECT_EQ(registry.histogram("drop.that").count(), 1u);
}

TEST(MetricsJsonlTest, TraceRoundTripsThroughJsonl) {
  ClockedRegistry clocked;
  auto& registry = clocked.registry;

  const auto parent = registry.begin_span("publish.total", 2, "bafy-root");
  clocked.now = 1500;
  const auto child =
      registry.begin_span("publish.walk", 2, "bafy-root", parent, 17);
  clocked.now = 2750;
  registry.end_span(child, true, 123);
  registry.instant("gateway.served.p2p", 4, "bafy-\"quoted\"\n", 999, 5);
  clocked.now = 4000;
  registry.end_span(parent, false);

  std::stringstream jsonl;
  stats::export_trace_jsonl(registry, jsonl);
  const auto parsed = stats::parse_trace_jsonl(jsonl);

  const auto& events = registry.events();
  ASSERT_EQ(parsed.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(parsed[i].kind, events[i].kind) << "event " << i;
    EXPECT_EQ(parsed[i].span, events[i].span);
    EXPECT_EQ(parsed[i].parent, events[i].parent);
    EXPECT_EQ(parsed[i].name, events[i].name);
    EXPECT_EQ(parsed[i].time, events[i].time);
    EXPECT_EQ(parsed[i].node, events[i].node);
    EXPECT_EQ(parsed[i].peer, events[i].peer);
    EXPECT_EQ(parsed[i].cid, events[i].cid);
    EXPECT_EQ(parsed[i].ok, events[i].ok);
    EXPECT_EQ(parsed[i].value, events[i].value);
    EXPECT_EQ(parsed[i].duration, events[i].duration);
  }
}

TEST(MetricsJsonlTest, InstrumentExportCarriesCountersAndHistograms) {
  ClockedRegistry clocked;
  auto& registry = clocked.registry;
  registry.counter("net.dials_attempted").inc(7);
  registry.histogram("net.dial").record(sim::milliseconds(250));

  std::stringstream jsonl;
  stats::export_metrics_jsonl(registry, jsonl);
  const std::string text = jsonl.str();
  EXPECT_NE(text.find(
                R"({"type":"counter","name":"net.dials_attempted","value":7})"),
            std::string::npos);
  EXPECT_NE(text.find(R"("sum_us":250000)"), std::string::npos);

  // Instrument lines are ignored by the trace parser.
  std::stringstream both;
  stats::export_registry_jsonl(registry, both);
  EXPECT_TRUE(stats::parse_trace_jsonl(both).empty());
}

// --- End-to-end: the pipeline's traces are views of the span stream -------

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

class MetricsPipelineTest : public ::testing::Test {
 protected:
  MetricsPipelineTest() : swarm_(80, /*seed=*/23) {
    node::IpfsNodeConfig publisher_config;
    publisher_config.identity_seed = 71;
    publisher_ = std::make_unique<node::IpfsNode>(swarm_.network(),
                                                  publisher_config);
    node::IpfsNodeConfig retriever_config;
    retriever_config.identity_seed = 72;
    retriever_config.provide_after_fetch = false;
    retriever_ = std::make_unique<node::IpfsNode>(swarm_.network(),
                                                  retriever_config);
    std::vector<dht::PeerRef> seeds;
    for (int i = 0; i < 6; ++i) seeds.push_back(swarm_.ref(i));
    publisher_->bootstrap(seeds, [](bool) {});
    retriever_->bootstrap(seeds, [](bool) {});
    swarm_.simulator().run();
  }

  const metrics::TraceEvent* find_span_end(const std::string& name) {
    for (const auto& event : swarm_.network().metrics().events())
      if (event.kind == metrics::EventKind::kSpanEnd && event.name == name)
        return &event;
    return nullptr;
  }

  testutil::TestSwarm swarm_;
  std::unique_ptr<node::IpfsNode> publisher_;
  std::unique_ptr<node::IpfsNode> retriever_;
};

TEST_F(MetricsPipelineTest, TracesAreDerivedViewsOfTheSpanStream) {
  const auto data = random_bytes(600 * 1024, 1);
  node::PublishTrace publish_trace;
  publisher_->publish(data, [&](node::PublishTrace t) { publish_trace = t; });
  swarm_.simulator().run();
  ASSERT_TRUE(publish_trace.ok);

  node::RetrievalTrace trace;
  retriever_->retrieve(publish_trace.cid,
                       [&](node::RetrievalTrace t) { trace = t; });
  swarm_.simulator().run();
  ASSERT_TRUE(trace.ok);

  // Publication phases: the trace's fields ARE the span durations.
  const auto* publish_total = find_span_end("publish.total");
  ASSERT_NE(publish_total, nullptr);
  EXPECT_EQ(publish_total->duration, publish_trace.total);
  EXPECT_EQ(publish_total->node, publisher_->node());
  EXPECT_EQ(publish_total->cid, publish_trace.cid.to_string());
  const auto* walk = find_span_end("publish.walk");
  ASSERT_NE(walk, nullptr);
  EXPECT_EQ(walk->duration, publish_trace.walk);
  EXPECT_EQ(walk->parent, publish_total->span);
  const auto* batch = find_span_end("publish.rpc_batch");
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(batch->duration, publish_trace.rpc_batch);

  // Retrieval: byte counts and timings agree between the RetrievalTrace
  // and the trace stream (the acceptance-criteria consistency check).
  const auto* total = find_span_end("retrieve.total");
  ASSERT_NE(total, nullptr);
  EXPECT_TRUE(total->ok);
  EXPECT_EQ(total->node, retriever_->node());
  EXPECT_EQ(total->cid, trace.cid.to_string());
  EXPECT_EQ(total->value, trace.bytes);
  EXPECT_EQ(total->duration, trace.total);

  const auto* fetch = find_span_end("retrieve.fetch");
  ASSERT_NE(fetch, nullptr);
  EXPECT_EQ(fetch->value, trace.bytes);
  EXPECT_EQ(fetch->duration, trace.fetch);
  EXPECT_EQ(fetch->parent, total->span);

  const auto* discovery = find_span_end("retrieve.bitswap_discovery");
  ASSERT_NE(discovery, nullptr);
  EXPECT_EQ(discovery->duration, trace.bitswap_discovery);
  const auto* provider_walk = find_span_end("retrieve.provider_walk");
  ASSERT_NE(provider_walk, nullptr);
  EXPECT_EQ(provider_walk->duration, trace.provider_walk);
  const auto* dial = find_span_end("retrieve.dial");
  ASSERT_NE(dial, nullptr);
  EXPECT_EQ(dial->duration, trace.dial + trace.negotiate);

  // Fetched bytes also appear on the wire: the network counted at least
  // that much leaving the provider side.
  const auto& registry = swarm_.network().metrics();
  EXPECT_GE(registry.counter_value("net.bytes_sent"), trace.bytes);
  EXPECT_GE(registry.counter_value("bitswap.bytes_received"), trace.bytes);
  EXPECT_GT(registry.counter_value("net.dials_attempted"), 0u);
  EXPECT_GT(registry.counter_value("net.rpcs_sent"), 0u);

  // Every dial, RPC, lookup, and phase span closed by the drain.
  EXPECT_EQ(registry.open_span_count(), 0u);
}

}  // namespace
}  // namespace ipfs
