// The telemetry plane: metrics registry semantics, per-message trace
// spans across the pubsub/rtp/net stack, the decision audit log, and the
// SNMP self-export subtree (DESIGN.md §9).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "collabqos/core/decision_audit.hpp"
#include "collabqos/pubsub/peer.hpp"
#include "collabqos/snmp/agent.hpp"
#include "collabqos/snmp/manager.hpp"
#include "collabqos/snmp/telemetry_mib.hpp"
#include "collabqos/telemetry/metrics.hpp"
#include "collabqos/telemetry/trace.hpp"
#include "support/reference_walk.hpp"

namespace collabqos {
namespace {

using telemetry::InstrumentKind;
using telemetry::MetricsRegistry;

// ------------------------------------------------------------ registry

TEST(MetricsRegistry, FamiliesSumAttachedInstruments) {
  MetricsRegistry registry;
  telemetry::Counter a;
  telemetry::Counter b;
  auto ra = registry.attach("x.events", a);
  auto rb = registry.attach("x.events", b);
  ++a;
  a += 2;
  ++b;
  EXPECT_EQ(registry.read("x.events"), 4.0);
  EXPECT_EQ(a.value(), 3u);  // per-instance view stays exact
  EXPECT_EQ(b.value(), 1u);
}

TEST(MetricsRegistry, DetachedCounterValuesAreRetained) {
  MetricsRegistry registry;
  telemetry::Counter a;
  {
    auto ra = registry.attach("x.events", a);
    ++a;
    EXPECT_EQ(registry.read("x.events"), 1.0);
  }
  // Instrument gone; family, export id and the counter's contribution
  // persist (counter families are process-lifetime monotonic).
  EXPECT_EQ(registry.read("x.events"), 1.0);
  EXPECT_EQ(registry.family_count(), 1u);
  EXPECT_GT(registry.export_id("x.events"), 0u);
  telemetry::Counter b;
  auto rb = registry.attach("x.events", b);
  b += 2;
  EXPECT_EQ(registry.read("x.events"), 3.0);
}

TEST(MetricsRegistry, DetachedGaugesLeaveNoResidue) {
  MetricsRegistry registry;
  telemetry::Gauge g;
  {
    auto rg = registry.attach("x.level", g);
    g.set(5.0);
    EXPECT_EQ(registry.read("x.level"), 5.0);
  }
  // A gauge is a level, not a cumulative count: gone means gone.
  EXPECT_EQ(registry.read("x.level"), 0.0);
  EXPECT_EQ(registry.family_count(), 1u);
}

TEST(MetricsRegistry, OwnedInstrumentsAreStableAcrossLookups) {
  MetricsRegistry registry;
  telemetry::Counter& c1 = registry.counter("y.count");
  ++c1;
  telemetry::Counter& c2 = registry.counter("y.count");
  EXPECT_EQ(&c1, &c2);
  EXPECT_EQ(registry.read("y.count"), 1.0);
}

TEST(MetricsRegistry, SnapshotIsNameSortedAndTyped) {
  MetricsRegistry registry;
  (void)registry.counter("b.count");
  registry.gauge("a.level").set(2.5);
  const auto samples = registry.snapshot();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].name, "a.level");
  EXPECT_EQ(samples[0].kind, InstrumentKind::gauge);
  EXPECT_EQ(samples[0].value, 2.5);
  EXPECT_EQ(samples[1].name, "b.count");
  EXPECT_EQ(samples[1].kind, InstrumentKind::counter);
}

TEST(MetricsRegistry, ExportIdsAreStableAndDenseInCreationOrder) {
  MetricsRegistry registry;
  (void)registry.counter("first");
  (void)registry.counter("second");
  const auto id_first = registry.export_id("first");
  const auto id_second = registry.export_id("second");
  EXPECT_EQ(id_second, id_first + 1);
  (void)registry.counter("first");  // find, not create
  EXPECT_EQ(registry.export_id("first"), id_first);
  EXPECT_EQ(registry.export_id("unknown"), 0u);
  const auto directory = registry.export_directory();
  ASSERT_EQ(directory.size(), 2u);
  EXPECT_EQ(directory[0].name, "first");
  EXPECT_EQ(directory[1].name, "second");
}

// -------------------------------------------------------------- tracer

TEST(Tracer, RecordsDrainOldestFirstAndBoundTheRing) {
  telemetry::Tracer& tracer = telemetry::Tracer::global();
  tracer.clear();
  tracer.set_capacity(3);
  for (int i = 0; i < 5; ++i) {
    telemetry::Span span;
    span.trace_id = static_cast<std::uint64_t>(i);
    span.name = "stage";
    tracer.record(std::move(span));
  }
  EXPECT_EQ(tracer.size(), 3u);
  EXPECT_EQ(tracer.dropped(), 2u);
  const auto spans = tracer.drain();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].trace_id, 2u);
  EXPECT_EQ(spans[2].trace_id, 4u);
  EXPECT_EQ(tracer.size(), 0u);
  tracer.set_capacity(telemetry::Tracer::kDefaultCapacity);
}

TEST(Tracer, SpanTagLooksUpByKey) {
  telemetry::Span span;
  span.name = "pubsub.match";
  span.tags.emplace_back("verdict", "accepted");
  EXPECT_EQ(*span.tag("verdict"), "accepted");
  EXPECT_EQ(span.tag("missing"), nullptr);
}

TEST(Tracer, JsonlEscapesQuotesBackslashesAndControlChars) {
  EXPECT_EQ(telemetry::json_escape("plain"), "plain");
  EXPECT_EQ(telemetry::json_escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(telemetry::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(telemetry::json_escape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(telemetry::json_escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(MakeTraceId, ConcatenatesSsrcAndTimestamp) {
  EXPECT_EQ(telemetry::make_trace_id(0, 0), 0u);
  EXPECT_EQ(telemetry::make_trace_id(1, 2), (1ull << 32) | 2u);
  EXPECT_EQ(telemetry::make_trace_id(0xFFFFFFFFu, 0xFFFFFFFFu),
            ~std::uint64_t{0});
}

// ------------------------------------------------------ decision audit

TEST(DecisionAuditLog, RecordsRoundTripToJsonl) {
  auto& audit = core::DecisionAuditLog::global();
  audit.clear();
  audit.set_enabled(true);
  core::DecisionRecord record;
  record.time = sim::TimePoint{} + sim::Duration::seconds(12.25);
  record.client = "station-a";
  record.inputs.set("cpu.load", 82);
  record.contract_min_packets = 0;
  record.contract_max_packets = 16;
  record.decision.packets = 4;
  record.decision.modality = media::Modality::image;
  record.decision.matched_rules.push_back("cpu-ladder");
  audit.record(std::move(record));
  EXPECT_EQ(audit.size(), 1u);
  const auto records = audit.drain();
  ASSERT_EQ(records.size(), 1u);
  const std::string line = core::DecisionAuditLog::to_jsonl(records[0]);
  EXPECT_NE(line.find("\"client\":\"station-a\""), std::string::npos);
  EXPECT_NE(line.find("\"cpu.load\""), std::string::npos);
  EXPECT_NE(line.find("\"max_packets\":16"), std::string::npos);
  EXPECT_NE(line.find("\"packets\":4"), std::string::npos);
  EXPECT_NE(line.find("cpu-ladder"), std::string::npos);
  audit.set_enabled(false);
}

TEST(DecisionAuditLog, JsonlInputsFollowNamesNotInternOrder) {
  // Interned in reverse alphabetical order: the set holds them that way,
  // the line by name.
  core::DecisionRecord record;
  record.inputs.set("zz.audit.order.last", 1);
  record.inputs.set("aa.audit.order.first", 2);
  record.inputs.set("mm.audit.order.middle", 3);
  ASSERT_EQ(record.inputs.begin()->name(), "zz.audit.order.last");
  const std::string line = core::DecisionAuditLog::to_jsonl(record);
  EXPECT_NE(line.find("\"inputs\":{\"aa.audit.order.first\":\"2\","
                      "\"mm.audit.order.middle\":\"3\","
                      "\"zz.audit.order.last\":\"1\"}"),
            std::string::npos)
      << line;
}

TEST(DecisionAuditLog, RingBoundDropsOldestAndCounts) {
  auto& audit = core::DecisionAuditLog::global();
  audit.clear();
  audit.set_enabled(true);
  audit.set_capacity(2);
  const std::uint64_t dropped_baseline = audit.dropped();
  for (int i = 0; i < 5; ++i) {
    core::DecisionRecord record;
    record.client = "c";
    record.client += std::to_string(i);
    audit.record(std::move(record));
  }
  EXPECT_EQ(audit.size(), 2u);
  EXPECT_EQ(audit.dropped() - dropped_baseline, 3u);
  const auto records = audit.drain();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].client, "c3");
  EXPECT_EQ(records[1].client, "c4");
  audit.set_capacity(core::DecisionAuditLog::kDefaultCapacity);
  audit.set_enabled(false);
}

// --------------------------------------- spans across the 3-peer stack

class TraceIntegrationTest : public ::testing::Test {
 protected:
  static constexpr net::GroupId kGroup = net::make_group(0xE0000001);

  void SetUp() override {
    telemetry::Tracer::global().clear();
    telemetry::Tracer::global().set_enabled(true);
  }
  void TearDown() override {
    telemetry::Tracer::global().set_enabled(false);
    telemetry::Tracer::global().clear();
  }

  std::unique_ptr<pubsub::SemanticPeer> make_peer(const std::string& name,
                                                  std::uint64_t id) {
    const net::NodeId node = network_.add_node(name);
    return std::make_unique<pubsub::SemanticPeer>(network_, node, kGroup, id);
  }

  pubsub::SemanticMessage image_message() {
    pubsub::SemanticMessage message;
    message.selector =
        pubsub::Selector::parse("exists capability.image").take();
    message.content.set("media.type", "image");
    message.event_type = "media.share";
    message.payload = serde::ByteChain(serde::Bytes(4096, 0x42));
    return message;
  }

  sim::Simulator sim_;
  net::Network network_{sim_, 42};
};

TEST_F(TraceIntegrationTest, OnePublishYieldsSpansAtEveryLayer) {
  auto alice = make_peer("alice", 1);
  auto bob = make_peer("bob", 2);
  auto carol = make_peer("carol", 3);
  bob->profile().set("capability.image", true);
  carol->profile().set("capability.image", true);

  ASSERT_TRUE(alice->publish(image_message()).ok());
  sim_.run_all();
  // A second identical publish exercises the receivers' selector caches.
  ASSERT_TRUE(alice->publish(image_message()).ok());
  sim_.run_all();
  ASSERT_EQ(bob->stats().accepted, 2u);
  ASSERT_EQ(carol->stats().accepted, 2u);

  const auto spans = telemetry::Tracer::global().drain();
  ASSERT_FALSE(spans.empty());

  // Group by trace id; each publish has a distinct (ssrc, timestamp).
  std::vector<std::uint64_t> publish_ids;
  for (const auto& span : spans) {
    if (span.name == "pubsub.publish") publish_ids.push_back(span.trace_id);
  }
  ASSERT_EQ(publish_ids.size(), 2u);
  EXPECT_NE(publish_ids[0], publish_ids[1]);

  for (std::size_t message_index = 0; message_index < 2; ++message_index) {
    const std::uint64_t id = publish_ids[message_index];
    const telemetry::Span* publish = nullptr;
    std::vector<const telemetry::Span*> matches;
    std::size_t transits = 0;
    std::size_t reassembles = 0;
    for (const auto& span : spans) {
      if (span.trace_id != id) continue;
      if (span.name == "pubsub.publish") publish = &span;
      if (span.name == "net.transit") ++transits;
      if (span.name == "rtp.reassemble") ++reassembles;
      if (span.name == "pubsub.match") matches.push_back(&span);
    }
    ASSERT_NE(publish, nullptr);
    EXPECT_EQ(publish->actor, 1u);
    // 4 KiB fragments into several datagrams; both receivers hear each.
    EXPECT_GE(transits, 2u);
    EXPECT_EQ(reassembles, 2u);
    ASSERT_EQ(matches.size(), 2u);
    for (const telemetry::Span* match : matches) {
      EXPECT_TRUE(match->actor == 2 || match->actor == 3);
      ASSERT_NE(match->tag("verdict"), nullptr);
      EXPECT_EQ(*match->tag("verdict"), "accepted");
      ASSERT_NE(match->tag("cache"), nullptr);
      // The repeat publish hits the compiled-selector cache.
      if (message_index == 1) {
        EXPECT_EQ(*match->tag("cache"), "hit");
      }
      // Sim-time monotonicity along the message's path.
      EXPECT_GE(match->end, publish->start);
    }
    for (const auto& span : spans) {
      if (span.trace_id != id) continue;
      EXPECT_GE(span.start, publish->start);
      EXPECT_GE(span.end, span.start);
    }
  }
}

// ------------------------------------------------- SNMP self-export

TEST(TelemetryMib, ManagerWalksRegistryAndReadsLiveCounters) {
  sim::Simulator sim;
  net::Network network{sim, 7};
  constexpr net::GroupId kGroup = net::make_group(0xE0000002);

  // Peers from earlier tests in this binary retired their counters into
  // these families; the walk sees process totals, so compare deltas.
  auto& registry = MetricsRegistry::global();
  const double accepted_baseline = registry.read("pubsub.peer.accepted");
  const double hits_baseline = registry.read("pubsub.selector_cache.hits");

  const net::NodeId node_a = network.add_node("a");
  const net::NodeId node_b = network.add_node("b");
  const net::NodeId node_c = network.add_node("c");
  auto alice = std::make_unique<pubsub::SemanticPeer>(network, node_a,
                                                      kGroup, 11);
  auto bob = std::make_unique<pubsub::SemanticPeer>(network, node_b,
                                                    kGroup, 12);
  auto carol = std::make_unique<pubsub::SemanticPeer>(network, node_c,
                                                      kGroup, 13);
  for (int i = 0; i < 3; ++i) {
    pubsub::SemanticMessage message;
    message.selector = pubsub::Selector::parse("role == 'viewer'").take();
    message.event_type = "media.share";
    message.payload = serde::ByteChain(serde::Bytes(64, 0x7));
    bob->profile().set("role", "viewer");
    carol->profile().set("role", "viewer");
    ASSERT_TRUE(alice->publish(std::move(message)).ok());
    sim.run_all();
  }
  const std::uint64_t accepted_total =
      alice->stats().accepted + bob->stats().accepted +
      carol->stats().accepted;
  const std::uint64_t cache_hits_total =
      alice->selector_cache_stats().hits + bob->selector_cache_stats().hits +
      carol->selector_cache_stats().hits;
  ASSERT_GT(accepted_total, 0u);
  ASSERT_GT(cache_hits_total, 0u);

  const net::NodeId agent_node = network.add_node("agent-host");
  const net::NodeId manager_node = network.add_node("manager-host");
  snmp::Agent agent(network, agent_node, "public", "secret");
  snmp::Manager manager(network, manager_node);
  // Install after every component exists: the directory snapshot covers
  // families known at install time (re-install picks up later ones).
  snmp::install_telemetry_instrumentation(agent);

  Result<std::vector<snmp::VarBind>> walked = Error{Errc::internal, ""};
  snmp::reference::getnext_walk(
      manager, agent_node, "public", snmp::oids::tassl_telemetry_root(),
      [&](Result<std::vector<snmp::VarBind>> r) { walked = std::move(r); });
  sim.run_all();
  ASSERT_TRUE(walked.ok());

  const std::size_t families = registry.family_count();
  // Subtree: 1 count object + (name, value) per family.
  ASSERT_EQ(walked.value().size(), 1 + 2 * families);
  for (std::size_t i = 1; i < walked.value().size(); ++i) {
    EXPECT_LT(walked.value()[i - 1].oid, walked.value()[i].oid);
  }
  auto count = walked.value()[0].value.as_unsigned();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), families);

  const auto walked_value = [&](std::string_view family)
      -> std::optional<std::uint64_t> {
    const auto id = registry.export_id(family);
    if (id == 0) return std::nullopt;
    const snmp::Oid target = snmp::oids::tassl_telemetry_value(id);
    for (const auto& binding : walked.value()) {
      if (binding.oid == target) {
        auto value = binding.value.as_unsigned();
        if (!value.ok()) return std::nullopt;
        return value.value();
      }
    }
    return std::nullopt;
  };
  // The acceptance bar: the SNMP view equals the legacy struct view.
  const auto accepted = walked_value("pubsub.peer.accepted");
  ASSERT_TRUE(accepted.has_value());
  EXPECT_EQ(*accepted,
            static_cast<std::uint64_t>(accepted_baseline) + accepted_total);
  const auto hits = walked_value("pubsub.selector_cache.hits");
  ASSERT_TRUE(hits.has_value());
  EXPECT_EQ(*hits,
            static_cast<std::uint64_t>(hits_baseline) + cache_hits_total);

  // Names are exported alongside values.
  const snmp::Oid name_oid = snmp::oids::tassl_telemetry_name(
      registry.export_id("pubsub.peer.accepted"));
  bool found_name = false;
  for (const auto& binding : walked.value()) {
    if (binding.oid == name_oid) {
      auto octets = binding.value.as_octets();
      ASSERT_TRUE(octets.ok());
      EXPECT_EQ(octets.value(), "pubsub.peer.accepted");
      found_name = true;
    }
  }
  EXPECT_TRUE(found_name);
}

}  // namespace
}  // namespace collabqos
