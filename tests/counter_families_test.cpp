// Pins the telemetry families every counter-owning component registers:
// exact names, instrument kinds and registration order. SNMP export ids
// (snmp/telemetry_mib.hpp), the SLO rules and perfbench all key on these
// names, and MetricsRegistry::read answers 0.0 for a name it does not
// know, so a renamed or dropped family would otherwise pass silently.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "collabqos/chaos/controller.hpp"
#include "collabqos/core/basestation_peer.hpp"
#include "collabqos/net/network.hpp"
#include "collabqos/net/rtp.hpp"
#include "collabqos/observatory/alerts.hpp"
#include "collabqos/observatory/series.hpp"
#include "collabqos/pubsub/peer.hpp"
#include "collabqos/pubsub/roster.hpp"
#include "collabqos/pubsub/selector_cache.hpp"
#include "collabqos/snmp/agent.hpp"
#include "collabqos/snmp/manager.hpp"
#include "collabqos/telemetry/metrics.hpp"
#include "collabqos/telemetry/pipeline.hpp"

namespace collabqos {
namespace {

/// (family name, instrument kind) in export-id order.
using Families = std::vector<std::pair<std::string, std::string>>;

/// Families that `construct` adds to the global registry. Export ids are
/// dense in creation order, so the new families are the directory's tail.
Families families_added_by(const std::function<void()>& construct) {
  auto& registry = telemetry::MetricsRegistry::global();
  const std::size_t before = registry.export_directory().size();
  construct();
  std::map<std::string, std::string> kinds;
  for (const auto& sample : registry.snapshot()) {
    kinds[sample.name] = std::string(telemetry::to_string(sample.kind));
  }
  Families added;
  const auto directory = registry.export_directory();
  for (std::size_t i = before; i < directory.size(); ++i) {
    const std::string& name = directory[i].name;
    added.emplace_back(name, kinds[name]);
  }
  return added;
}

Families counters(const std::vector<std::string>& names) {
  Families families;
  for (const auto& name : names) families.emplace_back(name, "counter");
  return families;
}

constexpr net::GroupId kGroup = net::make_group(0xE0000001);

// Must run first in its process (ctest runs every test in its own): a
// family that already exists is not "added" again.
TEST(CounterFamilies, EachComponentRegistersItsPinnedFamiliesInOrder) {
  sim::Simulator sim;
  std::unique_ptr<net::Network> network;
  EXPECT_EQ(families_added_by([&] {
              network = std::make_unique<net::Network>(sim, 1);
            }),
            counters({"net.datagrams.sent",
                      "net.datagrams.delivered",
                      "net.datagrams.dropped_loss",
                      "net.datagrams.dropped_unbound",
                      "net.bytes.delivered",
                      "net.datagrams.dropped_fault",
                      "net.datagrams.duplicated",
                      "net.datagrams.corrupted"}));

  std::vector<net::NodeId> nodes;
  EXPECT_EQ(families_added_by([&] {
              for (const char* name : {"peer", "server", "client", "snmp",
                                       "station"}) {
                nodes.push_back(network->add_node(name));
              }
            }),
            counters({"net.node.datagrams_in",
                      "net.node.datagrams_out",
                      "net.node.bytes_in",
                      "net.node.bytes_out"}));

  std::unique_ptr<net::RtpReceiver> receiver;
  Families rtp = counters({"rtp.reassembly.evicted"});
  rtp.emplace_back("rtp.reassembly.pending_bytes", "gauge");
  EXPECT_EQ(families_added_by([&] {
              receiver = std::make_unique<net::RtpReceiver>();
            }),
            rtp);

  std::unique_ptr<pubsub::SelectorCache> cache;
  EXPECT_EQ(families_added_by(
                [&] { cache = std::make_unique<pubsub::SelectorCache>(); }),
            counters({"pubsub.selector_cache.hits",
                      "pubsub.selector_cache.misses",
                      "pubsub.selector_cache.collisions",
                      "pubsub.selector_cache.evictions"}));

  std::unique_ptr<pubsub::SemanticPeer> peer;
  EXPECT_EQ(families_added_by([&] {
              peer = std::make_unique<pubsub::SemanticPeer>(
                  *network, nodes[0], kGroup, 1);
            }),
            counters({"pubsub.peer.published",
                      "pubsub.peer.received_objects",
                      "pubsub.peer.undecodable",
                      "pubsub.peer.incomplete_dropped",
                      "pubsub.peer.rejected",
                      "pubsub.peer.accepted",
                      "pubsub.peer.accepted_with_transformation",
                      "pubsub.peer.nacks_sent",
                      "pubsub.peer.nacks_received",
                      "pubsub.peer.retransmissions"}));

  std::unique_ptr<pubsub::baseline::NamingServer> server;
  EXPECT_EQ(families_added_by([&] {
              server = std::make_unique<pubsub::baseline::NamingServer>(
                  *network, nodes[1]);
            }),
            counters({"baseline.naming_server.registrations",
                      "baseline.naming_server.roster_pushes",
                      "baseline.naming_server.roster_bytes"}));

  std::unique_ptr<pubsub::baseline::NamedClient> client;
  EXPECT_EQ(families_added_by([&] {
              client = std::make_unique<pubsub::baseline::NamedClient>(
                  *network, nodes[2], "client", server->address());
            }),
            counters({"baseline.named_client.sent_unicasts",
                      "baseline.named_client.sent_bytes",
                      "baseline.named_client.delivered",
                      "baseline.named_client.roster_updates"}));

  std::unique_ptr<snmp::Agent> agent;
  EXPECT_EQ(families_added_by([&] {
              agent = std::make_unique<snmp::Agent>(*network, nodes[3],
                                                    "public", "private");
            }),
            counters({"snmp.agent.requests",
                      "snmp.agent.auth_failures",
                      "snmp.agent.malformed",
                      "snmp.agent.responses",
                      "snmp.agent.traps_sent"}));

  std::unique_ptr<snmp::Manager> manager;
  EXPECT_EQ(families_added_by([&] {
              manager = std::make_unique<snmp::Manager>(*network, nodes[3]);
            }),
            counters({"snmp.manager.requests",
                      "snmp.manager.responses",
                      "snmp.manager.timeouts",
                      "snmp.manager.retries",
                      "snmp.manager.traps_received"}));

  std::unique_ptr<core::BaseStationPeer> base_station;
  core::SessionInfo session;
  session.group = kGroup;
  EXPECT_EQ(families_added_by([&] {
              base_station = std::make_unique<core::BaseStationPeer>(
                  *network, nodes[4], session, 2);
            }),
            counters({"core.base_station.uplink_events",
                      "core.base_station.multicast_relayed",
                      "core.base_station.downlink_unicasts",
                      "core.base_station.suppressed_by_grade",
                      "core.base_station.suppressed_by_profile",
                      "core.base_station.adaptation_failures",
                      "core.base_station.outage_dropped"}));

  std::unique_ptr<chaos::ChaosController> controller;
  EXPECT_EQ(families_added_by([&] {
              controller = std::make_unique<chaos::ChaosController>(*network);
            }),
            counters({"chaos.faults_injected",
                      "chaos.faults_cleared",
                      "chaos.datagrams_dropped",
                      "chaos.datagrams_delayed",
                      "chaos.datagrams_duplicated",
                      "chaos.datagrams_corrupted",
                      "chaos.unresolved_names"}));

  std::unique_ptr<observatory::TimeSeriesSampler> sampler;
  EXPECT_EQ(families_added_by([&] {
              sampler = std::make_unique<observatory::TimeSeriesSampler>(
                  sim, telemetry::MetricsRegistry::global());
            }),
            counters({"observatory.sampler.ticks",
                      "observatory.sampler.local_points",
                      "observatory.sampler.remote_walks",
                      "observatory.sampler.remote_points",
                      "observatory.sampler.remote_failures"}));

  std::unique_ptr<observatory::AlertEngine> engine;
  Families alerts = counters({"observatory.alerts.evaluations",
                              "observatory.alerts.raised",
                              "observatory.alerts.cleared",
                              "observatory.alerts.published"});
  alerts.emplace_back("observatory.alerts.active", "gauge");
  EXPECT_EQ(families_added_by([&] {
              engine = std::make_unique<observatory::AlertEngine>(*sampler);
            }),
            alerts);

  EXPECT_EQ(families_added_by(
                [] { (void)telemetry::PipelineCounters::global(); }),
            counters({"pipeline.bytes_copied.encode",
                      "pipeline.bytes_copied.packet_decode",
                      "pipeline.bytes_copied.message_decode",
                      "pipeline.bytes_copied.gather",
                      "pipeline.bytes_copied.media",
                      "pipeline.bytes_copied.chaos_corrupt",
                      "pipeline.bytes_copied.total"}));
}

/// Registry family values, read before a session starts.
std::map<std::string, double> read_families(
    const std::vector<std::string>& names) {
  std::map<std::string, double> values;
  for (const auto& name : names) {
    values[name] = telemetry::MetricsRegistry::global().read(name);
  }
  return values;
}

TEST(CounterFamilies, PeerAndNetworkStatsEqualTheirFamilyDeltas) {
  const std::vector<std::string> peer_families = {
      "pubsub.peer.published",
      "pubsub.peer.received_objects",
      "pubsub.peer.undecodable",
      "pubsub.peer.incomplete_dropped",
      "pubsub.peer.rejected",
      "pubsub.peer.accepted",
      "pubsub.peer.accepted_with_transformation",
      "pubsub.peer.nacks_sent",
      "pubsub.peer.nacks_received",
      "pubsub.peer.retransmissions"};
  const std::vector<std::string> network_families = {
      "net.datagrams.sent",          "net.datagrams.delivered",
      "net.datagrams.dropped_loss",  "net.datagrams.dropped_unbound",
      "net.bytes.delivered",         "net.datagrams.dropped_fault",
      "net.datagrams.duplicated",    "net.datagrams.corrupted"};
  std::vector<std::string> names = peer_families;
  names.insert(names.end(), network_families.begin(), network_families.end());
  const auto before = read_families(names);

  sim::Simulator sim;
  net::Network network(sim, 11);
  const net::NodeId alice_node = network.add_node("alice");
  net::LinkParams lossy;
  lossy.loss_probability = 0.2;
  const net::NodeId bob_node = network.add_node("bob", lossy);
  pubsub::SemanticPeer alice(network, alice_node, kGroup, 1);
  pubsub::SemanticPeer bob(network, bob_node, kGroup, 2);
  bob.profile().set("capability.image", true);

  for (int i = 0; i < 8; ++i) {
    pubsub::SemanticMessage image;
    image.selector = pubsub::Selector::parse("exists capability.image").take();
    image.content.set("media.type", "image");
    image.event_type = "media.share";
    image.payload = serde::ByteChain(serde::Bytes(6000, 0x42));
    ASSERT_TRUE(alice.publish(std::move(image)).ok());
    pubsub::SemanticMessage note;
    note.selector = pubsub::Selector::parse("exists capability.image").take();
    note.content.set("media.type", "text");
    note.event_type = "chat.post";
    note.payload = {1, 2, 3};
    ASSERT_TRUE(bob.publish(std::move(note)).ok());
    sim.run_until(sim.now() + sim::Duration::seconds(1.0));
  }
  sim.run_all();

  const auto delta = [&](const std::string& name) {
    return static_cast<std::uint64_t>(
        telemetry::MetricsRegistry::global().read(name) - before.at(name));
  };
  const pubsub::PeerStats a = alice.stats();
  const pubsub::PeerStats b = bob.stats();
  const std::vector<std::uint64_t> peer_sums = {
      a.published + b.published,
      a.received_objects + b.received_objects,
      a.undecodable + b.undecodable,
      a.incomplete_dropped + b.incomplete_dropped,
      a.rejected + b.rejected,
      a.accepted + b.accepted,
      a.accepted_with_transformation + b.accepted_with_transformation,
      a.nacks_sent + b.nacks_sent,
      a.nacks_received + b.nacks_received,
      a.retransmissions + b.retransmissions};
  for (std::size_t i = 0; i < peer_families.size(); ++i) {
    EXPECT_EQ(peer_sums[i], delta(peer_families[i])) << peer_families[i];
  }
  EXPECT_EQ(a.published, 8u);
  EXPECT_EQ(b.published, 8u);
  EXPECT_GT(b.accepted, 0u);
  EXPECT_GT(a.rejected, 0u);  // alice lacks capability.image
  EXPECT_GT(a.nacks_received, 0u);

  const net::NetworkStats n = network.stats();
  const std::vector<std::uint64_t> network_values = {
      n.datagrams_sent,          n.datagrams_delivered,
      n.datagrams_dropped_loss,  n.datagrams_dropped_unbound,
      n.bytes_delivered,         n.datagrams_dropped_fault,
      n.datagrams_duplicated,    n.datagrams_corrupted};
  for (std::size_t i = 0; i < network_families.size(); ++i) {
    EXPECT_EQ(network_values[i], delta(network_families[i]))
        << network_families[i];
  }
  EXPECT_GT(n.datagrams_delivered, 0u);
  EXPECT_GT(n.datagrams_dropped_loss, 0u);
}

}  // namespace
}  // namespace collabqos
