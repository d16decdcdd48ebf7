#include "collabqos/chaos/harness.hpp"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <memory>
#include <set>
#include <utility>

#include "collabqos/chaos/controller.hpp"
#include "collabqos/core/archive.hpp"
#include "collabqos/core/basestation_peer.hpp"
#include "collabqos/core/session.hpp"
#include "collabqos/core/thin_client.hpp"
#include "collabqos/net/network.hpp"
#include "collabqos/observatory/alerts.hpp"
#include "collabqos/observatory/series.hpp"
#include "collabqos/pubsub/peer.hpp"
#include "collabqos/telemetry/trace.hpp"
#include "collabqos/util/hash.hpp"

namespace collabqos::chaos {

namespace {

constexpr std::string_view kBlobEvent = "chaos.blob";
/// w0 publishes one multi-fragment object of kPayloadBytes per period.
constexpr sim::Duration kPublishPeriod = sim::Duration::millis(500);
constexpr std::size_t kPayloadBytes = 24 * 1024;
/// Post-heal observation window; it exceeds kAlertClearBoundS.
constexpr double kSettleS = 10.0;
/// Every raised alert must be back at ok no later than the last heal
/// plus this bound.
constexpr double kAlertClearBoundS = 8.0;

std::uint64_t chain_digest(const serde::ByteChain& chain) {
  Fnv1a hash;
  for (const serde::SharedBytes& slice : chain.slices()) {
    hash.update(slice.span());
  }
  return hash.value();
}

std::string format_seconds(double s) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.2f", s);
  return buffer;
}

/// One wired subscriber, surviving crash/restart cycles: the peer dies
/// and is rebuilt, the delivery bookkeeping persists.
struct Subscriber {
  std::string name;
  net::NodeId node{};
  std::uint64_t peer_id = 0;
  std::unique_ptr<pubsub::SemanticPeer> peer;
  /// (sender, sequence) pairs delivered at least once — chaos
  /// duplicates and archive replays must not double-count.
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
  std::uint64_t fingerprint = 0;  ///< commutative sum over unique keys
  std::uint64_t integrity_failures = 0;
  std::uint64_t post_heal = 0;  ///< unique deliveries after last heal
  std::uint64_t crashes = 0;
  std::uint64_t folded_nacks = 0;  ///< nacks_sent of dead incarnations
};

}  // namespace

ResilienceReport ResilienceHarness::run(const ChaosSchedule& schedule) {
  ResilienceReport report;
  auto& registry = telemetry::MetricsRegistry::global();
  // The registry is process-global; measure this run as deltas. The
  // corrupt-detected family is created lazily on the first checksum
  // reject anywhere in the process — force it into existence now so the
  // sampler sweeps it from the first tick of every run; otherwise the
  // first run of a process sees a different first-sample rate than
  // later runs and the alert (and therefore traffic) history diverges.
  (void)registry.counter("rtp.corrupt_detected");
  const double corrupt_before = registry.read("rtp.corrupt_detected");
  const double evicted_before = registry.read("rtp.reassembly.evicted");

  sim::Simulator simulator;
  net::Network network(simulator, options_.seed);
  core::SessionDirectory directory;
  pubsub::AttributeSet objective;
  objective.set("domain", "chaos");
  const core::SessionInfo session =
      directory.create("chaos", objective, {}).take();

  const sim::TimePoint start = simulator.now();
  const sim::TimePoint last_heal = start + schedule.last_change();
  const double total_s = std::max(
      options_.duration_s,
      schedule.last_change().as_seconds() + kSettleS);
  const sim::TimePoint end_time = start + sim::Duration::seconds(total_s);
  // Stop publishing a little early so in-flight repair can drain.
  const sim::TimePoint publish_until =
      start + sim::Duration::seconds(total_s - 3.0);

  pubsub::PeerOptions peer_options;
  peer_options.port = session.port;

  // Publisher w0.
  const net::NodeId publisher_node = network.add_node("w0");
  pubsub::SemanticPeer publisher(network, publisher_node, session.group, 1,
                                 peer_options);

  // Wired subscribers w1.. — deque for reference stability across
  // push_back (handlers and crash targets capture elements by address).
  std::deque<Subscriber> subscribers;
  const auto attach_handler = [&simulator, last_heal](Subscriber& sub) {
    sub.peer->on_message([&sub, &simulator, last_heal](
                             const pubsub::SemanticMessage& message,
                             const pubsub::MatchDecision&) {
      if (message.event_type != kBlobEvent) return;
      const auto key = std::make_pair(message.sender_id, message.sequence);
      const pubsub::AttributeValue* expected =
          message.content.find("chaos.digest");
      if (expected != nullptr &&
          message.content.find("adapted.by") == nullptr) {
        const auto stated = expected->as_string();
        if (!stated ||
            *stated != std::to_string(chain_digest(message.payload))) {
          // The integrity invariant: this must never happen — every
          // chaos bit-flip is caught by the RTP checksum upstream.
          ++sub.integrity_failures;
          return;
        }
      }
      if (!sub.seen.insert(key).second) return;  // duplicate or replay
      sub.fingerprint +=
          mix64(chain_digest(message.payload) ^
                mix64((message.sender_id << 32) ^ message.sequence));
      if (simulator.now() > last_heal) ++sub.post_heal;
    });
  };
  for (int i = 1; i < options_.wired; ++i) {
    Subscriber sub;
    sub.name = "w";
    sub.name += std::to_string(i);
    sub.node = network.add_node(sub.name);
    sub.peer_id = static_cast<std::uint64_t>(1 + i);
    subscribers.push_back(std::move(sub));
    Subscriber& placed = subscribers.back();
    placed.peer = std::make_unique<pubsub::SemanticPeer>(
        network, placed.node, session.group, placed.peer_id, peer_options);
    attach_handler(placed);
  }

  // Session archive: the resync source for crashed clients.
  core::SessionArchiver archiver(network, network.add_node("arch"), session,
                                 500);

  // Wireless cell behind "bs".
  std::unique_ptr<core::BaseStationPeer> base_station;
  std::vector<std::unique_ptr<core::ThinClient>> thin;
  if (options_.wireless > 0) {
    core::BaseStationOptions bs_options;
    bs_options.radio.power_control_enabled = false;
    base_station = std::make_unique<core::BaseStationPeer>(
        network, network.add_node("bs"), session, 900, bs_options);
    for (int i = 0; i < options_.wireless; ++i) {
      core::ThinClientConfig config;
      config.name = "t";
      config.name += std::to_string(i + 1);
      config.position = {25.0 + 30.0 * i, 0.0};
      thin.push_back(std::make_unique<core::ThinClient>(
          network, network.add_node(config.name), session,
          wireless::make_station(static_cast<std::uint32_t>(i + 1)),
          static_cast<std::uint64_t>(100 + i), config));
      (void)thin.back()->attach(*base_station);
    }
  }

  // Observatory watchdog: sampler + SLO rules over the chaos-visible
  // counter families, alert transitions published into the session.
  observatory::TimeSeriesSampler sampler(simulator, registry);
  observatory::AlertEngine engine(sampler);
  pubsub::SemanticPeer observer(network, network.add_node("obs"),
                                session.group, 999, peer_options);
  engine.publish_via(&observer);
  const auto add_rate_rule = [&engine](std::string name, std::string metric,
                                       double warning, double critical) {
    observatory::SloRule rule;
    rule.name = std::move(name);
    rule.metric = std::move(metric);
    rule.signal = observatory::Signal::rate;
    rule.warning = warning;
    rule.critical = critical;
    rule.for_duration = sim::Duration::seconds(1.0);
    rule.clear_duration = sim::Duration::seconds(2.0);
    engine.add_rule(rule);
  };
  add_rate_rule("chaos-link-loss", "net.datagrams.dropped_loss", 3.0, 50.0);
  add_rate_rule("chaos-partition", "net.datagrams.dropped_fault", 1.0, 50.0);
  add_rate_rule("chaos-corruption", "rtp.corrupt_detected", 0.5, 20.0);
  add_rate_rule("chaos-bs-outage", "core.base_station.outage_dropped", 0.5,
                20.0);
  sampler.start();

  // Chaos controller: link + datagram faults via the network hook,
  // outage/crash via registered targets.
  ChaosController controller(network,
                             derive_seed(options_.seed, 0xC7A05u));
  if (base_station) {
    controller.register_target(
        "bs", [&base_station](const ChaosEvent&, bool active) {
          base_station->set_out_of_service(active);
        });
  }
  for (Subscriber& sub : subscribers) {
    controller.register_target(
        sub.name, [&sub, &network, &session, &peer_options, &archiver,
                   &attach_handler, &report](const ChaosEvent&, bool active) {
          if (active) {
            if (!sub.peer) return;
            sub.folded_nacks += sub.peer->stats().nacks_sent;
            sub.peer.reset();  // endpoint unbinds; traffic bounces
            ++sub.crashes;
          } else {
            sub.peer = std::make_unique<pubsub::SemanticPeer>(
                network, sub.node, session.group, sub.peer_id, peer_options);
            attach_handler(sub);
            // State resync through the pub-sub substrate: the archive
            // replays history; the seen-set deduplicates what the
            // client already had.
            if (auto replayed = archiver.replay_to(sub.peer->address());
                replayed.ok()) {
              ++report.resyncs;
              report.resync_events += replayed.value();
            }
          }
        });
  }
  controller.arm(schedule);

  // Drive: w0 publishes digest-stamped blobs on a fixed period.
  std::uint64_t shares = 0;
  std::uint64_t shares_post_heal = 0;
  sim::PeriodicTimer publish_timer(
      simulator, kPublishPeriod, [&] {
        if (simulator.now() >= publish_until) return;
        ++shares;
        if (simulator.now() > last_heal) ++shares_post_heal;
        Rng rng(derive_seed(options_.seed, 0xB10Bu, shares));
        serde::Bytes payload(kPayloadBytes);
        for (std::size_t i = 0; i < payload.size(); i += 8) {
          const std::uint64_t word = rng();
          for (std::size_t j = 0; j < 8 && i + j < payload.size(); ++j) {
            payload[i + j] = static_cast<std::uint8_t>(word >> (8 * j));
          }
        }
        pubsub::SemanticMessage message;
        message.event_type = std::string(kBlobEvent);
        message.content.set(
            "chaos.digest",
            std::to_string(fnv1a(std::span<const std::uint8_t>(payload))));
        message.content.set("chaos.seq",
                            static_cast<std::int64_t>(shares));
        message.payload = serde::ByteChain(std::move(payload));
        (void)publisher.publish(std::move(message));
      });
  publish_timer.start();
  simulator.run_until(end_time);
  publish_timer.stop();
  sampler.stop();

  // ---- collect ---------------------------------------------------------
  report.sim_seconds = simulator.now().as_seconds();
  report.published = shares;
  for (const Subscriber& sub : subscribers) {
    report.delivered += sub.seen.size();
    report.integrity_failures += sub.integrity_failures;
    report.nacks_sent +=
        sub.folded_nacks + (sub.peer ? sub.peer->stats().nacks_sent : 0);
  }
  report.wireless_delivered =
      base_station ? base_station->stats().downlink_unicasts : 0;
  report.outage_dropped =
      base_station ? base_station->stats().outage_dropped : 0;

  const ChaosStats chaos_stats = controller.stats();
  report.faults_injected = chaos_stats.faults_injected;
  report.faults_cleared = chaos_stats.faults_cleared;
  report.fault_drops = chaos_stats.datagrams_dropped;
  report.duplicates = chaos_stats.datagrams_duplicated;
  report.corruptions = chaos_stats.datagrams_corrupted;
  report.unresolved_names = chaos_stats.unresolved_names;
  report.link_drops = network.stats().datagrams_dropped_loss;
  report.corrupt_detected = static_cast<std::uint64_t>(
      registry.read("rtp.corrupt_detected") - corrupt_before);
  report.reassembly_evicted = static_cast<std::uint64_t>(
      registry.read("rtp.reassembly.evicted") - evicted_before);

  report.retransmissions = publisher.stats().retransmissions;
  const std::uint64_t fragments_per_object = std::max<std::uint64_t>(
      1, (kPayloadBytes + peer_options.mtu_payload - 1) /
             peer_options.mtu_payload);
  report.repair_amplification =
      static_cast<double>(report.retransmissions) /
      static_cast<double>(std::max<std::uint64_t>(
          1, report.published * fragments_per_object));

  const auto engine_stats = engine.stats();
  report.alerts_raised = engine_stats.raised;
  report.alerts_cleared = engine_stats.cleared;
  report.alerts_active_at_end = engine.active();
  for (const observatory::AlertTransition& t : engine.history()) {
    if (t.to == observatory::Severity::ok) {
      report.last_clear_s = std::max(report.last_clear_s,
                                     t.time.as_seconds());
    }
  }

  std::uint64_t index = 0;
  for (const Subscriber& sub : subscribers) {
    report.fingerprint += mix64(sub.fingerprint + index++);
  }

  // ---- verify ----------------------------------------------------------
  if (report.integrity_failures > 0) {
    report.violations.push_back(
        std::to_string(report.integrity_failures) +
        " corrupted payload(s) reached a subscriber handler");
  }
  if (report.faults_injected > 0 && report.alerts_raised == 0) {
    report.violations.push_back(
        "no SLO alert fired while faults were active");
  }
  if (report.alerts_active_at_end > 0) {
    report.violations.push_back(
        std::to_string(report.alerts_active_at_end) +
        " alert(s) still active at end of run");
  }
  const double clear_deadline =
      last_heal.as_seconds() + kAlertClearBoundS;
  if (report.alerts_raised > 0 && report.last_clear_s > clear_deadline) {
    report.violations.push_back(
        "alerts cleared at " + format_seconds(report.last_clear_s) +
        "s, past the " + format_seconds(clear_deadline) + "s bound");
  }
  if (!schedule.has_unhealed() && shares_post_heal > 0) {
    for (const Subscriber& sub : subscribers) {
      if (sub.post_heal == 0) {
        report.violations.push_back("subscriber " + sub.name +
                                    " made no delivery progress after the "
                                    "last fault healed");
      }
    }
  }
  return report;
}

std::string_view ResilienceHarness::canned_schedule() noexcept {
  // Phased drill matching the default topology (publisher w0,
  // subscribers w1/w2, base station bs): correlated loss, a
  // reorder+duplication storm, corruption, a partition, a base-station
  // outage and a crash-with-resync, all healed by t=25s.
  return R"(# canned resilience drill (harness default topology)
at 4s  for 8s  burst     nodes=w1 p_gb=0.25 p_bg=0.2 loss_bad=0.9
at 6s  for 10s reorder   p=0.25 delay=30ms
at 6s  for 10s duplicate p=0.2 skew=4ms
at 10s for 6s  corrupt   nodes=w1 p=0.2
at 14s for 6s  partition nodes=w2 peers=w0
at 16s for 5s  outage    target=bs
at 22s for 3s  crash     target=w2
)";
}

// ---- report rendering ---------------------------------------------------

std::string ResilienceReport::to_text() const {
  std::string out;
  char line[192];
  const auto add = [&out, &line](int n) {
    out.append(line, line + (n > 0 ? static_cast<std::size_t>(n) : 0));
  };
  add(std::snprintf(line, sizeof line,
                    "resilience: %s (%zu violation(s)) over %.1fs\n",
                    ok() ? "OK" : "VIOLATED", violations.size(),
                    sim_seconds));
  for (const std::string& violation : violations) {
    add(std::snprintf(line, sizeof line, "  ! %s\n", violation.c_str()));
  }
  add(std::snprintf(line, sizeof line,
                    "traffic: %llu published, %llu delivered (wired), "
                    "%llu wireless unicasts, %llu integrity failures\n",
                    static_cast<unsigned long long>(published),
                    static_cast<unsigned long long>(delivered),
                    static_cast<unsigned long long>(wireless_delivered),
                    static_cast<unsigned long long>(integrity_failures)));
  add(std::snprintf(
      line, sizeof line,
      "chaos: %llu injected / %llu cleared; drops %llu fault + %llu link, "
      "%llu dup, %llu corrupt (%llu detected), %llu evicted, %llu outage\n",
      static_cast<unsigned long long>(faults_injected),
      static_cast<unsigned long long>(faults_cleared),
      static_cast<unsigned long long>(fault_drops),
      static_cast<unsigned long long>(link_drops),
      static_cast<unsigned long long>(duplicates),
      static_cast<unsigned long long>(corruptions),
      static_cast<unsigned long long>(corrupt_detected),
      static_cast<unsigned long long>(reassembly_evicted),
      static_cast<unsigned long long>(outage_dropped)));
  if (unresolved_names > 0) {
    add(std::snprintf(line, sizeof line,
                      "chaos: %llu schedule name(s) matched no node or "
                      "target and were skipped\n",
                      static_cast<unsigned long long>(unresolved_names)));
  }
  add(std::snprintf(
      line, sizeof line,
      "repair: %llu NACKs, %llu retransmissions (amplification %.3f), "
      "%llu resync(s) replaying %llu event(s)\n",
      static_cast<unsigned long long>(nacks_sent),
      static_cast<unsigned long long>(retransmissions),
      repair_amplification, static_cast<unsigned long long>(resyncs),
      static_cast<unsigned long long>(resync_events)));
  add(std::snprintf(
      line, sizeof line,
      "alerts: %llu raised, %llu cleared (last at %.2fs), %zu active at "
      "end\n",
      static_cast<unsigned long long>(alerts_raised),
      static_cast<unsigned long long>(alerts_cleared), last_clear_s,
      alerts_active_at_end));
  add(std::snprintf(line, sizeof line, "fingerprint: %016llx\n",
                    static_cast<unsigned long long>(fingerprint)));
  return out;
}

std::string ResilienceReport::to_json() const {
  std::string out = "{";
  char field[128];
  const auto add_u64 = [&out, &field](const char* key, std::uint64_t value,
                                      bool comma = true) {
    std::snprintf(field, sizeof field, "\"%s\": %llu%s", key,
                  static_cast<unsigned long long>(value), comma ? ", " : "");
    out += field;
  };
  const auto add_f64 = [&out, &field](const char* key, double value) {
    std::snprintf(field, sizeof field, "\"%s\": %.6f, ", key, value);
    out += field;
  };
  out += ok() ? "\"ok\": true, " : "\"ok\": false, ";
  out += "\"violations\": [";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    if (i > 0) out += ", ";
    out += '"';
    out += telemetry::json_escape(violations[i]);
    out += '"';
  }
  out += "], ";
  add_u64("published", published);
  add_u64("delivered", delivered);
  add_u64("integrity_failures", integrity_failures);
  add_u64("wireless_delivered", wireless_delivered);
  add_u64("faults_injected", faults_injected);
  add_u64("faults_cleared", faults_cleared);
  add_u64("fault_drops", fault_drops);
  add_u64("link_drops", link_drops);
  add_u64("duplicates", duplicates);
  add_u64("corruptions", corruptions);
  add_u64("corrupt_detected", corrupt_detected);
  add_u64("reassembly_evicted", reassembly_evicted);
  add_u64("outage_dropped", outage_dropped);
  add_u64("nacks_sent", nacks_sent);
  add_u64("retransmissions", retransmissions);
  add_f64("repair_amplification", repair_amplification);
  add_u64("resyncs", resyncs);
  add_u64("resync_events", resync_events);
  add_u64("alerts_raised", alerts_raised);
  add_u64("alerts_cleared", alerts_cleared);
  add_f64("last_clear_s", last_clear_s);
  add_u64("alerts_active_at_end", alerts_active_at_end);
  add_u64("fingerprint", fingerprint);
  add_f64("sim_seconds", sim_seconds);
  add_u64("settled", ok() ? 1 : 0, false);
  out += "}";
  return out;
}

}  // namespace collabqos::chaos
