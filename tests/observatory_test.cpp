// The QoS Observatory (DESIGN.md §10): time-series sampling from the
// metrics registry and remote SNMP walks, SLO alerting with hysteresis
// over the semantic substrate, and trace-derived latency analysis —
// including the full closed loop from injected overload to an alert
// inside the decision audit log.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "collabqos/app/image_viewer.hpp"
#include "collabqos/core/decision_audit.hpp"
#include "collabqos/core/events.hpp"
#include "collabqos/core/workstation.hpp"
#include "collabqos/observatory/alerts.hpp"
#include "collabqos/observatory/series.hpp"
#include "collabqos/observatory/trace_analysis.hpp"
#include "collabqos/snmp/telemetry_mib.hpp"
#include "collabqos/telemetry/trace.hpp"

namespace collabqos {
namespace {

using observatory::AlertEngine;
using observatory::RuleKind;
using observatory::SeriesKind;
using observatory::Severity;
using observatory::Signal;
using observatory::SloRule;
using observatory::TimeSeries;
using observatory::TimeSeriesSampler;
using observatory::TraceAnalyzer;

sim::TimePoint at(double seconds) {
  return sim::TimePoint::from_micros(
      static_cast<std::int64_t>(seconds * 1e6));
}

// ------------------------------------------------------------ TimeSeries

TEST(TimeSeries, ComputesRatesFromConsecutivePoints) {
  TimeSeries series(SeriesKind::counter, 8);
  series.append({at(0.0), 100.0, 0.0});
  series.append({at(1.0), 160.0, 0.0});
  series.append({at(3.0), 200.0, 0.0});
  ASSERT_EQ(series.size(), 3u);
  EXPECT_DOUBLE_EQ(series.at(0).rate, 0.0);  // no predecessor
  EXPECT_DOUBLE_EQ(series.at(1).rate, 60.0);
  EXPECT_DOUBLE_EQ(series.at(2).rate, 20.0);  // 40 over 2 s
}

TEST(TimeSeries, CounterResetRestartsRateInsteadOfGoingNegative) {
  TimeSeries series(SeriesKind::counter, 8);
  series.append({at(0.0), 500.0, 0.0});
  series.append({at(1.0), 30.0, 0.0});  // source restarted
  EXPECT_DOUBLE_EQ(series.back().rate, 30.0);
  // Gauges are levels: a falling level is a real negative slope.
  TimeSeries gauge(SeriesKind::gauge, 8);
  gauge.append({at(0.0), 500.0, 0.0});
  gauge.append({at(1.0), 30.0, 0.0});
  EXPECT_DOUBLE_EQ(gauge.back().rate, -470.0);
}

TEST(TimeSeries, RingEvictsOldestAndCounts) {
  TimeSeries series(SeriesKind::gauge, 3);
  for (int i = 0; i < 5; ++i) {
    series.append({at(i), static_cast<double>(i), 0.0});
  }
  EXPECT_EQ(series.size(), 3u);
  EXPECT_EQ(series.evicted(), 2u);
  EXPECT_DOUBLE_EQ(series.at(0).value, 2.0);  // oldest retained
  EXPECT_DOUBLE_EQ(series.back().value, 4.0);
}

TEST(TimeSeries, WindowedAggregatesRespectTheHorizon) {
  TimeSeries series(SeriesKind::counter, 16);
  for (int i = 0; i <= 9; ++i) {
    series.append({at(i), i * 10.0, 0.0});
  }
  // Window of 2 s from the newest point (t=9) covers t=7..9.
  EXPECT_DOUBLE_EQ(series.max_rate_over(sim::Duration::seconds(2.0)), 10.0);
}

// --------------------------------------------------------------- sampler

TEST(Sampler, SweepsLocalRegistryIntoSeries) {
  sim::Simulator sim;
  telemetry::MetricsRegistry registry;
  telemetry::Counter events;
  telemetry::Gauge level;
  auto r1 = registry.attach("app.events", events);
  auto r2 = registry.attach("app.level", level);

  TimeSeriesSampler sampler(sim, registry);
  const auto advance = [&](double seconds) {
    sim.schedule_at(at(seconds), [] {});
    (void)sim.step();
  };

  events += 10;
  level.set(42.0);
  sampler.sample_now();
  advance(1.0);
  events += 30;
  level.set(40.0);
  sampler.sample_now();

  const TimeSeries* counter_series = sampler.find("", "app.events");
  ASSERT_NE(counter_series, nullptr);
  EXPECT_EQ(counter_series->kind(), SeriesKind::counter);
  EXPECT_DOUBLE_EQ(counter_series->back().value, 40.0);
  EXPECT_DOUBLE_EQ(counter_series->back().rate, 30.0);

  const TimeSeries* gauge_series = sampler.find("", "app.level");
  ASSERT_NE(gauge_series, nullptr);
  EXPECT_DOUBLE_EQ(gauge_series->back().value, 40.0);
  EXPECT_DOUBLE_EQ(gauge_series->back().rate, -2.0);

  EXPECT_EQ(sampler.series_count(), 2u);
  EXPECT_EQ(sampler.stats().ticks, 2u);
  EXPECT_EQ(sampler.stats().local_points, 4u);
}

TEST(Sampler, PeriodicTimerDrivesTicksAndHooks) {
  sim::Simulator sim;
  telemetry::MetricsRegistry registry;
  telemetry::Counter events;
  auto r = registry.attach("app.events", events);
  observatory::SamplerOptions options;
  options.period = sim::Duration::seconds(1.0);
  TimeSeriesSampler sampler(sim, registry, options);
  int hooks = 0;
  sampler.on_tick([&](sim::TimePoint) { ++hooks; });
  sampler.start();
  sim.run_until(at(5.5));
  sampler.stop();
  EXPECT_EQ(sampler.stats().ticks, 5u);
  EXPECT_EQ(hooks, 5);
  EXPECT_EQ(sampler.find("", "app.events")->size(), 5u);
}

TEST(Sampler, WalksRemoteTelemetrySubtreeOverSnmp) {
  sim::Simulator sim;
  net::Network network(sim, 7);
  const net::NodeId station = network.add_node("station-1");
  const net::NodeId watcher = network.add_node("watcher");

  // The "remote" process: its own registry, exported by its agent.
  telemetry::MetricsRegistry remote_registry;
  telemetry::Counter remote_events;
  telemetry::Gauge remote_level;
  auto r1 = remote_registry.attach("app.events", remote_events);
  auto r2 = remote_registry.attach("app.level", remote_level);
  remote_events += 17;
  remote_level.set(42.0);  // integral: SNMP integer encoding is exact
  snmp::Agent agent(network, station, "public", "secret");
  snmp::install_telemetry_instrumentation(agent, remote_registry);

  snmp::Manager manager(network, watcher);
  telemetry::MetricsRegistry local_registry;  // nothing local to sweep
  TimeSeriesSampler sampler(sim, local_registry);
  sampler.add_remote("station-1", manager, station, "public");

  sampler.sample_now();
  sim.run_until(sim.now() + sim::Duration::seconds(1.0));

  const TimeSeries* events_series = sampler.find("station-1", "app.events");
  ASSERT_NE(events_series, nullptr);
  EXPECT_EQ(events_series->kind(), SeriesKind::counter);
  EXPECT_DOUBLE_EQ(events_series->back().value, 17.0);
  const TimeSeries* level_series = sampler.find("station-1", "app.level");
  ASSERT_NE(level_series, nullptr);
  EXPECT_EQ(level_series->kind(), SeriesKind::gauge);
  EXPECT_DOUBLE_EQ(level_series->back().value, 42.0);
  EXPECT_GE(sampler.stats().remote_points, 2u);
  EXPECT_EQ(sampler.stats().remote_failures, 0u);
}

// ---------------------------------------------------------- alert engine

class AlertEngineTest : public ::testing::Test {
 protected:
  AlertEngineTest() : sampler_(sim_, registry_), engine_(sampler_) {}

  /// Script one observation and evaluate the rules at that instant.
  void feed(double seconds, double value) {
    sampler_.ingest("", "app.qps", SeriesKind::gauge, value, at(seconds));
    engine_.evaluate(at(seconds));
  }

  sim::Simulator sim_;
  telemetry::MetricsRegistry registry_;
  TimeSeriesSampler sampler_;
  AlertEngine engine_;
};

TEST_F(AlertEngineTest, EscalatesOnlyAfterForDurationHolds) {
  SloRule rule;
  rule.name = "qps-high";
  rule.metric = "app.qps";
  rule.warning = 10.0;
  rule.critical = 20.0;
  rule.for_duration = sim::Duration::seconds(2.0);
  rule.clear_duration = sim::Duration::seconds(2.0);
  rule.hysteresis = 0.10;
  engine_.add_rule(rule);

  feed(0.0, 5.0);
  EXPECT_EQ(engine_.severity("qps-high"), Severity::ok);
  // Breach must hold for 2 s before the transition fires.
  feed(1.0, 15.0);
  feed(2.0, 15.0);
  EXPECT_EQ(engine_.severity("qps-high"), Severity::ok);
  feed(3.0, 15.0);
  EXPECT_EQ(engine_.severity("qps-high"), Severity::warning);
  // A dip resets the damping clock.
  feed(4.0, 25.0);
  feed(5.0, 5.0);
  feed(6.0, 25.0);
  feed(7.0, 25.0);
  EXPECT_EQ(engine_.severity("qps-high"), Severity::warning);
  feed(8.0, 25.0);
  EXPECT_EQ(engine_.severity("qps-high"), Severity::critical);
  ASSERT_EQ(engine_.history().size(), 2u);
  EXPECT_EQ(engine_.history()[0].to, Severity::warning);
  EXPECT_EQ(engine_.history()[1].to, Severity::critical);
}

TEST_F(AlertEngineTest, ClearsOnlyInsideTheHysteresisBand) {
  SloRule rule;
  rule.name = "qps-high";
  rule.metric = "app.qps";
  rule.warning = 10.0;
  rule.critical = 20.0;
  rule.for_duration = {};  // immediate escalation: isolate the clear path
  rule.clear_duration = sim::Duration::seconds(2.0);
  rule.hysteresis = 0.10;
  engine_.add_rule(rule);

  feed(0.0, 25.0);
  EXPECT_EQ(engine_.severity("qps-high"), Severity::critical);
  // Below the critical threshold but above 20*(1-0.1)=18: still inside
  // the flap band, so the alert holds.
  for (int i = 1; i <= 5; ++i) feed(i, 19.0);
  EXPECT_EQ(engine_.severity("qps-high"), Severity::critical);
  // Inside the band; must stay there for clear_duration before the
  // engine steps down — and it steps to what the signal now supports.
  feed(6.0, 15.0);
  feed(7.0, 15.0);
  EXPECT_EQ(engine_.severity("qps-high"), Severity::critical);
  feed(8.0, 15.0);
  EXPECT_EQ(engine_.severity("qps-high"), Severity::warning);
  // Full recovery: below 10*(1-0.1)=9 for 2 s.
  feed(9.0, 5.0);
  feed(11.0, 5.0);
  EXPECT_EQ(engine_.severity("qps-high"), Severity::ok);
  ASSERT_EQ(engine_.history().size(), 3u);
  EXPECT_EQ(engine_.history().back().to, Severity::ok);
  EXPECT_EQ(engine_.stats().raised, 1u);
  EXPECT_EQ(engine_.stats().cleared, 1u);
  EXPECT_EQ(engine_.active(), 0u);
}

TEST_F(AlertEngineTest, AbsenceRuleFiresWhenSeriesGoesSilent) {
  SloRule rule;
  rule.name = "heartbeat";
  rule.metric = "app.qps";
  rule.host = "station-1";
  rule.kind = RuleKind::absence;
  rule.warning = 2.0;   // seconds of silence
  rule.critical = 5.0;
  engine_.add_rule(rule);

  sampler_.ingest("station-1", "app.qps", SeriesKind::gauge, 1.0, at(0.0));
  engine_.evaluate(at(1.0));
  EXPECT_EQ(engine_.severity("heartbeat", "station-1"), Severity::ok);
  engine_.evaluate(at(3.0));
  EXPECT_EQ(engine_.severity("heartbeat", "station-1"), Severity::warning);
  engine_.evaluate(at(10.0));
  EXPECT_EQ(engine_.severity("heartbeat", "station-1"), Severity::critical);
  // The series comes back: silence drops to zero and the alert clears.
  sampler_.ingest("station-1", "app.qps", SeriesKind::gauge, 1.0, at(11.0));
  engine_.evaluate(at(11.0));
  EXPECT_EQ(engine_.severity("heartbeat", "station-1"), Severity::ok);
}

TEST_F(AlertEngineTest, WildcardHostRulesTrackEachHostIndependently) {
  SloRule rule;
  rule.name = "qps-high";
  rule.metric = "app.qps";
  rule.warning = 10.0;
  rule.critical = 1e9;
  engine_.add_rule(rule);

  sampler_.ingest("a", "app.qps", SeriesKind::gauge, 15.0, at(0.0));
  sampler_.ingest("b", "app.qps", SeriesKind::gauge, 5.0, at(0.0));
  engine_.evaluate(at(0.0));
  EXPECT_EQ(engine_.severity("qps-high", "a"), Severity::warning);
  EXPECT_EQ(engine_.severity("qps-high", "b"), Severity::ok);
  EXPECT_EQ(engine_.active(), 1u);
}

TEST(AlertPublish, TransitionsTravelTheSubstrateAndFilterBySelector) {
  sim::Simulator sim;
  net::Network network(sim, 11);
  core::SessionDirectory directory;
  const core::SessionInfo session = directory.create("obs", {}, {}).take();

  pubsub::SemanticPeer publisher(network, network.add_node("observer"),
                                 session.group, 900);
  pubsub::SemanticPeer subscriber(network, network.add_node("ops"),
                                  session.group, 901);
  // The subscriber opts in with an ordinary interest selector: only
  // critical alerts, exactly like any other semantic subscription.
  subscriber.profile().set_interest(
      pubsub::Selector::parse("kind == 'alert' and severity == 'critical'")
          .take());
  std::vector<std::string> seen;
  subscriber.on_message([&](const pubsub::SemanticMessage& message,
                            const pubsub::MatchDecision&) {
    const auto* severity = message.content.find("severity");
    ASSERT_NE(severity, nullptr);
    seen.push_back(std::string(*severity->as_string()));
    EXPECT_EQ(message.event_type, core::events::kAlert);
  });

  telemetry::MetricsRegistry registry;
  TimeSeriesSampler sampler(sim, registry);
  AlertEngine engine(sampler);
  engine.publish_via(&publisher);
  SloRule rule;
  rule.name = "qps-high";
  rule.metric = "app.qps";
  rule.warning = 10.0;
  rule.critical = 20.0;
  engine.add_rule(rule);

  sampler.ingest("", "app.qps", SeriesKind::gauge, 15.0, at(0.0));
  engine.evaluate(at(0.0));  // ok -> warning, published but filtered out
  sampler.ingest("", "app.qps", SeriesKind::gauge, 25.0, at(1.0));
  engine.evaluate(at(1.0));  // warning -> critical, delivered
  sim.run_all();

  EXPECT_EQ(engine.stats().published, 2u);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], "critical");
}

// -------------------------------------------------------- trace analysis

telemetry::Span make_span(std::uint64_t trace, std::string name,
                          std::uint64_t actor, double start_s,
                          double end_s) {
  telemetry::Span span;
  span.trace_id = trace;
  span.name = std::move(name);
  span.actor = actor;
  span.start = at(start_s);
  span.end = at(end_s);
  return span;
}

TEST(TraceAnalysis, BreaksDeliveriesIntoStageContributions) {
  TraceAnalyzer analyzer;
  // One message from actor 1, delivered to actor 2: 10 us to fragment,
  // on the wire until 600 us, reassembled by 700 us, matched at 701 us.
  auto match = make_span(1, "pubsub.match", 2, 700e-6, 701e-6);
  match.tags = {{"cache", "miss"}, {"verdict", "accepted"},
                {"match_ns", "500"}};
  analyzer.add({make_span(1, "pubsub.publish", 1, 0.0, 0.0),
                make_span(1, "rtp.fragment", 1, 0.0, 10e-6),
                make_span(1, "net.transit", 2, 10e-6, 600e-6),
                make_span(1, "rtp.reassemble", 2, 600e-6, 700e-6), match});

  const auto report = analyzer.report();
  EXPECT_EQ(report.spans, 5u);
  EXPECT_EQ(report.traces, 1u);
  EXPECT_EQ(report.deliveries, 1u);
  EXPECT_TRUE(report.complete());
  EXPECT_DOUBLE_EQ(report.e2e_p50_us, 701.0);
  EXPECT_EQ(report.dominant_stage, "net.transit");
  EXPECT_EQ(report.cache_misses, 1u);
  EXPECT_EQ(report.cache_hits, 0u);
  EXPECT_EQ(report.verdicts.at("accepted"), 1u);
  EXPECT_DOUBLE_EQ(report.match_p50_ns, 500.0);
  bool saw_transit = false;
  for (const auto& stage : report.stages) {
    if (stage.stage == "net.transit") {
      saw_transit = true;
      EXPECT_EQ(stage.samples, 1u);
      EXPECT_DOUBLE_EQ(stage.p50_us, 590.0);
    }
  }
  EXPECT_TRUE(saw_transit);
  EXPECT_NE(report.to_text().find("net.transit"), std::string::npos);
}

TEST(TraceAnalysis, ConsumeCarriesTracerDropsIntoTheReport) {
  telemetry::Tracer tracer;
  tracer.set_enabled(true);
  tracer.set_capacity(2);
  for (int i = 0; i < 5; ++i) {
    telemetry::Span span;
    span.trace_id = 42;
    span.name = "pubsub.publish";
    span.start = at(i);
    span.end = at(i);
    tracer.record(std::move(span));
  }
  TraceAnalyzer analyzer;
  analyzer.consume(tracer);
  EXPECT_EQ(analyzer.span_count(), 2u);
  EXPECT_EQ(analyzer.dropped(), 3u);
  EXPECT_EQ(analyzer.report().spans_dropped, 3u);
  EXPECT_FALSE(analyzer.report().complete());
}

TEST(TraceAnalysis, ChromeTraceExportIsWellFormed) {
  TraceAnalyzer analyzer;
  auto tagged = make_span(7, "pubsub.match", 3, 2e-3, 2.1e-3);
  tagged.tags = {{"verdict", "accepted \"quoted\""}};
  analyzer.add({make_span(7, "net.transit", 3, 1e-3, 2e-3), tagged});
  const std::string json = analyzer.to_chrome_trace();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("net.transit"), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);  // escaped tag
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_EQ(json.find("\n\""), std::string::npos);  // no raw control chars
}

// ----------------------------------------------------------- closed loop

// The acceptance scenario: a 4-node session (sender, two receivers, an
// observer) where the sampler watches both the local registry and a
// station's SNMP telemetry export, injected load trips an SLO rule, the
// alert crosses the substrate as a semantic message, lands in every
// client's inference inputs and therefore in the decision audit log, and
// the tracer-fed analyzer explains where the latency went.
TEST(ClosedLoop, OverloadToAlertToAuditedDecisionToLatencyBreakdown) {
  telemetry::Tracer& tracer = telemetry::Tracer::global();
  tracer.clear();
  tracer.set_capacity(std::size_t{1} << 17);
  tracer.set_enabled(true);
  auto& audit = core::DecisionAuditLog::global();
  audit.clear();
  audit.set_enabled(true);

  {
    sim::Simulator sim;
    net::Network network(sim, 99);
    core::SessionDirectory directory;
    const core::SessionInfo session =
        directory.create("ops", {}, {}).take();

    core::Workstation sender(network, session, "sender", 1);
    core::Workstation receiver(network, session, "receiver", 2);
    core::Workstation watched(network, session, "watched", 3);
    app::ImageViewer sender_viewer(sender.client());

    // Observer node: manager for the SNMP leg, peer for the alert leg.
    const net::NodeId observer = network.add_node("observer");
    snmp::Manager obs_manager(network, observer);
    pubsub::SemanticPeer alert_peer(network, observer, session.group, 900);
    snmp::install_telemetry_instrumentation(watched.agent());

    TimeSeriesSampler sampler(sim, telemetry::MetricsRegistry::global());
    sampler.add_remote("watched", obs_manager, watched.node(), "public");
    AlertEngine engine(sampler);
    engine.publish_via(&alert_peer);
    SloRule rule;
    rule.name = "traffic-surge";
    rule.metric = "net.bytes.delivered";
    rule.signal = Signal::rate;
    rule.warning = 1024.0;  // bytes/s; the image shares dwarf this
    rule.critical = 1e12;
    rule.for_duration = sim::Duration::seconds(1.0);
    engine.add_rule(rule);
    sampler.start();

    // Injected overload: share imagery at a rate that sustains a
    // delivered-bytes rate far above the rule's warning threshold.
    const media::Image image =
        render_scene(media::make_crisis_scene(64, 64, 1));
    int shares = 0;
    sim::PeriodicTimer share_timer(
        sim, sim::Duration::millis(500), [&] {
          (void)sender_viewer.share(image,
                                    "img-" + std::to_string(++shares),
                                    "load");
        });
    share_timer.start();
    sim.run_until(sim.now() + sim::Duration::seconds(8.0));
    share_timer.stop();
    sampler.stop();
    sim.run_until(sim.now() + sim::Duration::seconds(1.0));

    // 1. The sampler saw both planes: local sweep and the SNMP walk.
    EXPECT_GT(sampler.stats().local_points, 0u);
    EXPECT_GT(sampler.stats().remote_points, 0u);
    ASSERT_NE(sampler.find("", "net.bytes.delivered"), nullptr);
    ASSERT_NE(sampler.find("watched", "pubsub.peer.accepted"), nullptr);

    // 2. The overload tripped the rule.
    ASSERT_FALSE(engine.history().empty());
    EXPECT_EQ(engine.history().front().rule, "traffic-surge");
    EXPECT_EQ(engine.history().front().to, Severity::warning);
    EXPECT_GT(engine.stats().published, 0u);

    // 3. The alert reached the clients through ordinary matching and
    //    became an inference input.
    EXPECT_NE(
        receiver.client().alert_state().find("alert.traffic-surge"),
        nullptr);
    EXPECT_NE(
        watched.client().alert_state().find("alert.traffic-surge"),
        nullptr);

    // 4. ... and is in the decision audit log next to the QoS inputs.
    const auto records = audit.drain();
    bool audited = false;
    for (const auto& record : records) {
      if (record.inputs.find("alert.traffic-surge") != nullptr) {
        audited = true;
        break;
      }
    }
    EXPECT_TRUE(audited);
  }

  // 5. The tracer-fed analyzer explains the run's latency per stage and
  //    exports a loadable Chrome trace.
  TraceAnalyzer analyzer;
  analyzer.consume(tracer);
  const auto report = analyzer.report();
  EXPECT_TRUE(report.complete());
  EXPECT_GT(report.deliveries, 0u);
  EXPECT_GT(report.e2e_p50_us, 0.0);
  EXPECT_FALSE(report.dominant_stage.empty());
  bool transit_sampled = false;
  for (const auto& stage : report.stages) {
    if (stage.stage == "net.transit" && stage.samples > 0) {
      transit_sampled = true;
      EXPECT_GE(stage.p99_us, stage.p50_us);
    }
  }
  EXPECT_TRUE(transit_sampled);
  const std::string chrome = analyzer.to_chrome_trace();
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("pubsub.match"), std::string::npos);

  tracer.set_enabled(false);
  tracer.clear();
  audit.set_enabled(false);
  audit.clear();
}

}  // namespace
}  // namespace collabqos
