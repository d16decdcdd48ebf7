// Scenario runner: a parameterized harness for exploring the framework
// without writing code. Spins up a mixed wired/wireless session, applies
// load and loss, shares imagery periodically, and prints a per-client
// delivery summary.
//
// Usage:
//   scenario_runner [--wired N] [--wireless M] [--loss P] [--pf-ramp]
//                   [--duration S] [--image N] [--seed K] [--observe]
//
//   --wired N      wired workstations (default 3)
//   --wireless M   thin clients behind the base station (default 2)
//   --loss P       downlink loss probability on wired client 1 (default 0)
//   --pf-ramp      ramp page faults 30->100 on wired client 1
//   --duration S   simulated seconds, 0 < S <= 1e9 (default 30)
//   --image N      shared image edge length (default 256)
//   --seed K       simulation seed (default 1)
//   --chaos X      run the chaos-plane resilience harness instead of the
//                  ad-hoc scenario: X is a schedule file path, or the
//                  literal "canned" for the built-in burst + storm +
//                  partition + outage + crash drill. The harness builds
//                  its own topology (w0 publishes; w1.. subscribe; thin
//                  clients behind "bs"), arms the schedule, verifies the
//                  recovery invariants (no corrupted delivery, alerts
//                  raise and clear within bound, post-heal progress) and
//                  writes the report to RESILIENCE_scenario.json. Exit
//                  status is nonzero when any invariant is violated.
//   --observe      run the QoS Observatory alongside the scenario: a
//                  dedicated observer node samples the local registry
//                  every second AND walks wired client 1's telemetry
//                  subtree over SNMP, evaluates SLO rules against both,
//                  publishes alert transitions on the session substrate
//                  (every client folds them into its inference inputs
//                  and the decision audit log), and on exit prints the
//                  trace-derived latency breakdown, writes Chrome trace
//                  JSON to TRACE_scenario.json and the decision audit
//                  to AUDIT_scenario.jsonl.
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "collabqos/app/image_viewer.hpp"
#include "collabqos/chaos/harness.hpp"
#include "collabqos/chaos/schedule.hpp"
#include "collabqos/core/basestation_peer.hpp"
#include "collabqos/core/decision_audit.hpp"
#include "collabqos/core/thin_client.hpp"
#include "collabqos/core/workstation.hpp"
#include "collabqos/media/image.hpp"
#include "collabqos/observatory/alerts.hpp"
#include "collabqos/observatory/series.hpp"
#include "collabqos/observatory/trace_analysis.hpp"
#include "collabqos/snmp/telemetry_mib.hpp"
#include "collabqos/telemetry/trace.hpp"
#include "collabqos/util/string_util.hpp"

using namespace collabqos;

namespace {

struct Options {
  int wired = 3;
  int wireless = 2;
  double loss = 0.0;
  bool pf_ramp = false;
  double duration_s = 30.0;
  int image = 256;
  std::uint64_t seed = 1;
  bool observe = false;
  std::string chaos;  ///< schedule path, or "canned"; empty = off
};

bool parse_args(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto next_number = [&](double& out) {
      if (i + 1 >= argc) return false;
      const auto value = parse_double(argv[++i]);
      if (!value) return false;
      out = *value;
      return true;
    };
    // Counts and the seed are whole numbers no larger than `max`.
    const auto next_integer = [&](std::uint64_t& out, std::uint64_t max) {
      if (i + 1 >= argc) return false;
      const auto value = parse_u64(argv[++i]);
      if (!value || *value > max) return false;
      out = *value;
      return true;
    };
    constexpr auto kIntMax =
        static_cast<std::uint64_t>(std::numeric_limits<int>::max());
    constexpr auto kSeedMax = std::numeric_limits<std::uint64_t>::max();
    // Simulated seconds: positive, and at most about 31.7 years, so that
    // their microseconds fit a sim::Duration with room to spare.
    constexpr double kDurationMax = 1e9;
    // An --image side N is refused when no receiver decodes an N x N
    // image (media::plausible_extent).
    double value = 0.0;
    std::uint64_t integer = 0;
    if (arg == "--wired" && next_integer(integer, kIntMax)) {
      options.wired = static_cast<int>(integer);
    } else if (arg == "--wireless" && next_integer(integer, kIntMax)) {
      options.wireless = static_cast<int>(integer);
    } else if (arg == "--loss" && next_number(value)) {
      options.loss = value;
    } else if (arg == "--pf-ramp") {
      options.pf_ramp = true;
    } else if (arg == "--duration" && next_number(value) && value > 0.0 &&
               value <= kDurationMax) {
      options.duration_s = value;
    } else if (arg == "--image" && next_integer(integer, kIntMax) &&
               media::plausible_extent(integer, integer)) {
      options.image = static_cast<int>(integer);
    } else if (arg == "--seed" && next_integer(integer, kSeedMax)) {
      options.seed = integer;
    } else if (arg == "--observe") {
      options.observe = true;
    } else if (arg == "--chaos" && i + 1 < argc) {
      options.chaos = argv[++i];
    } else {
      std::fprintf(stderr, "unknown or malformed argument: %s\n",
                   std::string(arg).c_str());
      return false;
    }
  }
  return options.wired >= 1 && options.wireless >= 0 &&
         options.loss >= 0.0 && options.loss < 1.0 && options.image >= 16;
}

// --chaos path: hand the run to the resilience harness instead of the
// ad-hoc scenario below. Returns the process exit status.
int run_chaos(const Options& options) {
  std::string text;
  if (options.chaos == "canned") {
    text = chaos::ResilienceHarness::canned_schedule();
  } else {
    std::FILE* file = std::fopen(options.chaos.c_str(), "rb");
    if (file == nullptr) {
      std::fprintf(stderr, "chaos: cannot open schedule %s\n",
                   options.chaos.c_str());
      return 2;
    }
    char buffer[4096];
    std::size_t got = 0;
    while ((got = std::fread(buffer, 1, sizeof buffer, file)) > 0) {
      text.append(buffer, got);
    }
    std::fclose(file);
  }

  auto schedule = chaos::ChaosSchedule::parse(text);
  if (!schedule.ok()) {
    std::fprintf(stderr, "chaos: %s\n",
                 schedule.error().message.c_str());
    return 2;
  }

  chaos::HarnessOptions harness_options;
  harness_options.wired = options.wired;
  harness_options.wireless = options.wireless;
  harness_options.duration_s = options.duration_s;
  harness_options.seed = options.seed;
  chaos::ResilienceHarness harness(harness_options);
  const chaos::ResilienceReport report = harness.run(schedule.value());

  std::printf("%s", report.to_text().c_str());
  if (std::FILE* out = std::fopen("RESILIENCE_scenario.json", "w")) {
    const std::string json = report.to_json();
    std::fwrite(json.data(), 1, json.size(), out);
    std::fputc('\n', out);
    std::fclose(out);
    std::printf("resilience report written to RESILIENCE_scenario.json\n");
  }
  return report.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse_args(argc, argv, options)) return 2;
  if (!options.chaos.empty()) return run_chaos(options);

  sim::Simulator simulator;
  net::Network network(simulator, options.seed);
  core::SessionDirectory directory;
  pubsub::AttributeSet objective;
  objective.set("domain", "scenario");
  const core::SessionInfo session =
      directory.create("scenario", objective, {}).take();

  // Wired stations, each with the viewer that records what it displays.
  std::vector<core::Workstation> wired;
  std::vector<std::unique_ptr<app::ImageViewer>> viewers;
  for (int i = 0; i < options.wired; ++i) {
    wired.emplace_back(network, session, "wired-" + std::to_string(i + 1),
                       static_cast<std::uint64_t>(i + 1));
    viewers.push_back(
        std::make_unique<app::ImageViewer>(wired.back().client()));
  }

  // Perturbations on wired client 1 (index 1 when present, else 0):
  const std::size_t victim = wired.size() > 1 ? 1 : 0;
  if (options.pf_ramp) {
    wired[victim].host().set_page_fault_process(
        std::make_unique<sim::RampProcess>(
            30.0, 100.0, simulator.now(),
            sim::Duration::seconds(options.duration_s)));
  }
  if (options.loss > 0.0) {
    net::LinkParams lossy;
    lossy.loss_probability = options.loss;
    (void)network.set_link_params(wired[victim].node(), lossy);
  }

  // Wireless cell.
  std::unique_ptr<core::BaseStationPeer> base_station;
  std::vector<std::unique_ptr<core::ThinClient>> thin;
  if (options.wireless > 0) {
    core::BaseStationOptions bs_options;
    bs_options.channel.noise_kappa_db = 70.0;
    bs_options.radio.power_control_enabled = false;
    base_station = std::make_unique<core::BaseStationPeer>(
        network, network.add_node("bs"), session, 900, bs_options);
    for (int i = 0; i < options.wireless; ++i) {
      core::ThinClientConfig config;
      config.name = "palm-" + std::to_string(i + 1);
      // Spread across the cell so grades differ.
      config.position = {30.0 + 45.0 * i, 0.0};
      thin.push_back(std::make_unique<core::ThinClient>(
          network, network.add_node(config.name), session,
          wireless::make_station(static_cast<std::uint32_t>(i + 1)),
          static_cast<std::uint64_t>(100 + i), config));
      if (!thin.back()->attach(*base_station).ok()) {
        std::fprintf(stderr, "attach failed for %s\n", config.name.c_str());
        return 1;
      }
    }
  }

  // Observatory (--observe): sampler + alert engine + tracing on a
  // dedicated observer node, closing the loop back into the clients.
  struct Observatory {
    net::NodeId node{};
    std::unique_ptr<snmp::Manager> manager;
    std::unique_ptr<pubsub::SemanticPeer> peer;
    std::unique_ptr<observatory::TimeSeriesSampler> sampler;
    std::unique_ptr<observatory::AlertEngine> engine;
  };
  Observatory obs;
  const std::string watched_host =
      options.observe ? wired[victim].client().name() : std::string();
  if (options.observe) {
    telemetry::Tracer::global().set_capacity(std::size_t{1} << 18);
    telemetry::Tracer::global().set_enabled(true);
    core::DecisionAuditLog::global().set_enabled(true);

    // The watched station exports its telemetry registry over SNMP; the
    // observer walks it like any other managed device (paper §5.5).
    snmp::install_telemetry_instrumentation(wired[victim].agent());

    obs.node = network.add_node("observer");
    obs.manager = std::make_unique<snmp::Manager>(network, obs.node);
    obs.peer = std::make_unique<pubsub::SemanticPeer>(
        network, obs.node, session.group, 999);
    obs.sampler = std::make_unique<observatory::TimeSeriesSampler>(
        simulator, telemetry::MetricsRegistry::global());
    obs.sampler->add_remote(watched_host, *obs.manager, wired[victim].node(),
                            "public");
    obs.engine = std::make_unique<observatory::AlertEngine>(*obs.sampler);
    obs.engine->publish_via(obs.peer.get());

    // SLO rules over the sampled series. The periodic image shares are
    // the injected load: carried bytes/s trips traffic-surge, loss
    // injection trips delivery-incomplete, and a dead management plane
    // on the watched station trips telemetry-silent.
    observatory::SloRule rule;
    rule.name = "traffic-surge";
    rule.metric = "net.bytes.delivered";
    rule.signal = observatory::Signal::rate;
    rule.warning = 16.0 * 1024.0;   // bytes/s
    rule.critical = 256.0 * 1024.0;
    rule.for_duration = sim::Duration::seconds(2.0);
    rule.clear_duration = sim::Duration::seconds(4.0);
    obs.engine->add_rule(rule);

    rule = observatory::SloRule{};
    rule.name = "delivery-incomplete";
    rule.metric = "pubsub.peer.incomplete_dropped";
    rule.signal = observatory::Signal::rate;
    rule.warning = 0.05;   // any sustained drop rate
    rule.critical = 2.0;
    rule.for_duration = sim::Duration::seconds(1.0);
    rule.clear_duration = sim::Duration::seconds(4.0);
    obs.engine->add_rule(rule);

    // A healthy zero-copy pipeline materialises each payload roughly
    // once (at message encode), so copied bytes/s tracks the publish
    // rate, far below the carried-traffic rate. A sustained climb means
    // some layer went back to re-materialising payloads (gather
    // fallbacks) — copy amplification (DESIGN.md §11).
    rule = observatory::SloRule{};
    rule.name = "copy-amplification";
    rule.metric = "pipeline.bytes_copied.total";
    rule.signal = observatory::Signal::rate;
    rule.warning = 64.0 * 1024.0;    // bytes/s materialised
    rule.critical = 512.0 * 1024.0;
    rule.for_duration = sim::Duration::seconds(2.0);
    rule.clear_duration = sim::Duration::seconds(4.0);
    obs.engine->add_rule(rule);

    rule = observatory::SloRule{};
    rule.name = "telemetry-silent";
    rule.metric = "snmp.agent.responses";
    rule.host = watched_host;
    rule.kind = observatory::RuleKind::absence;
    rule.warning = 3.0;   // seconds without a walked sample
    rule.critical = 10.0;
    // Damp the cold start: the first walk needs a round trip to land.
    rule.for_duration = sim::Duration::seconds(2.0);
    obs.engine->add_rule(rule);

    obs.sampler->start();
  }

  // Drive: wired-1 shares an image every 2 simulated seconds.
  const media::Image image = render_scene(
      media::make_crisis_scene(options.image, options.image, 1),
      options.seed);
  int shares = 0;
  sim::PeriodicTimer share_timer(
      simulator, sim::Duration::seconds(2.0), [&] {
        (void)viewers[0]->share(image,
                                     "img-" + std::to_string(++shares),
                                     "periodic incident overview");
      });
  share_timer.start();
  simulator.run_until(simulator.now() +
                      sim::Duration::seconds(options.duration_s));
  share_timer.stop();
  simulator.run_until(simulator.now() + sim::Duration::seconds(3.0));

  // ---- report -----------------------------------------------------------
  std::printf("scenario: %d wired, %d wireless, loss=%.2f, pf-ramp=%s, "
              "%.0fs, image %dx%d, seed %llu\n",
              options.wired, options.wireless, options.loss,
              options.pf_ramp ? "yes" : "no", options.duration_s,
              options.image, options.image,
              static_cast<unsigned long long>(options.seed));
  for (int i = 0; i < 78; ++i) std::putchar('-');
  std::putchar('\n');
  std::printf("%-12s %9s %9s %9s %9s %12s\n", "client", "images", "sketches",
              "texts", "dropped", "last-packets");
  for (std::size_t i = 0; i < wired.size(); ++i) {
    std::size_t images = 0, sketches = 0, texts = 0;
    for (const app::Display& d : viewers[i]->displays()) {
      switch (d.modality) {
        case media::Modality::image: ++images; break;
        case media::Modality::sketch: ++sketches; break;
        default: ++texts; break;
      }
    }
    const auto& stats = wired[i].client().peer_stats();
    std::printf("%-12s %9zu %9zu %9zu %9llu %12d\n",
                wired[i].client().name().c_str(), images, sketches, texts,
                static_cast<unsigned long long>(stats.incomplete_dropped),
                wired[i].client().last_decision().packets);
  }
  for (const auto& client : thin) {
    const auto& got = client->received_by_modality();
    const auto count = [&got](media::Modality m) {
      const auto it = got.find(m);
      return it == got.end() ? std::size_t{0} : it->second;
    };
    const auto grade = base_station->grade(client->station());
    std::printf("%-12s %9zu %9zu %9zu %9s %12s\n", "(wireless)",
                count(media::Modality::image), count(media::Modality::sketch),
                count(media::Modality::text), "-",
                grade ? std::string(to_string(grade.value())).c_str() : "?");
  }
  for (int i = 0; i < 78; ++i) std::putchar('-');
  std::putchar('\n');
  std::printf("network: %llu datagrams sent, %llu delivered, %llu lost, "
              "%.1f MiB carried\n",
              static_cast<unsigned long long>(network.stats().datagrams_sent),
              static_cast<unsigned long long>(
                  network.stats().datagrams_delivered),
              static_cast<unsigned long long>(
                  network.stats().datagrams_dropped_loss),
              static_cast<double>(network.stats().bytes_delivered) /
                  (1024.0 * 1024.0));
  if (base_station) {
    std::printf("base station: %llu downlink unicasts, %llu suppressed by "
                "grade, %llu by profile\n",
                static_cast<unsigned long long>(
                    base_station->stats().downlink_unicasts),
                static_cast<unsigned long long>(
                    base_station->stats().suppressed_by_grade),
                static_cast<unsigned long long>(
                    base_station->stats().suppressed_by_profile));
  }

  // ---- observatory report -----------------------------------------------
  if (options.observe) {
    obs.sampler->stop();
    for (int i = 0; i < 78; ++i) std::putchar('-');
    std::putchar('\n');
    const auto sampler_stats = obs.sampler->stats();
    std::printf(
        "observatory: %llu ticks, %llu local points, %zu series; "
        "%llu walks of %s (%llu points, %llu failures)\n",
        static_cast<unsigned long long>(sampler_stats.ticks),
        static_cast<unsigned long long>(sampler_stats.local_points),
        obs.sampler->series_count(),
        static_cast<unsigned long long>(sampler_stats.remote_walks),
        watched_host.c_str(),
        static_cast<unsigned long long>(sampler_stats.remote_points),
        static_cast<unsigned long long>(sampler_stats.remote_failures));
    if (const auto* series =
            obs.sampler->find("", "net.bytes.delivered")) {
      std::printf("net.bytes.delivered: %.0f B total, %.0f B/s peak "
                  "(%zu points)\n",
                  series->back().value,
                  series->max_rate_over(sim::Duration::seconds(
                      options.duration_s)),
                  series->size());
    }
    if (const auto* series =
            obs.sampler->find("", "pipeline.bytes_copied.total")) {
      std::printf("pipeline.bytes_copied.total: %.0f B materialised, "
                  "%.0f B/s peak (copy amplification watch)\n",
                  series->back().value,
                  series->max_rate_over(sim::Duration::seconds(
                      options.duration_s)));
    }

    const auto engine_stats = obs.engine->stats();
    std::printf("alerts: %llu raised, %llu cleared, %llu published, "
                "%zu active at end\n",
                static_cast<unsigned long long>(engine_stats.raised),
                static_cast<unsigned long long>(engine_stats.cleared),
                static_cast<unsigned long long>(engine_stats.published),
                obs.engine->active());
    for (const auto& t : obs.engine->history()) {
      std::printf("  t=%7.2fs  %-20s %-8s -> %-8s (%s%s%s = %.1f)\n",
                  t.time.as_seconds(), t.rule.c_str(),
                  std::string(to_string(t.from)).c_str(),
                  std::string(to_string(t.to)).c_str(), t.metric.c_str(),
                  t.host.empty() ? "" : "@", t.host.c_str(), t.value);
    }

    // Decisions that saw an alert attribute: the closed loop's receipt.
    auto records = core::DecisionAuditLog::global().drain();
    std::size_t alerted_decisions = 0;
    for (const auto& record : records) {
      for (const auto& entry : record.inputs) {
        if (entry.name().rfind("alert.", 0) == 0) {
          ++alerted_decisions;
          break;
        }
      }
    }
    std::printf("decision audit: %zu records, %zu with alert inputs -> "
                "AUDIT_scenario.jsonl\n",
                records.size(), alerted_decisions);
    if (std::FILE* audit = std::fopen("AUDIT_scenario.jsonl", "w")) {
      for (const auto& record : records) {
        std::fprintf(audit, "%s\n",
                     core::DecisionAuditLog::to_jsonl(record).c_str());
      }
      std::fclose(audit);
    }

    observatory::TraceAnalyzer analyzer;
    analyzer.consume(telemetry::Tracer::global());
    std::printf("\n%s", analyzer.report().to_text().c_str());
    if (analyzer.dump_chrome_trace("TRACE_scenario.json").ok()) {
      std::printf("chrome trace written to TRACE_scenario.json\n");
    }
  }
  return 0;
}
