// qosbench: one seeded end-to-end collabqos session, measured from outside.
//
//   qosbench --workload imagery|chatter|storm --seed N [--trace]
//            [--setup-only]
//
// Builds the workload's topology through the public APIs (setup, timed
// as setup_s), then drives it window by window in simulated time: every
// window (= the workload's publish period) schedules that window's
// publishes at fixed sim-clock offsets — open loop, whatever the host's
// progress — and runs the simulator to the window's end while the host
// clock times it. After the last window the run drains, the delivery
// ledger is closed and one JSON object describing the session is
// printed on stdout. perfbench/run.py runs one session per process and
// aggregates them; see perfbench/README.md for the metrics.
//
// The ledger is the correctness oracle. The benchmark decides from its
// own audience model which (object, receiver) pairs are eligible,
// records every delivery its handlers observe, and reports an
// order-insensitive fingerprint over (object, receiver, modality,
// packets). A delivery to an ineligible receiver, or a pair delivered
// twice, is a failed check.
//
// With --trace the program's Tracer is enabled, and after the run each
// layer's public entry points are replayed on inputs captured during the
// run to price one call; multiplied by the run's work counts this
// attributes the run's host time to layers (the "layers" object).
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "collabqos/app/chat.hpp"
#include "collabqos/app/image_viewer.hpp"
#include "collabqos/chaos/controller.hpp"
#include "collabqos/chaos/schedule.hpp"
#include "collabqos/core/basestation_peer.hpp"
#include "collabqos/core/client.hpp"
#include "collabqos/core/thin_client.hpp"
#include "collabqos/media/codec.hpp"
#include "collabqos/media/sketch.hpp"
#include "collabqos/net/rtp.hpp"
#include "collabqos/observatory/alerts.hpp"
#include "collabqos/observatory/series.hpp"
#include "collabqos/observatory/trace_analysis.hpp"
#include "collabqos/snmp/host_mib.hpp"
#include "collabqos/snmp/pdu.hpp"
#include "collabqos/snmp/telemetry_mib.hpp"
#include "collabqos/telemetry/trace.hpp"
#include "collabqos/util/hash.hpp"
#include "collabqos/util/rng.hpp"

using namespace collabqos;

namespace {

using HostClock = std::chrono::steady_clock;

double seconds_between(HostClock::time_point from, HostClock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// CPU time consumed by the calling thread, in seconds.
double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Modality code the ledger records for chat operations (the operation
/// channel has no media modality).
constexpr std::uint8_t kOperation = 255;
constexpr std::size_t kMaxReceivers = 32;

// ---- delivery ledger ------------------------------------------------------

class Ledger {
 public:
  std::uint32_t add_object(sim::TimePoint published, std::uint32_t eligible) {
    objects_.push_back(Object{published, eligible});
    return static_cast<std::uint32_t>(objects_.size() - 1);
  }

  void deliver(std::uint32_t object, std::uint32_t receiver,
               std::uint8_t modality, int packets, sim::TimePoint now) {
    if (object >= objects_.size() || receiver >= kMaxReceivers) {
      ++unknown_;
      return;
    }
    const Object& record = objects_[object];
    if ((record.eligible & (1u << receiver)) == 0) {
      ++ineligible_;
      return;
    }
    const std::uint64_t key = (std::uint64_t{object} << 8) | receiver;
    const std::uint64_t outcome =
        (std::uint64_t{modality} << 32) | static_cast<std::uint32_t>(packets);
    if (!delivered_.emplace(key, outcome).second) {
      ++duplicates_;
      return;
    }
    latencies_ms_.push_back((now - record.published).as_seconds() * 1e3);
  }

  [[nodiscard]] std::uint64_t attempted() const {
    std::uint64_t total = 0;
    for (const Object& o : objects_) {
      total += static_cast<std::uint64_t>(__builtin_popcount(o.eligible));
    }
    return total;
  }
  [[nodiscard]] std::uint64_t delivered() const { return delivered_.size(); }
  [[nodiscard]] std::uint64_t duplicates() const { return duplicates_; }
  [[nodiscard]] std::uint64_t ineligible() const { return ineligible_; }
  [[nodiscard]] std::uint64_t unknown() const { return unknown_; }
  [[nodiscard]] std::size_t objects() const { return objects_.size(); }

  /// Order-insensitive: a sum of per-pair hashes, so delivery order and
  /// hash-map iteration order do not matter.
  [[nodiscard]] std::uint64_t fingerprint() const {
    std::uint64_t sum = mix64(delivered_.size());
    for (const auto& [key, outcome] : delivered_) {
      sum += mix64(mix64(key) ^ outcome);
    }
    return sum;
  }

  /// Delivered pairs per presented modality: text, speech, sketch,
  /// image, then chat operations.
  [[nodiscard]] std::array<std::uint64_t, 5> by_modality() const {
    std::array<std::uint64_t, 5> counts{};
    for (const auto& entry : delivered_) {
      const auto modality = static_cast<std::size_t>(entry.second >> 32);
      ++counts[std::min<std::size_t>(modality, 4)];
    }
    return counts;
  }

  /// Sorted publish-to-handler latencies of the delivered pairs.
  [[nodiscard]] std::vector<double> latencies_ms() const {
    std::vector<double> sorted = latencies_ms_;
    std::sort(sorted.begin(), sorted.end());
    return sorted;
  }

 private:
  struct Object {
    sim::TimePoint published;
    std::uint32_t eligible;  ///< receiver bitmask
  };
  std::vector<Object> objects_;
  std::unordered_map<std::uint64_t, std::uint64_t> delivered_;
  std::vector<double> latencies_ms_;
  std::uint64_t duplicates_ = 0;
  std::uint64_t ineligible_ = 0;
  std::uint64_t unknown_ = 0;
};

/// Nearest-rank quantile of an ascending sample; 0 when empty.
double nearest_rank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

/// Object index from an id of the form "<letter><decimal>" ("o17",
/// "c4 ..."); UINT32_MAX when malformed.
std::uint32_t parse_object_id(std::string_view text) {
  if (text.size() < 2) return UINT32_MAX;
  std::uint32_t value = 0;
  const char* begin = text.data() + 1;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr == begin) return UINT32_MAX;
  return value;
}

std::uint32_t object_of(const pubsub::SemanticMessage& message) {
  const pubsub::AttributeValue* id = message.content.find("object.id");
  if (id == nullptr) return UINT32_MAX;
  const auto text = id->as_string();
  return text ? parse_object_id(*text) : UINT32_MAX;
}

// ---- inputs captured for the traced replay --------------------------------

/// A message as one receiver saw it (media and chat operations alike).
struct MessageCapture {
  pubsub::SemanticMessage message;
  pubsub::Profile profile;  ///< the receiver's profile
};

/// A media delivery at a wired client, with what its inference applied.
struct MediaCapture {
  media::MediaObject object;          ///< as published (pre-adaptation)
  core::AdaptationDecision decision;  ///< what the receiver applied
  pubsub::AttributeSet state;         ///< the receiver's inference input
  const core::InferenceEngine* engine = nullptr;
};

constexpr std::size_t kMaxCaptures = 48;
constexpr std::uint64_t kCaptureStride = 7;

// ---- the session ----------------------------------------------------------

struct Wired {
  std::string name;
  std::uint32_t index = 0;  ///< ledger receiver index
  net::NodeId node{};
  std::unique_ptr<sim::Host> host;
  std::unique_ptr<snmp::Agent> agent;
  std::unique_ptr<snmp::Manager> manager;
  std::unique_ptr<core::CollaborationClient> client;
  std::unique_ptr<app::ImageViewer> viewer;
  std::unique_ptr<app::ChatArea> chat;
  HostClock::time_point handler_entry{};
};

/// A receiver's attributes in the benchmark's own audience model.
struct Member {
  std::string role;
  int zone = 0;
};

/// A selector and the benchmark's own evaluation of it.
struct Audience {
  std::string text;
  std::function<bool(const Member&)> admits;
};

struct Counts {
  std::uint64_t shares = 0;             ///< app-level publish calls
  std::uint64_t publish_failures = 0;   ///< of those, returned an error
  double share_s = 0.0;                 ///< host time inside them
  std::uint64_t image_shares = 0;       ///< ImageViewer::share calls
  std::uint64_t wired_media = 0;        ///< wired media deliveries
  double display_s = 0.0;               ///< host time in the app handler
  std::uint64_t image_displays = 0;
  std::uint64_t sketch_displays = 0;
  std::uint64_t thin_media = 0;
  std::uint64_t accepted_packets = 0;   ///< over wired image displays
};

struct Session {
  explicit Session(std::uint64_t seed_in, bool trace_in)
      : seed(seed_in), trace(trace_in), network(simulator, seed_in),
        rng(derive_seed(seed_in, 0xBE7C4u)) {}

  std::uint64_t seed;
  bool trace;
  sim::Simulator simulator;
  net::Network network;
  Rng rng;
  core::SessionDirectory directory;
  core::SessionInfo info;
  Ledger ledger;
  Counts counts;
  std::vector<Member> members;  ///< by ledger receiver index
  std::deque<Wired> wired;
  std::unique_ptr<core::BaseStationPeer> base_station;
  std::vector<std::unique_ptr<core::ThinClient>> thin;
  // storm only
  std::unique_ptr<chaos::ChaosController> chaos;
  std::unique_ptr<snmp::Manager> observer_manager;
  std::unique_ptr<pubsub::SemanticPeer> observer_peer;
  std::unique_ptr<observatory::TimeSeriesSampler> sampler;
  std::unique_ptr<observatory::AlertEngine> alerts;
  // imagery only
  media::Image scene;
  // traced runs
  std::vector<MessageCapture> messages;
  std::vector<MediaCapture> media_inputs;
  std::uint64_t message_tick = 0;
  std::uint64_t media_tick = 0;

  std::uint32_t add_member(Member member) {
    members.push_back(std::move(member));
    return static_cast<std::uint32_t>(members.size() - 1);
  }

  std::uint32_t eligible_mask(const Audience& audience,
                              std::uint32_t exclude) const {
    std::uint32_t mask = 0;
    for (std::uint32_t i = 0; i < members.size(); ++i) {
      if (i != exclude && audience.admits(members[i])) mask |= 1u << i;
    }
    return mask;
  }

  // Every kCaptureStride-th delivery (up to kMaxCaptures) is kept as
  // replay input; traced runs only.
  bool want_message() {
    return trace && messages.size() < kMaxCaptures &&
           (message_tick++ % kCaptureStride) == 0;
  }
  void capture_message(Wired& w, pubsub::SemanticMessage message) {
    messages.push_back(MessageCapture{std::move(message), w.client->profile()});
  }

  void capture_media(Wired& w, const pubsub::SemanticMessage& message,
                     const core::MediaAdaptationReport& report) {
    if (want_message()) capture_message(w, message);
    if (!trace || media_inputs.size() >= kMaxCaptures ||
        (media_tick++ % kCaptureStride) != 0) {
      return;
    }
    auto original = media::MediaObject::decode(message.payload);
    if (!original) return;
    MediaCapture capture;
    capture.object = std::move(original).take();
    capture.decision.modality = report.presented_modality;
    capture.decision.packets = report.packets_used;
    if (auto* state = w.client->system_state()) capture.state = state->state();
    capture.state.merge(w.client->network_state());
    capture.engine = &w.client->engine();
    media_inputs.push_back(std::move(capture));
  }

  Wired& add_wired(const std::string& name, Member member,
                   std::uint64_t client_id) {
    Wired& w = wired.emplace_back();
    w.name = name;
    w.index = add_member(std::move(member));
    w.node = network.add_node(name);
    w.host = std::make_unique<sim::Host>(simulator, name);
    w.agent = std::make_unique<snmp::Agent>(network, w.node, "public", "rw");
    snmp::install_host_instrumentation(*w.agent, *w.host, simulator);
    snmp::install_interface_instrumentation(*w.agent, network, w.node);
    w.manager = std::make_unique<snmp::Manager>(network, w.node);
    core::ClientConfig config;
    config.name = name;
    core::InferenceEngine engine(core::QoSContract{},
                                 core::PolicyDatabase::with_defaults());
    w.client = std::make_unique<core::CollaborationClient>(
        network, w.node, info, client_id, w.manager.get(), std::move(engine),
        config);
    w.client->profile().set("role", members[w.index].role);
    w.client->profile().set("zone", members[w.index].zone);
    // Handlers run in registration order: this one stamps the entry into
    // the application's media handler (the ImageViewer's, registered
    // next), the one after it stamps the exit.
    w.client->on_media([&w](const pubsub::SemanticMessage&,
                            const media::MediaObject&,
                            const core::MediaAdaptationReport&) {
      w.handler_entry = HostClock::now();
    });
    w.viewer = std::make_unique<app::ImageViewer>(*w.client);
    w.chat = std::make_unique<app::ChatArea>(*w.client);
    w.client->on_media([this, &w](const pubsub::SemanticMessage& message,
                                  const media::MediaObject& object,
                                  const core::MediaAdaptationReport& report) {
      counts.display_s += seconds_between(w.handler_entry, HostClock::now());
      ++counts.wired_media;
      int packets = 0;
      if (object.modality() == media::Modality::image) {
        ++counts.image_displays;
        packets = report.packets_used;
        counts.accepted_packets += static_cast<std::uint64_t>(packets);
      } else if (object.modality() == media::Modality::sketch) {
        ++counts.sketch_displays;
      }
      ledger.deliver(object_of(message), w.index,
                     static_cast<std::uint8_t>(object.modality()), packets,
                     simulator.now());
      capture_media(w, message, report);
    });
    w.client->on_operation([this, &w](const core::Operation& op) {
      if (op.kind != "chat.post") return;
      serde::Reader reader(op.payload);
      auto text = reader.string();
      const std::uint32_t object =
          text ? parse_object_id(text.value()) : UINT32_MAX;
      ledger.deliver(object, w.index, kOperation, 0, simulator.now());
      if (want_message()) {
        // The message publish_operation() sends for this operation.
        pubsub::SemanticMessage message;
        message.event_type = std::string(core::events::kOperation);
        message.payload = serde::ByteChain(op.encode());
        message.content.set("op.kind", op.kind);
        message.content.set("object.id", op.object_id);
        capture_message(w, std::move(message));
      }
    });
    return w;
  }

  void add_base_station(bool power_control, double noise_kappa_db) {
    core::BaseStationOptions options;
    options.channel.noise_kappa_db = noise_kappa_db;
    options.radio.power_control_enabled = power_control;
    base_station = std::make_unique<core::BaseStationPeer>(
        network, network.add_node("bs"), info, 900, options);
  }

  bool add_thin(const std::string& name, Member member,
                wireless::Position position) {
    const std::uint32_t index = add_member(std::move(member));
    core::ThinClientConfig config;
    config.name = name;
    config.position = position;
    const auto station = static_cast<std::uint32_t>(thin.size() + 1);
    thin.push_back(std::make_unique<core::ThinClient>(
        network, network.add_node(name), info,
        wireless::make_station(station), 100 + station, config));
    core::ThinClient& client = *thin.back();
    client.profile().set("role", members[index].role);
    client.profile().set("zone", members[index].zone);
    client.on_media([this, index](const pubsub::SemanticMessage& message,
                                  const media::MediaObject& object) {
      ++counts.thin_media;
      int packets = 0;
      if (const auto* image = object.get_if<media::ImageMedia>()) {
        packets = static_cast<int>(image->encoded.packets.size());
      }
      ledger.deliver(object_of(message), index,
                     static_cast<std::uint8_t>(object.modality()), packets,
                     simulator.now());
    });
    return client.attach(*base_station).ok();
  }

  /// One app-level publish: records the object and its eligible
  /// receivers in the ledger, then times `send`, which is handed the
  /// object's ledger index.
  void publish(std::uint32_t eligible,
               const std::function<Status(std::uint32_t id)>& send) {
    const std::uint32_t id = ledger.add_object(simulator.now(), eligible);
    const auto start = HostClock::now();
    const Status status = send(id);
    counts.share_s += seconds_between(start, HostClock::now());
    ++counts.shares;
    if (!status.ok()) ++counts.publish_failures;
  }

  /// Share `object` from wired client `from` to `audience`.
  void share_media(Wired& from, media::MediaObject object,
                   const Audience& audience, const pubsub::Selector& selector,
                   pubsub::AttributeSet content) {
    publish(eligible_mask(audience, from.index), [&](std::uint32_t id) {
      return from.client->share_media(object, selector, std::move(content),
                                      "o" + std::to_string(id));
    });
  }
};

// ---- workloads ------------------------------------------------------------

struct Workload {
  const char* name;
  double period_s;      ///< one window = one publish period
  int windows;          ///< publish windows per session
  int warmup_windows;   ///< left out of the window statistics
  double drain_s;       ///< quiet tail after the last window
  std::function<bool(Session&)> setup;
  std::function<void(Session&, int window)> schedule;
};

Audience everyone() {
  return Audience{"true", [](const Member&) { return true; }};
}

// imagery: scenario_runner's canonical session (3 wired with SNMP state
// polling, 2 thin clients, 5% loss and a page-fault ramp on wired-2),
// sharing a 256x256 crisis scene every 2 sim-s.
constexpr int kImageryWindows = 206;

bool setup_imagery(Session& s) {
  for (int i = 0; i < 3; ++i) {
    s.add_wired("wired-" + std::to_string(i + 1), Member{"staff", 1},
                static_cast<std::uint64_t>(i + 1));
  }
  Wired& victim = s.wired[1];
  victim.host->set_page_fault_process(std::make_unique<sim::RampProcess>(
      30.0, 100.0, s.simulator.now(),
      sim::Duration::seconds(2.0 * kImageryWindows)));
  net::LinkParams lossy;
  lossy.loss_probability = 0.05;
  if (!s.network.set_link_params(victim.node, lossy).ok()) return false;
  s.add_base_station(false, 70.0);
  for (int i = 0; i < 2; ++i) {
    if (!s.add_thin("palm-" + std::to_string(i + 1), Member{"field", 1},
                    {30.0 + 45.0 * i, 0.0})) {
      return false;
    }
  }
  s.scene = media::render_scene(media::make_crisis_scene(256, 256, 1),
                                s.seed);
  return true;
}

void schedule_imagery(Session& s, int) {
  s.simulator.schedule_after(sim::Duration::millis(1), [&s] {
    Wired& from = s.wired[0];
    s.publish(s.eligible_mask(everyone(), from.index), [&](std::uint32_t id) {
      return from.viewer->share(s.scene, "o" + std::to_string(id),
                                "periodic incident overview");
    });
    ++s.counts.image_shares;
  });
}

// chatter: 8 wired + 2 thin clients, 100 messages per sim-s: 60 chat
// posts (operation channel, every wired replica) and 40 short text notes
// with audience selectors, most from a small repeating set.
const std::vector<std::string>& chatter_roles() {
  static const std::vector<std::string> roles = {"medic", "fire", "police",
                                                 "command"};
  return roles;
}

std::vector<Audience> chatter_audiences() {
  return {
      {"role == 'medic'", [](const Member& m) { return m.role == "medic"; }},
      {"role == 'fire'", [](const Member& m) { return m.role == "fire"; }},
      {"role in ('police', 'command')",
       [](const Member& m) {
         return m.role == "police" || m.role == "command";
       }},
      {"zone <= 2", [](const Member& m) { return m.zone <= 2; }},
      {"zone == 3 or role == 'command'",
       [](const Member& m) { return m.zone == 3 || m.role == "command"; }},
      {"not (role == 'fire') and zone >= 2",
       [](const Member& m) { return m.role != "fire" && m.zone >= 2; }},
      {"exists role", [](const Member&) { return true; }},
      {"role == 'medic' or zone == 1",
       [](const Member& m) { return m.role == "medic" || m.zone == 1; }},
  };
}

struct ChatterPlan {
  std::vector<Audience> audiences = chatter_audiences();
  std::vector<pubsub::Selector> selectors;
  std::uint64_t unique_tag = 0;
  std::vector<std::string> words;
};

bool setup_chatter(Session& s, ChatterPlan& plan) {
  const auto& roles = chatter_roles();
  for (int i = 0; i < 8; ++i) {
    s.add_wired("desk-" + std::to_string(i + 1),
                Member{roles[static_cast<std::size_t>(i) % roles.size()],
                       i % 3 + 1},
                static_cast<std::uint64_t>(i + 1));
  }
  s.add_base_station(true, 50.0);
  if (!s.add_thin("palm-1", Member{"medic", 1}, {40.0, 0.0}) ||
      !s.add_thin("palm-2", Member{"fire", 2}, {80.0, 20.0})) {
    return false;
  }
  for (const Audience& audience : plan.audiences) {
    auto selector = pubsub::Selector::parse(audience.text);
    if (!selector) return false;
    plan.selectors.push_back(std::move(selector).take());
  }
  plan.words = {"triage", "sector", "north", "hydrant", "ambulance",
                "status", "clear",  "units", "perimeter", "casualty",
                "route",  "supply", "radio", "relay",     "standby"};
  return true;
}

std::string chatter_text(Session& s, const ChatterPlan& plan,
                         std::size_t words) {
  std::string text;
  for (std::size_t i = 0; i < words; ++i) {
    if (!text.empty()) text += ' ';
    text += plan.words[static_cast<std::size_t>(s.rng.uniform_int(
        0, static_cast<std::int64_t>(plan.words.size()) - 1))];
  }
  return text;
}

void schedule_chatter(Session& s, ChatterPlan& plan, int) {
  for (int slot = 0; slot < 100; ++slot) {
    const bool post = slot % 5 < 3;  // 60 posts, 40 notes per window
    const auto author = static_cast<std::size_t>(
        s.rng.uniform_int(0, static_cast<std::int64_t>(s.wired.size()) - 1));
    const double offset_ms = 10.0 * slot + s.rng.uniform(0.5, 9.5);
    if (post) {
      std::string body = chatter_text(s, plan, 6);
      s.simulator.schedule_after(
          sim::Duration::micros(static_cast<std::int64_t>(offset_ms * 1e3)),
          [&s, author, body = std::move(body)] {
            Wired& from = s.wired[author];
            // Chat rides the operation channel: every other wired
            // replica integrates it; thin clients present media only.
            std::uint32_t eligible = 0;
            for (const Wired& w : s.wired) eligible |= 1u << w.index;
            eligible &= ~(1u << from.index);
            s.publish(eligible, [&](std::uint32_t id) {
              return from.chat->post("c" + std::to_string(id) + " " + body);
            });
          });
      continue;
    }
    // Notes: 90% of selectors repeat from the common set (selector cache
    // hits); the rest add a unique conjunct `not (uniq == N)`, true on
    // every profile (none has `uniq`), so the audience is unchanged but
    // every receiver's cache misses.
    const auto which = static_cast<std::size_t>(s.rng.uniform_int(
        0, static_cast<std::int64_t>(plan.audiences.size()) - 1));
    const bool unique = s.rng.chance(0.1);
    pubsub::Selector selector = plan.selectors[which];
    if (unique) {
      selector = selector.and_with(
          pubsub::Selector::equals("uniq", static_cast<std::int64_t>(
                                               ++plan.unique_tag))
              .negate());
    }
    media::TextMedia note{chatter_text(s, plan, 24)};
    s.simulator.schedule_after(
        sim::Duration::micros(static_cast<std::int64_t>(offset_ms * 1e3)),
        [&s, &plan, author, which, selector = std::move(selector),
         note = std::move(note)]() mutable {
          pubsub::AttributeSet content;
          content.set("topic", "note");
          s.share_media(s.wired[author], media::MediaObject(std::move(note)),
                        plan.audiences[which], selector, std::move(content));
        });
  }
}

// storm: one publisher sends 24 KiB multi-fragment text objects every
// 500 ms to 3 wired subscribers and 2 thin clients under a repeating,
// seed-generated ChaosSchedule (burst loss on two subscribers, reorder,
// duplication and a brief partition every 10 sim-s; no crash or outage).
// The observatory samples every sim-s, walks one agent and evaluates the
// scenario_runner SLO rules.
constexpr int kStormWindows = 480;
constexpr std::size_t kStormObjectBytes = 24 * 1024;

std::string storm_schedule(std::uint64_t seed, double total_s) {
  Rng rng(derive_seed(seed, 0x5702Au));
  std::string text;
  char line[160];
  for (double cycle = 0.0; cycle + 10.0 <= total_s; cycle += 10.0) {
    // Burst loss on two of the three wired subscribers.
    const int spared = static_cast<int>(rng.uniform_int(1, 3));
    const int first = spared == 1 ? 2 : 1;
    const int second = spared == 3 ? 2 : 3;
    std::snprintf(line, sizeof line,
                  "at %.3fs for 4s burst nodes=w%d,w%d p_gb=0.25 p_bg=0.3 "
                  "loss_bad=0.8 seed=%llu\n",
                  cycle + rng.uniform(0.2, 2.0), first, second,
                  static_cast<unsigned long long>(rng() % 100000 + 1));
    text += line;
    std::snprintf(line, sizeof line,
                  "at %.3fs for 2s reorder p=0.2 delay=25ms seed=%llu\n",
                  cycle + rng.uniform(3.5, 5.0),
                  static_cast<unsigned long long>(rng() % 100000 + 1));
    text += line;
    std::snprintf(line, sizeof line,
                  "at %.3fs for 2s duplicate p=0.2 skew=3ms seed=%llu\n",
                  cycle + rng.uniform(6.0, 7.5),
                  static_cast<unsigned long long>(rng() % 100000 + 1));
    text += line;
    std::snprintf(line, sizeof line,
                  "at %.3fs for 300ms partition nodes=w%d peers=w0\n",
                  cycle + rng.uniform(8.0, 9.5),
                  static_cast<int>(rng.uniform_int(1, 3)));
    text += line;
  }
  return text;
}

bool setup_storm(Session& s) {
  for (int i = 0; i < 4; ++i) {
    s.add_wired("w" + std::to_string(i), Member{"staff", 1},
                static_cast<std::uint64_t>(i + 1));
  }
  s.add_base_station(true, 50.0);
  for (int i = 0; i < 2; ++i) {
    if (!s.add_thin("t" + std::to_string(i + 1), Member{"field", 1},
                    {25.0 + 30.0 * i, 0.0})) {
      return false;
    }
  }

  // Observatory: sampler on the (process-local) registry plus a GETBULK
  // walk of w1's telemetry subtree, with scenario_runner's rules.
  Wired& watched = s.wired[1];
  snmp::install_telemetry_instrumentation(*watched.agent);
  const net::NodeId observer = s.network.add_node("obs");
  s.observer_manager = std::make_unique<snmp::Manager>(s.network, observer);
  pubsub::PeerOptions peer_options;
  peer_options.port = s.info.port;
  s.observer_peer = std::make_unique<pubsub::SemanticPeer>(
      s.network, observer, s.info.group, 999, peer_options);
  s.sampler = std::make_unique<observatory::TimeSeriesSampler>(
      s.simulator, telemetry::MetricsRegistry::global());
  s.sampler->add_remote(watched.name, *s.observer_manager, watched.node,
                        "public");
  s.alerts = std::make_unique<observatory::AlertEngine>(*s.sampler);
  s.alerts->publish_via(s.observer_peer.get());
  const auto rate_rule = [&s](const char* name, const char* metric,
                              double warning, double critical) {
    observatory::SloRule rule;
    rule.name = name;
    rule.metric = metric;
    rule.signal = observatory::Signal::rate;
    rule.warning = warning;
    rule.critical = critical;
    rule.for_duration = sim::Duration::seconds(1.0);
    rule.clear_duration = sim::Duration::seconds(4.0);
    s.alerts->add_rule(rule);
  };
  rate_rule("traffic-surge", "net.bytes.delivered", 16.0 * 1024.0,
            256.0 * 1024.0);
  rate_rule("delivery-incomplete", "pubsub.peer.incomplete_dropped", 0.05,
            2.0);
  rate_rule("copy-amplification", "pipeline.bytes_copied.total",
            64.0 * 1024.0, 512.0 * 1024.0);
  observatory::SloRule silent;
  silent.name = "telemetry-silent";
  silent.metric = "snmp.agent.responses";
  silent.host = watched.name;
  silent.kind = observatory::RuleKind::absence;
  silent.warning = 3.0;
  silent.critical = 10.0;
  silent.for_duration = sim::Duration::seconds(2.0);
  s.alerts->add_rule(silent);
  s.sampler->start();

  auto schedule = chaos::ChaosSchedule::parse(
      storm_schedule(s.seed, 0.5 * kStormWindows));
  if (!schedule) {
    std::fprintf(stderr, "storm schedule: %s\n",
                 schedule.error().message.c_str());
    return false;
  }
  s.chaos = std::make_unique<chaos::ChaosController>(
      s.network, derive_seed(s.seed, 0xC7A05u));
  s.chaos->arm(schedule.value());
  return true;
}

void schedule_storm(Session& s, int) {
  std::string text;
  text.reserve(kStormObjectBytes);
  while (text.size() < kStormObjectBytes) {
    text += static_cast<char>('a' + s.rng.uniform_int(0, 25));
    if (s.rng.chance(0.15)) text += ' ';
  }
  text.resize(kStormObjectBytes);
  s.simulator.schedule_after(
      sim::Duration::millis(1), [&s, text = std::move(text)]() mutable {
        pubsub::AttributeSet content;
        content.set("topic", "bulk");
        s.share_media(s.wired[0],
                      media::MediaObject(media::TextMedia{std::move(text)}),
                      everyone(), pubsub::Selector::always(),
                      std::move(content));
      });
}

// ---- per-layer replay (traced runs) ---------------------------------------

/// Mean host nanoseconds per call of `fn` over `calls` calls.
template <typename Fn>
double time_ns(std::size_t calls, Fn&& fn) {
  const auto start = HostClock::now();
  for (std::size_t i = 0; i < calls; ++i) fn(i);
  return seconds_between(start, HostClock::now()) * 1e9 /
         static_cast<double>(std::max<std::size_t>(1, calls));
}

struct Replay {
  double encode_ns = 0, sketch_ns = 0, decode_ns = 0, render_ns = 0;
  double adapt_ns = 0, msg_encode_ns = 0, msg_decode_ns = 0, match_ns = 0;
  double packetize_ns = 0, ingest_ns = 0, decide_ns = 0, pdu_ns = 0;
  double sample_ns = 0, event_ns = 0, datagram_ns = 0;
};

/// Prices one call of each layer's public entry point on the inputs the
/// session captured. `cache_hit_ratio` weights the selector-cache hit
/// and miss paths of message decode as the run saw them; `queue_depth`
/// and `datagram_bytes` shape the simulator and network replays.
Replay replay_layers(Session& s, double cache_hit_ratio,
                     std::size_t queue_depth, std::size_t datagram_bytes) {
  Replay r;
  volatile std::size_t sink = 0;
  const auto keep = [&sink](std::size_t v) { sink = sink + v; };

  // media: the shared scene's encode and sketch; the adaptation each
  // captured delivery received, then the display decode/render of its
  // result.
  if (s.counts.image_shares > 0) {
    r.encode_ns = time_ns(3, [&](std::size_t) {
      keep(media::encode_progressive(s.scene).total_bytes());
    });
    r.sketch_ns = time_ns(3, [&](std::size_t) {
      keep(media::extract_sketch(s.scene, "overview").rle.size());
    });
  }
  const media::TransformerSuite suite =
      media::TransformerSuite::with_builtins();
  std::vector<media::MediaObject> images, sketches;
  for (const MediaCapture& c : s.media_inputs) {
    auto adapted = core::adapt_media(c.object, c.decision, suite);
    if (!adapted) continue;
    const media::MediaObject& shown = adapted.value().first;
    if (shown.modality() == media::Modality::image) images.push_back(shown);
    if (shown.modality() == media::Modality::sketch) sketches.push_back(shown);
  }
  if (const std::size_t n = s.media_inputs.size(); n > 0) {
    r.adapt_ns = time_ns(n * 4, [&](std::size_t i) {
      const MediaCapture& c = s.media_inputs[i % n];
      auto adapted = core::adapt_media(c.object, c.decision, suite);
      if (adapted) keep(adapted.value().second.bytes_used);
    });
    r.decide_ns = time_ns(n * 32, [&](std::size_t i) {
      const MediaCapture& c = s.media_inputs[i % n];
      keep(static_cast<std::size_t>(c.engine->decide(c.state).packets));
    });
  }
  if (!images.empty()) {
    r.decode_ns = time_ns(images.size(), [&](std::size_t i) {
      const auto* image = images[i].get_if<media::ImageMedia>();
      auto decoded = media::decode_progressive(image->encoded,
                                               image->encoded.packets.size());
      if (decoded) keep(static_cast<std::size_t>(decoded.value().width()));
    });
  }
  if (!sketches.empty()) {
    r.render_ns = time_ns(sketches.size(), [&](std::size_t i) {
      const auto* sketch = sketches[i].get_if<media::SketchMedia>();
      auto rendered = media::render_sketch(sketch->sketch);
      if (rendered) keep(static_cast<std::size_t>(rendered.value().width()));
    });
  }

  // serde, pubsub and rtp on the captured messages.
  if (const std::size_t n = s.messages.size(); n > 0) {
    std::vector<serde::SharedBytes> encoded(n);
    r.msg_encode_ns = time_ns(n * 8, [&](std::size_t i) {
      encoded[i % n] = s.messages[i % n].message.encode();
    });
    const double cold_ns = time_ns(n * 8, [&](std::size_t i) {
      auto decoded =
          pubsub::SemanticMessage::decode(serde::ByteChain(encoded[i % n]));
      if (decoded) keep(decoded.value().payload.size());
    });
    pubsub::SelectorCache cache;
    for (const serde::SharedBytes& bytes : encoded) {
      (void)pubsub::SemanticMessage::decode(serde::ByteChain(bytes), cache);
    }
    const double warm_ns = time_ns(n * 8, [&](std::size_t i) {
      auto decoded = pubsub::SemanticMessage::decode(
          serde::ByteChain(encoded[i % n]), cache);
      if (decoded) keep(decoded.value().payload.size());
    });
    r.msg_decode_ns =
        cache_hit_ratio * warm_ns + (1.0 - cache_hit_ratio) * cold_ns;
    r.match_ns = time_ns(n * 32, [&](std::size_t i) {
      const MessageCapture& c = s.messages[i % n];
      keep(static_cast<std::size_t>(pubsub::match(c.profile, c.message).kind));
    });
    net::RtpPacketizer packetizer(0x51u, 1400);
    std::vector<std::vector<net::RtpPacket>> packets(n);
    r.packetize_ns = time_ns(n * 8, [&](std::size_t i) {
      packets[i % n] = packetizer.packetize_views(
          encoded[i % n], 96, static_cast<std::uint32_t>(i + 1));
    });
    std::vector<serde::ByteChain> wire;
    for (const auto& object : packets) {
      for (const net::RtpPacket& packet : object) wire.push_back(packet.wire());
    }
    net::RtpReceiver receiver;
    std::size_t objects = 0;
    receiver.on_object([&objects](const net::RtpObject&) { ++objects; });
    r.ingest_ns = time_ns(wire.size(), [&](std::size_t i) {
      (void)receiver.ingest(wire[i], s.simulator.now());
    });
    keep(objects);
  }

  // snmp: the state poller's GET and its response carrying the agent's
  // current values, each encoded and decoded (ns per PDU).
  if (!s.wired.empty()) {
    snmp::Pdu request;
    request.type = snmp::PduType::get;
    request.community = "public";
    request.request_id = 4242;
    snmp::Pdu response = request;
    response.type = snmp::PduType::response;
    for (const snmp::Oid& oid :
         {snmp::oids::tassl_cpu_load(), snmp::oids::tassl_page_faults(),
          snmp::oids::tassl_free_memory(), snmp::oids::tassl_if_utilization(),
          snmp::oids::tassl_bandwidth()}) {
      request.bindings.push_back(snmp::VarBind{oid, snmp::Value{}});
      auto value = s.wired[0].agent->mib().get(oid);
      response.bindings.push_back(
          snmp::VarBind{oid, value ? value.value() : snmp::Value{}});
    }
    const snmp::Pdu* pdus[2] = {&request, &response};
    r.pdu_ns = time_ns(2000, [&](std::size_t i) {
      auto decoded = snmp::Pdu::decode(pdus[i % 2]->encode());
      if (decoded) keep(decoded.value().bindings.size());
    });
  }

  // observatory: one local sweep of the registry as the run left it.
  {
    observatory::TimeSeriesSampler sampler(
        s.simulator, telemetry::MetricsRegistry::global());
    r.sample_ns = time_ns(200, [&](std::size_t) { sampler.sample_now(); });
  }

  // sim: schedule-and-dispatch of no-op events over a queue holding as
  // many pending events as the session did at mid-run.
  constexpr std::size_t kEvents = 200000;
  {
    sim::Simulator replay;
    for (std::size_t i = 0; i < queue_depth; ++i) {
      replay.schedule_at(sim::TimePoint{} + sim::Duration::seconds(1e6),
                         [] {});
    }
    Rng rng(7);
    std::size_t fired = 0;
    r.event_ns = time_ns(kEvents, [&](std::size_t i) {
      replay.schedule_after(sim::Duration::micros(rng.uniform_int(0, 10000)),
                            [&fired] { ++fired; });
      if (i % 4 == 3) {
        replay.run_until(replay.now() + sim::Duration::micros(2500));
      }
    });
    keep(fired);
  }

  // net: multicast datagrams of the run's mean delivered size fanned out
  // to four receivers on a private network, net of the simulator's own
  // per-event cost (ns per delivered datagram).
  {
    sim::Simulator simulator;
    net::Network network(simulator, 1);
    const net::GroupId group = net::make_group(7);
    auto sender = network.bind(network.add_node("src"), 6000);
    std::vector<std::unique_ptr<net::Endpoint>> receivers;
    std::size_t delivered = 0;
    for (int i = 0; i < 4; ++i) {
      auto endpoint =
          network.bind(network.add_node("dst" + std::to_string(i)), 6000);
      if (!endpoint || !sender) break;
      endpoint.value()->on_receive(
          [&delivered](const net::Datagram&) { ++delivered; });
      (void)endpoint.value()->join(group);
      receivers.push_back(std::move(endpoint).take());
    }
    if (sender && receivers.size() == 4) {
      const serde::SharedBytes payload(
          serde::Bytes(std::max<std::size_t>(1, datagram_bytes), 0x5a));
      constexpr std::size_t kSends = kEvents / 8;
      const double send_ns = time_ns(kSends, [&](std::size_t i) {
        (void)sender.value()->send_multicast(group, payload);
        if (i % 16 == 15) {
          simulator.run_until(simulator.now() + sim::Duration::millis(50));
        }
      });
      simulator.run_until(simulator.now() + sim::Duration::seconds(1.0));
      r.datagram_ns = std::max(
          0.0, send_ns * static_cast<double>(kSends) /
                       static_cast<double>(std::max<std::size_t>(1, delivered)) -
                   r.event_ns);
    }
  }
  return r;
}

// ---- registry deltas ------------------------------------------------------

const std::vector<std::string>& counter_families() {
  static const std::vector<std::string> names = {
      "net.datagrams.sent",
      "net.datagrams.delivered",
      "net.datagrams.dropped_loss",
      "net.datagrams.dropped_fault",
      "net.bytes.delivered",
      "pubsub.peer.published",
      "pubsub.peer.received_objects",
      "pubsub.peer.accepted",
      "pubsub.peer.accepted_with_transformation",
      "pubsub.peer.rejected",
      "pubsub.peer.incomplete_dropped",
      "pubsub.peer.undecodable",
      "pubsub.peer.nacks_sent",
      "pubsub.peer.nacks_received",
      "pubsub.peer.retransmissions",
      "pubsub.selector_cache.hits",
      "pubsub.selector_cache.misses",
      "rtp.reassembly.evicted",
      "rtp.corrupt_detected",
      "pipeline.bytes_copied.total",
      "core.inference.decisions",
      "core.base_station.downlink_unicasts",
      "core.base_station.suppressed_by_grade",
      "core.base_station.suppressed_by_profile",
      "wireless.radio.power_iterations",
      "snmp.manager.requests",
      "snmp.manager.responses",
      "snmp.manager.timeouts",
      "snmp.manager.retries",
      "snmp.agent.requests",
      "observatory.sampler.ticks",
      "observatory.sampler.remote_walks",
      "observatory.alerts.raised",
      "chaos.datagrams_dropped",
      "chaos.datagrams_duplicated",
      "chaos.datagrams_delayed",
  };
  return names;
}

std::map<std::string, double> read_counters() {
  const auto& registry = telemetry::MetricsRegistry::global();
  std::map<std::string, double> values;
  for (const std::string& name : counter_families()) {
    values[name] = registry.read(name);
  }
  return values;
}

// ---- trace statistics (traced runs) ----------------------------------------

/// Drains the tracer once per window: counts every rtp.fragment span and
/// keeps a 1-in-4 sample of traces (all spans of a sampled trace) for the
/// TraceAnalyzer, so memory stays bounded on long runs.
struct TraceSink {
  observatory::TraceAnalyzer analyzer;
  std::uint64_t transmissions = 0;
  std::uint64_t fragments = 0;

  void drain() {
    auto& tracer = telemetry::Tracer::global();
    std::vector<telemetry::Span> kept;
    for (telemetry::Span& span : tracer.drain()) {
      if (span.name == "rtp.fragment") {
        ++transmissions;
        if (const std::string* count = span.tag("fragments")) {
          fragments += std::strtoull(count->c_str(), nullptr, 10);
        }
      }
      if (mix64(span.trace_id) % 4 == 0) kept.push_back(std::move(span));
    }
    analyzer.add(std::move(kept));
  }
};

// ---- output ---------------------------------------------------------------

class JsonOut {
 public:
  void number(const char* key, double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.9g", value);
    field(key, buffer);
  }
  void integer(const char* key, std::uint64_t value) {
    field(key, std::to_string(value));
  }
  void text(const char* key, const std::string& value) {
    field(key, "\"" + value + "\"");
  }
  void raw(const char* key, const std::string& json) { field(key, json); }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  void field(const char* key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"";
    body_ += key;
    body_ += "\": ";
    body_ += value;
  }
  std::string body_;
};

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int usage() {
  std::fprintf(stderr,
               "usage: qosbench --workload imagery|chatter|storm --seed N "
               "[--trace] [--setup-only]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 1;
  bool trace = false;
  bool setup_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--workload" && i + 1 < argc) {
      workload_name = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--setup-only") {
      setup_only = true;
    } else {
      return usage();
    }
  }

  ChatterPlan chatter_plan;
  const std::vector<Workload> workloads = {
      {"imagery", 2.0, kImageryWindows, 3, 3.0, setup_imagery,
       schedule_imagery},
      {"chatter", 1.0, 300, 5, 2.0,
       [&chatter_plan](Session& s) { return setup_chatter(s, chatter_plan); },
       [&chatter_plan](Session& s, int w) {
         schedule_chatter(s, chatter_plan, w);
       }},
      {"storm", 0.5, kStormWindows, 10, 5.0, setup_storm, schedule_storm},
  };
  const auto found =
      std::find_if(workloads.begin(), workloads.end(),
                   [&](const Workload& w) { return workload_name == w.name; });
  if (found == workloads.end()) return usage();
  const Workload& workload = *found;
  const int windows = workload.windows;

  // ---- setup ----
  const auto setup_start = HostClock::now();
  Session s(seed, trace);
  pubsub::AttributeSet objective;
  objective.set("domain", "perfbench");
  auto info = s.directory.create("perfbench", objective, {});
  if (!info) return 1;
  s.info = std::move(info).take();
  if (!workload.setup(s)) {
    std::fprintf(stderr, "%s: setup failed\n", workload.name);
    return 1;
  }
  const double setup_s = seconds_between(setup_start, HostClock::now());
  if (setup_only) {
    std::printf("{\"setup_s\": %.9g}\n", setup_s);
    return 0;
  }

  if (trace) {
    telemetry::Tracer::global().set_capacity(std::size_t{1} << 17);
    telemetry::Tracer::global().set_enabled(true);
  }
  TraceSink trace_sink;

  // ---- timed span ----
  const std::map<std::string, double> before = read_counters();
  const std::uint64_t events_before = s.simulator.executed();
  const sim::TimePoint sim_start = s.simulator.now();
  const sim::Duration period = sim::Duration::seconds(workload.period_s);
  std::vector<double> window_ms;
  window_ms.reserve(static_cast<std::size_t>(windows));
  std::size_t queue_depth = 0;
  // Generating a window's inputs is the load generator's work, not the
  // program's: it happens before the window's timer starts and is taken
  // out of the run's totals.
  double generate_s = 0.0;
  const auto run_start = HostClock::now();
  const double run_cpu_start = thread_cpu_s();
  for (int k = 0; k < windows; ++k) {
    const auto generate_start = HostClock::now();
    workload.schedule(s, k);
    const auto window_start = HostClock::now();
    generate_s += seconds_between(generate_start, window_start);
    s.simulator.run_until(sim_start + period * static_cast<double>(k + 1));
    window_ms.push_back(seconds_between(window_start, HostClock::now()) * 1e3);
    if (k == windows / 2) queue_depth = s.simulator.pending();
    if (trace) trace_sink.drain();
  }
  s.simulator.run_until(s.simulator.now() +
                        sim::Duration::seconds(workload.drain_s));
  const double run_s =
      seconds_between(run_start, HostClock::now()) - generate_s;
  const double run_cpu_s = thread_cpu_s() - run_cpu_start - generate_s;
  const double sim_s = (s.simulator.now() - sim_start).as_seconds();
  const std::uint64_t events = s.simulator.executed() - events_before;
  std::map<std::string, double> delta = read_counters();
  for (auto& [name, value] : delta) value -= before.at(name);
  if (trace) {
    trace_sink.drain();
    telemetry::Tracer::global().set_enabled(false);
  }

  // ---- ledger checks ----
  const Ledger& ledger = s.ledger;
  const std::uint64_t attempted = ledger.attempted();
  const std::uint64_t delivered = ledger.delivered();
  const bool ledger_ok = ledger.ineligible() == 0 && ledger.unknown() == 0 &&
                         ledger.duplicates() == 0 && delivered <= attempted &&
                         attempted > 0;

  JsonOut out;
  out.text("workload", workload.name);
  out.integer("seed", seed);
  out.integer("traced", trace ? 1 : 0);
  out.number("setup_s", setup_s);
  out.number("run_s", run_s);
  out.number("run_cpu_s", run_cpu_s);
  out.number("sim_s", sim_s);
  out.integer("warmup_windows",
              static_cast<std::uint64_t>(workload.warmup_windows));
  {
    // Window statistics leave the warm-up windows out.
    std::vector<double> timed(
        window_ms.begin() + std::min<std::ptrdiff_t>(
                                workload.warmup_windows,
                                static_cast<std::ptrdiff_t>(window_ms.size())),
        window_ms.end());
    std::sort(timed.begin(), timed.end());
    const double p95 = nearest_rank(timed, 0.95);
    out.integer("windows", timed.size());
    out.number("window_ms_p50", nearest_rank(timed, 0.50));
    out.number("window_ms_p95", p95);
    out.integer("windows_beyond_p95",
                static_cast<std::uint64_t>(
                    timed.end() - std::upper_bound(timed.begin(), timed.end(),
                                                   p95)));
  }
  out.integer("objects", ledger.objects());
  out.integer("attempted", attempted);
  out.integer("delivered", delivered);
  out.integer("failed", attempted - std::min(attempted, delivered));
  out.integer("duplicates", ledger.duplicates());
  out.integer("publish_failures", s.counts.publish_failures);
  {
    const auto counts = ledger.by_modality();
    JsonOut modalities;
    const char* names[5] = {"text", "speech", "sketch", "image", "operation"};
    for (std::size_t i = 0; i < counts.size(); ++i) {
      modalities.integer(names[i], counts[i]);
    }
    out.raw("by_modality", modalities.str());
  }
  out.integer("ineligible", ledger.ineligible() + ledger.unknown());
  out.integer("ledger_ok", ledger_ok ? 1 : 0);
  {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%016llx",
                  static_cast<unsigned long long>(ledger.fingerprint()));
    out.text("fingerprint", buffer);
  }
  {
    const std::vector<double> latencies = ledger.latencies_ms();
    out.number("sim_latency_ms_p50", nearest_rank(latencies, 0.50));
    out.number("sim_latency_ms_p95", nearest_rank(latencies, 0.95));
  }
  out.integer("sim_events", events);

  if (trace) {
    const auto d = [&delta](const char* name) { return delta.at(name); };
    const auto per = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const double hits = d("pubsub.selector_cache.hits");
    const double hit_ratio =
        per(hits, hits + d("pubsub.selector_cache.misses"));
    const Replay r = replay_layers(
        s, hit_ratio, queue_depth,
        static_cast<std::size_t>(per(d("net.bytes.delivered"),
                                     d("net.datagrams.delivered"))));
    const Counts& c = s.counts;
    const double published = d("pubsub.peer.published");
    const double received = d("pubsub.peer.received_objects");
    const double ingests = std::max(
        0.0, d("net.datagrams.delivered") - d("snmp.agent.requests") -
                 d("snmp.manager.responses") - d("pubsub.peer.nacks_received"));
    const double matches = received + d("core.base_station.downlink_unicasts") +
                           d("core.base_station.suppressed_by_profile") +
                           d("core.base_station.suppressed_by_grade");
    const double adapts = static_cast<double>(c.wired_media + c.thin_media);
    const double pdus = d("snmp.agent.requests") + d("snmp.manager.responses");

    // Host seconds attributed to each layer: work count x replayed cost.
    const double ns = 1e-9;
    const double media_s =
        ns * (static_cast<double>(c.image_shares) * (r.encode_ns + r.sketch_ns) +
              static_cast<double>(c.image_displays) * r.decode_ns +
              static_cast<double>(c.sketch_displays) * r.render_ns +
              adapts * r.adapt_ns);
    const double serde_s =
        ns * (published * r.msg_encode_ns + received * r.msg_decode_ns);
    const double rtp_s = ns * (published * r.packetize_ns + ingests * r.ingest_ns);
    const double pubsub_s = ns * matches * r.match_ns;
    const double core_s = ns * d("core.inference.decisions") * r.decide_ns;
    const double snmp_s = ns * pdus * r.pdu_ns;
    const double observatory_s =
        ns * d("observatory.sampler.ticks") * r.sample_ns;
    const double sim_layer_s = ns * static_cast<double>(events) * r.event_ns;
    const double net_s = ns * d("net.datagrams.delivered") * r.datagram_ns;
    const double inside_app =
        ns * (static_cast<double>(c.image_shares) * (r.encode_ns + r.sketch_ns) +
              static_cast<double>(c.shares) * (r.msg_encode_ns + r.packetize_ns) +
              static_cast<double>(c.image_displays) * r.decode_ns +
              static_cast<double>(c.sketch_displays) * r.render_ns);
    const double app_s = std::max(0.0, c.share_s + c.display_s - inside_app);

    const std::vector<std::pair<std::string, double>> layer_seconds = {
        {"media", media_s},   {"sim", sim_layer_s},
        {"net", net_s},       {"rtp", rtp_s},
        {"serde", serde_s},   {"pubsub", pubsub_s},
        {"core", core_s},     {"snmp", snmp_s},
        {"observatory", observatory_s}, {"app", app_s}};
    JsonOut layers;
    for (const auto& [layer, seconds] : layer_seconds) {
      layers.number(layer.c_str(), seconds);
    }
    out.raw("layer_s", layers.str());

    const observatory::TraceReport report = trace_sink.analyzer.report();
    double transit_p95 = 0.0, reassemble_p95 = 0.0;
    for (const auto& stage : report.stages) {
      if (stage.stage == "net.transit") transit_p95 = stage.p95_us / 1e3;
      if (stage.stage == "rtp.reassemble") reassemble_p95 = stage.p95_us / 1e3;
    }

    const double deliveries = static_cast<double>(std::max<std::uint64_t>(1, delivered));
    JsonOut m;
    m.number("media.encode_ms", r.encode_ns / 1e6);
    m.number("media.sketch_ms", r.sketch_ns / 1e6);
    m.number("media.decode_ms", r.decode_ns / 1e6);
    m.number("media.adapt_ms", r.adapt_ns / 1e6);
    m.number("media.packets_accepted_mean",
             per(static_cast<double>(c.accepted_packets),
                 static_cast<double>(c.image_displays)));
    m.number("sim.events", static_cast<double>(events));
    m.number("sim.ns_per_event", r.event_ns);
    m.number("net.datagrams_sent", d("net.datagrams.sent"));
    m.number("net.datagrams_delivered", d("net.datagrams.delivered"));
    m.number("net.datagrams_dropped",
             d("net.datagrams.dropped_loss") + d("net.datagrams.dropped_fault"));
    m.number("net.bytes_delivered", d("net.bytes.delivered"));
    m.number("rtp.fragments_per_object",
             per(static_cast<double>(trace_sink.fragments),
                 static_cast<double>(trace_sink.transmissions)));
    m.number("rtp.packetize_ns", r.packetize_ns);
    m.number("rtp.ingest_ns", r.ingest_ns);
    m.number("rtp.nacks_sent", d("pubsub.peer.nacks_sent"));
    m.number("rtp.retransmissions", d("pubsub.peer.retransmissions"));
    m.number("rtp.repair_amplification",
             per(d("pubsub.peer.retransmissions"),
                 static_cast<double>(trace_sink.fragments)));
    m.number("rtp.reassembly_evicted", d("rtp.reassembly.evicted"));
    m.number("rtp.corrupt_detected", d("rtp.corrupt_detected"));
    m.number("serde.encode_ns", r.msg_encode_ns);
    m.number("serde.decode_ns", r.msg_decode_ns);
    m.number("serde.bytes_copied_per_delivery",
             d("pipeline.bytes_copied.total") / deliveries);
    m.number("pubsub.match_ns", r.match_ns);
    m.number("pubsub.cache_hit_ratio", hit_ratio);
    m.number("pubsub.accepted", d("pubsub.peer.accepted") +
                                    d("pubsub.peer.accepted_with_transformation"));
    m.number("pubsub.rejected", d("pubsub.peer.rejected"));
    m.number("pubsub.incomplete_dropped", d("pubsub.peer.incomplete_dropped"));
    m.number("pubsub.undecodable", d("pubsub.peer.undecodable"));
    m.number("core.decisions", d("core.inference.decisions"));
    m.number("core.decide_ns", r.decide_ns);
    m.number("core.bs_downlink_unicasts", d("core.base_station.downlink_unicasts"));
    m.number("core.bs_suppressed_by_grade",
             d("core.base_station.suppressed_by_grade"));
    // Power control runs when stations attach, i.e. mostly in set-up:
    // counted over the whole process, not the timed span.
    m.number("wireless.power_iterations",
             telemetry::MetricsRegistry::global().read(
                 "wireless.radio.power_iterations"));
    m.number("snmp.requests", d("snmp.manager.requests"));
    m.number("snmp.timeouts", d("snmp.manager.timeouts"));
    m.number("snmp.retries", d("snmp.manager.retries"));
    m.number("snmp.pdu_ns", r.pdu_ns);
    m.number("observatory.ticks", d("observatory.sampler.ticks"));
    m.number("observatory.remote_walks", d("observatory.sampler.remote_walks"));
    m.number("observatory.tick_us",
             d("observatory.sampler.ticks") > 0 ? r.sample_ns / 1e3 : 0.0);
    m.number("observatory.alerts_raised", d("observatory.alerts.raised"));
    m.number("chaos.datagrams_dropped", d("chaos.datagrams_dropped"));
    m.number("chaos.datagrams_duplicated", d("chaos.datagrams_duplicated"));
    m.number("chaos.datagrams_delayed", d("chaos.datagrams_delayed"));
    m.number("app.share_ms", per(c.share_s * 1e3, static_cast<double>(c.shares)));
    m.number("app.display_ms",
             per(c.display_s * 1e3, static_cast<double>(c.wired_media)));
    m.number("trace.transit_ms_p95", transit_p95);
    m.number("trace.reassemble_ms_p95", reassemble_p95);
    m.number("trace.spans_dropped",
             static_cast<double>(telemetry::Tracer::global().dropped()));
    out.raw("layers", m.str());
  }
  out.number("peak_rss_mb", peak_rss_mib());
  std::printf("%s\n", out.str().c_str());
  return ledger_ok ? 0 : 3;
}
