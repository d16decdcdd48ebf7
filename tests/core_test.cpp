// Contracts, policy database, inference engine, concurrency control,
// session directory, media adaptation.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "collabqos/core/adaptation.hpp"
#include "collabqos/core/concurrency.hpp"
#include "collabqos/core/contract.hpp"
#include "collabqos/core/inference.hpp"
#include "collabqos/core/policy.hpp"
#include "collabqos/core/session.hpp"
#include "collabqos/util/rng.hpp"

namespace collabqos::core {
namespace {

pubsub::AttributeSet state_with(const char* key, double value) {
  pubsub::AttributeSet state;
  state.set(key, value);
  return state;
}

// ---------------------------------------------------------------- contract

TEST(Contract, ViolationsDetected) {
  QoSContract contract;
  contract.constraints.push_back({"cpu.load", {}, 80.0});
  contract.constraints.push_back({"bandwidth.kbps", 100.0, {}});
  pubsub::AttributeSet state;
  state.set("cpu.load", 95.0);
  state.set("bandwidth.kbps", 50.0);
  const auto violated = contract.violations(state);
  ASSERT_EQ(violated.size(), 2u);
  EXPECT_EQ(violated[0], "cpu.load");
  EXPECT_EQ(violated[1], "bandwidth.kbps");
}

TEST(Contract, UnobservedParametersDoNotViolate) {
  QoSContract contract;
  contract.constraints.push_back({"cpu.load", {}, 80.0});
  EXPECT_TRUE(contract.violations(pubsub::AttributeSet{}).empty());
}

TEST(Contract, BoundsAreInclusive) {
  ParameterConstraint constraint{"x", 10.0, 20.0};
  EXPECT_TRUE(constraint.satisfied_by(10.0));
  EXPECT_TRUE(constraint.satisfied_by(20.0));
  EXPECT_FALSE(constraint.satisfied_by(9.99));
  EXPECT_FALSE(constraint.satisfied_by(20.01));
}

TEST(Modality, RankAndWeaker) {
  using media::Modality;
  EXPECT_LT(modality_rank(Modality::text), modality_rank(Modality::speech));
  EXPECT_LT(modality_rank(Modality::speech), modality_rank(Modality::sketch));
  EXPECT_LT(modality_rank(Modality::sketch), modality_rank(Modality::image));
  EXPECT_EQ(weaker_modality(Modality::image, Modality::text), Modality::text);
  EXPECT_EQ(weaker_modality(Modality::sketch, Modality::speech),
            Modality::speech);
}

// ------------------------------------------------------------------ policy

TEST(Policy, DefaultLadderMatchesPaper) {
  const PolicyDatabase db = PolicyDatabase::with_defaults();
  const auto packets_for = [&db](double page_faults) {
    return db.evaluate(state_with("page.faults", page_faults))
        .max_packets.value();
  };
  EXPECT_EQ(packets_for(30.0), 16);
  EXPECT_EQ(packets_for(43.9), 16);
  EXPECT_EQ(packets_for(44.0), 8);
  EXPECT_EQ(packets_for(57.9), 8);
  EXPECT_EQ(packets_for(58.0), 4);
  EXPECT_EQ(packets_for(71.9), 4);
  EXPECT_EQ(packets_for(72.0), 2);
  EXPECT_EQ(packets_for(85.9), 2);
  EXPECT_EQ(packets_for(86.0), 1);
  EXPECT_EQ(packets_for(100.0), 1);
}

TEST(Policy, NoPageFaultKeyStillGrantsFull) {
  const PolicyDatabase db = PolicyDatabase::with_defaults();
  const PolicyOutcome outcome = db.evaluate(pubsub::AttributeSet{});
  EXPECT_EQ(outcome.max_packets.value(), 16);
}

TEST(Policy, BatteryRuleForcesText) {
  const PolicyDatabase db = PolicyDatabase::with_defaults();
  const PolicyOutcome outcome =
      db.evaluate(state_with("battery.fraction", 0.1));
  ASSERT_TRUE(outcome.max_modality.has_value());
  EXPECT_EQ(outcome.max_modality.value(), media::Modality::text);
}

TEST(Policy, CongestionRuleCapsToSketch) {
  const PolicyDatabase db = PolicyDatabase::with_defaults();
  const PolicyOutcome outcome =
      db.evaluate(state_with("if.utilization", 95.0));
  EXPECT_EQ(outcome.max_modality.value(), media::Modality::sketch);
}

TEST(Policy, MatchingRulesCombineMostRestrictively) {
  PolicyDatabase db;
  db.add({"loose", pubsub::Selector::always(),
          {.max_packets = 12, .max_modality = media::Modality::image,
           .max_resolution_fraction = {}}});
  db.add({"tight", pubsub::Selector::always(),
          {.max_packets = 3, .max_modality = media::Modality::sketch,
           .max_resolution_fraction = 0.5}});
  const PolicyOutcome outcome = db.evaluate(pubsub::AttributeSet{});
  EXPECT_EQ(outcome.max_packets.value(), 3);
  EXPECT_EQ(outcome.max_modality.value(), media::Modality::sketch);
  EXPECT_DOUBLE_EQ(outcome.max_resolution_fraction.value(), 0.5);
  EXPECT_EQ(outcome.matched_rules.size(), 2u);
}

// --------------------------------------------------------------- inference

InferenceEngine default_engine() {
  return InferenceEngine(QoSContract{}, PolicyDatabase::with_defaults());
}

TEST(Inference, CpuMappingEndpoints) {
  CpuLoadMapping mapping;
  EXPECT_EQ(mapping.packets_for(0.0), 16);
  EXPECT_EQ(mapping.packets_for(30.0), 16);
  EXPECT_EQ(mapping.packets_for(100.0), 0);
  EXPECT_EQ(mapping.packets_for(150.0), 0);
  EXPECT_EQ(mapping.packets_for(65.0), 8);
}

class CpuMonotone : public ::testing::TestWithParam<double> {};

TEST_P(CpuMonotone, MoreLoadNeverMorePackets) {
  const InferenceEngine engine = default_engine();
  const double load = GetParam();
  const int packets_now =
      engine.decide(state_with("cpu.load", load)).packets;
  const int packets_more =
      engine.decide(state_with("cpu.load", load + 7.0)).packets;
  EXPECT_GE(packets_now, packets_more);
}

INSTANTIATE_TEST_SUITE_P(Loads, CpuMonotone,
                         ::testing::Values(0.0, 30.0, 40.0, 55.0, 70.0, 85.0,
                                           93.0));

TEST(Inference, PageFaultLadderDrivesDecision) {
  const InferenceEngine engine = default_engine();
  EXPECT_EQ(engine.decide(state_with("page.faults", 35.0)).packets, 16);
  EXPECT_EQ(engine.decide(state_with("page.faults", 50.0)).packets, 8);
  EXPECT_EQ(engine.decide(state_with("page.faults", 90.0)).packets, 1);
}

TEST(Inference, CombinedStateTakesMinimum) {
  const InferenceEngine engine = default_engine();
  pubsub::AttributeSet state;
  state.set("cpu.load", 40.0);     // -> ~14 packets
  state.set("page.faults", 60.0);  // -> 4 packets
  EXPECT_EQ(engine.decide(state).packets, 4);
  state.set("cpu.load", 99.0);     // -> 0 packets dominates
  EXPECT_EQ(engine.decide(state).packets, 0);
}

TEST(Inference, ContractFloorWins) {
  QoSContract contract;
  contract.min_packets = 4;
  InferenceEngine engine(contract, PolicyDatabase::with_defaults());
  EXPECT_EQ(engine.decide(state_with("page.faults", 99.0)).packets, 4);
  EXPECT_EQ(engine.decide(state_with("cpu.load", 100.0)).packets, 4);
}

TEST(Inference, ContractCapWins) {
  QoSContract contract;
  contract.max_packets = 6;
  InferenceEngine engine(contract, PolicyDatabase::with_defaults());
  const auto decision = engine.decide(pubsub::AttributeSet{});
  EXPECT_EQ(decision.packets, 6);
  EXPECT_DOUBLE_EQ(decision.resolution_fraction, 1.0);
}

TEST(Inference, UnsatisfiableContractFlagged) {
  QoSContract contract;
  contract.min_packets = 10;
  contract.max_packets = 4;
  InferenceEngine engine(contract, PolicyDatabase::with_defaults());
  const auto decision = engine.decide(pubsub::AttributeSet{});
  EXPECT_FALSE(decision.contract_satisfiable);
  EXPECT_LE(decision.packets, 4);
}

TEST(Inference, ModalityFloorHonored) {
  QoSContract contract;
  contract.min_modality = media::Modality::sketch;
  InferenceEngine engine(contract, PolicyDatabase::with_defaults());
  const auto decision =
      engine.decide(state_with("battery.fraction", 0.05));
  // Battery rule says text; the user's floor says sketch: floor wins.
  EXPECT_EQ(decision.modality, media::Modality::sketch);
}

TEST(Inference, ViolationsSurfaceInDecision) {
  QoSContract contract;
  contract.constraints.push_back({"cpu.load", {}, 50.0});
  InferenceEngine engine(contract, PolicyDatabase::with_defaults());
  const auto decision = engine.decide(state_with("cpu.load", 80.0));
  ASSERT_EQ(decision.violated_constraints.size(), 1u);
  EXPECT_EQ(decision.violated_constraints[0], "cpu.load");
}

TEST(Inference, MatchedRulesReported) {
  const InferenceEngine engine = default_engine();
  const auto decision = engine.decide(state_with("page.faults", 50.0));
  EXPECT_NE(std::find(decision.matched_rules.begin(),
                      decision.matched_rules.end(), "pf-8"),
            decision.matched_rules.end());
}

// ------------------------------------------------------------ concurrency

TEST(Lamport, TickAndObserve) {
  LamportClock clock;
  EXPECT_EQ(clock.tick(), 1u);
  EXPECT_EQ(clock.tick(), 2u);
  clock.observe(10);
  EXPECT_EQ(clock.now(), 11u);
  clock.observe(3);  // stale remote still advances local time
  EXPECT_EQ(clock.now(), 12u);
}

TEST(Concurrency, OriginateStampsIncreasingTimestamps) {
  ConcurrencyController controller(7);
  const Operation a = controller.originate("o", "k", {});
  const Operation b = controller.originate("o", "k", {});
  EXPECT_EQ(a.peer, 7u);
  EXPECT_LT(a.lamport, b.lamport);
}

TEST(Concurrency, IntegrateDeduplicates) {
  ConcurrencyController controller(1);
  Operation op = controller.originate("o", "k", {1, 2});
  EXPECT_TRUE(controller.integrate(op));
  EXPECT_FALSE(controller.integrate(op));
  EXPECT_EQ(controller.log("o")->size(), 1u);
}

TEST(Concurrency, CausalOrderingAfterReceive) {
  ConcurrencyController alice(1);
  ConcurrencyController bob(2);
  Operation first = alice.originate("o", "k", {});
  bob.integrate(first);
  Operation reply = bob.originate("o", "k", {});
  // Bob observed Alice's timestamp, so his reply sorts after it.
  EXPECT_GT(reply.order_key(), first.order_key());
}

TEST(Concurrency, ReplicasConvergeUnderAnyInterleaving) {
  // Three writers, interleaved deliveries in different orders at two
  // replicas; logs and digests must agree.
  std::vector<Operation> ops;
  ConcurrencyController w1(1), w2(2), w3(3);
  for (int i = 0; i < 5; ++i) {
    ops.push_back(w1.originate("board", "stroke", {static_cast<uint8_t>(i)}));
    ops.push_back(w2.originate("board", "stroke", {static_cast<uint8_t>(10 + i)}));
    ops.push_back(w3.originate("chat", "post", {static_cast<uint8_t>(20 + i)}));
  }
  Rng rng(9);
  ConcurrencyController replica_a(100), replica_b(200);
  std::vector<Operation> order_a = ops, order_b = ops;
  for (std::size_t i = order_b.size(); i > 1; --i) {
    std::swap(order_b[i - 1],
              order_b[static_cast<std::size_t>(
                  rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  }
  for (const auto& op : order_a) replica_a.integrate(op);
  for (const auto& op : order_b) replica_b.integrate(op);
  EXPECT_EQ(replica_a.digest(), replica_b.digest());
  EXPECT_EQ(replica_a.log("board")->size(), 10u);
  EXPECT_EQ(replica_a.log("chat")->size(), 5u);
}

TEST(Concurrency, SimultaneousOpsBothSurviveDeterministically) {
  // Two peers act "simultaneously" (same lamport): both ops persist,
  // ordered by peer id at every replica.
  ConcurrencyController a(1), b(2);
  const Operation op_a = a.originate("o", "k", {'a'});
  const Operation op_b = b.originate("o", "k", {'b'});
  ASSERT_EQ(op_a.lamport, op_b.lamport);

  ConcurrencyController replica(9);
  replica.integrate(op_b);
  replica.integrate(op_a);
  const auto ordered = replica.log("o")->ordered();
  ASSERT_EQ(ordered.size(), 2u);
  EXPECT_EQ(ordered[0]->peer, 1u);
  EXPECT_EQ(ordered[1]->peer, 2u);
}

TEST(Operation, CodecRoundTrip) {
  Operation op;
  op.object_id = "whiteboard.main";
  op.lamport = 42;
  op.peer = 7;
  op.kind = "stroke";
  op.payload = {9, 8, 7};
  auto decoded = Operation::decode(op.encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().object_id, op.object_id);
  EXPECT_EQ(decoded.value().lamport, 42u);
  EXPECT_EQ(decoded.value().peer, 7u);
  EXPECT_EQ(decoded.value().kind, "stroke");
  EXPECT_EQ(decoded.value().payload, op.payload);
}

TEST(ObjectLog, MaterializeFoldsInOrder) {
  ObjectLog log;
  Operation op;
  op.object_id = "counter";
  op.kind = "add";
  op.peer = 1;
  for (std::uint64_t t : {3, 1, 2}) {
    op.lamport = t;
    op.payload = {static_cast<std::uint8_t>(t)};
    log.insert(op);
  }
  const auto sum = log.materialize<std::vector<int>>(
      {}, [](std::vector<int>& acc, const Operation& operation) {
        acc.push_back(operation.payload[0]);
      });
  EXPECT_EQ(sum, (std::vector<int>{1, 2, 3}));
}

// ---------------------------------------------------------------- session

TEST(SessionDirectory, CreateAndDiscover) {
  SessionDirectory directory;
  pubsub::AttributeSet objective;
  objective.set("domain", "crisis");
  auto session = directory.create("incident-7", objective, {});
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(session.value().name, "incident-7");
  const auto found = directory.discover(
      pubsub::Selector::parse("domain == 'crisis'").take());
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].name, "incident-7");
  EXPECT_EQ(directory.create("incident-7", {}, {}).code(), Errc::conflict);
}

TEST(SessionDirectory, GroupsAreDistinct) {
  SessionDirectory directory;
  const auto a = directory.create("a", {}, {}).value();
  const auto b = directory.create("b", {}, {}).value();
  EXPECT_NE(raw(a.group), raw(b.group));
}

TEST(SessionDirectory, SemanticDiscovery) {
  SessionDirectory directory;
  pubsub::AttributeSet crisis;
  crisis.set("domain", "crisis");
  crisis.set("region", "north");
  pubsub::AttributeSet trading;
  trading.set("domain", "trading");
  trading.set("asset", "modems");
  (void)directory.create("crisis-north", crisis, {});
  (void)directory.create("modem-auction", trading, {});

  const auto found = directory.discover(
      pubsub::Selector::parse("domain == 'trading'").take());
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].name, "modem-auction");
  EXPECT_EQ(directory.discover(pubsub::Selector::always()).size(), 2u);
  EXPECT_TRUE(directory
                  .discover(pubsub::Selector::parse("domain == 'x'").take())
                  .empty());
}

TEST(SessionDirectory, MemberLimitEnforced) {
  SessionDirectory directory;
  (void)directory.create("small", {}, {}, 2);
  EXPECT_TRUE(directory.join("small").ok());
  EXPECT_TRUE(directory.join("small").ok());
  EXPECT_EQ(directory.join("small").code(), Errc::resource_limit);
  EXPECT_FALSE(directory.join("missing").ok());
}

// ------------------------------------------------------------- adaptation

media::MediaObject image_object(int size = 64) {
  const media::Image image =
      render_scene(media::make_crisis_scene(size, size, 1));
  media::ImageMedia m;
  m.width = size;
  m.height = size;
  m.channels = 1;
  m.description = "scene description";
  m.encoded = media::encode_progressive(image);
  return media::MediaObject(std::move(m));
}

TEST(Adaptation, FullBudgetPassesImageThrough) {
  AdaptationDecision decision;
  decision.packets = 16;
  decision.modality = media::Modality::image;
  const auto suite = media::TransformerSuite::with_builtins();
  auto result = adapt_media(image_object(), decision, suite);
  ASSERT_TRUE(result.ok());
  const auto& [object, report] = result.value();
  EXPECT_EQ(object.modality(), media::Modality::image);
  EXPECT_EQ(report.packets_used, 16);
  EXPECT_GT(report.bits_per_pixel, 0.0);
  EXPECT_GT(report.compression_ratio, 1.0);
}

TEST(Adaptation, TruncationShrinksBytesMonotonically) {
  const auto suite = media::TransformerSuite::with_builtins();
  const media::MediaObject object = image_object(128);
  std::size_t previous = SIZE_MAX;
  for (int packets = 16; packets >= 1; packets -= 3) {
    AdaptationDecision decision;
    decision.packets = packets;
    decision.modality = media::Modality::image;
    auto result = adapt_media(object, decision, suite);
    ASSERT_TRUE(result.ok());
    EXPECT_LT(result.value().second.bytes_used, previous);
    previous = result.value().second.bytes_used;
    EXPECT_EQ(result.value().second.packets_used, packets);
  }
}

TEST(Adaptation, ZeroBudgetFallsBackToText) {
  AdaptationDecision decision;
  decision.packets = 0;
  decision.modality = media::Modality::image;
  const auto suite = media::TransformerSuite::with_builtins();
  auto result = adapt_media(image_object(), decision, suite);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().first.modality(), media::Modality::text);
  EXPECT_NE(result.value()
                .first.get_if<media::TextMedia>()
                ->text.find("scene description"),
            std::string::npos);
}

TEST(Adaptation, SketchDecisionAbstractsImage) {
  AdaptationDecision decision;
  decision.packets = 16;
  decision.modality = media::Modality::sketch;
  const auto suite = media::TransformerSuite::with_builtins();
  const media::MediaObject object = image_object(128);
  auto result = adapt_media(object, decision, suite);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().first.modality(), media::Modality::sketch);
  EXPECT_LT(result.value().second.bytes_used, object.size_bytes() / 4);
}

TEST(Adaptation, NonImageMediaOnlyChangesModality) {
  AdaptationDecision decision;
  decision.packets = 2;
  decision.modality = media::Modality::speech;
  const auto suite = media::TransformerSuite::with_builtins();
  auto result = adapt_media(media::MediaObject(media::TextMedia{"hello"}),
                            decision, suite);
  ASSERT_TRUE(result.ok());
  // text is weaker than speech: stays text.
  EXPECT_EQ(result.value().first.modality(), media::Modality::text);

  decision.modality = media::Modality::text;
  auto speech_in = media::MediaObject(media::synthesize_speech("hi"));
  auto downgraded = adapt_media(speech_in, decision, suite);
  ASSERT_TRUE(downgraded.ok());
  EXPECT_EQ(downgraded.value().first.modality(), media::Modality::text);
}

TEST(Adaptation, SpeechDecisionRoutesImageViaText) {
  // image -> speech is a multi-hop path through the description text;
  // the base station uses it for voice-preferring thin clients.
  AdaptationDecision decision;
  decision.packets = 16;
  decision.modality = media::Modality::speech;
  const auto suite = media::TransformerSuite::with_builtins();
  auto result = adapt_media(image_object(), decision, suite);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().first.modality(), media::Modality::speech);
  const auto* speech =
      result.value().first.get_if<media::SpeechMedia>();
  ASSERT_NE(speech, nullptr);
  EXPECT_NE(speech->transcript.find("scene description"),
            std::string::npos);
  EXPECT_FALSE(speech->samples.empty());
}

TEST(Adaptation, ReportTracksModalities) {
  AdaptationDecision decision;
  decision.packets = 0;
  decision.modality = media::Modality::text;
  const auto suite = media::TransformerSuite::with_builtins();
  auto result = adapt_media(image_object(), decision, suite);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().second.source_modality, media::Modality::image);
  EXPECT_EQ(result.value().second.presented_modality, media::Modality::text);
}

}  // namespace
}  // namespace collabqos::core
