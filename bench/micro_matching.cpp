// Matching fast-path microbench: the numbers behind DESIGN.md's
// "Matching fast path" section and the decode-cache sizing.
//
// Workloads (see EXPERIMENTS.md):
//   1. selector_match_compiled    — Selector::matches (bytecode VM)
//   2. selector_match_interpreted — the reference tree walk
//      (tests/support/reference_selector.hpp), the seed's evaluator
//   3. attributeset_find_by_name  — string-keyed lookup (interned path)
//   4. stream_match_cold          — full decode + interpreted match: the
//      seed receive path for every message of a steady-state stream
//   5. stream_match_cached        — decode through a SelectorCache + the
//      compiled match: the fast path this PR adds
//
// The stream workloads model the paper's Figure-3 scenario: one sender
// streaming small updates (16 B payload) under one rich selector
// (~45 AST nodes, ~100 literals), every receiver re-interpreting each
// message. Results
// land in BENCH_matching.json in the working directory.
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "collabqos/pubsub/message.hpp"
#include "collabqos/pubsub/peer.hpp"
#include "collabqos/pubsub/selector_cache.hpp"
#include "support/reference_selector.hpp"

using namespace collabqos;
using namespace collabqos::pubsub;

namespace {

// A selector of rich-session complexity: ~45 AST nodes mixing equality,
// ordering, membership, existence and negation, with geo/asset scoping
// memberships and an enumerated task force (the decode-heavy shape real
// selectors take when semantic addressing replaces an explicit roster —
// the sender names the ~100 literal values, every receiver re-decodes
// them on every message of the stream).
constexpr const char* kSelectorText =
    "(role == 'responder' or role == 'coordinator') and "
    "exists capability.video and "
    "capability.video.codec in ('h261', 'h263', 'mjpeg', 'wavelet') and "
    "capability.video.width >= 320 and capability.video.height >= 240 and "
    "not (device.power < 20) and "
    "(net.bandwidth > 128 or net.latency < 50) and "
    "sector.primary in ('n1', 'n2', 'n3', 'n4', 'n5', 'n6', "
    "'e1', 'e2', 'e3', 'e4', 'e5', 'e6') and "
    "sector.backup in ('s1', 's2', 's3', 's4', 's5', 's6', "
    "'w1', 'w2', 'w3', 'w4', 'w5', 'w6') and "
    "unit.kind in ('engine', 'ladder', 'medic', 'hazmat', 'command') and "
    "unit.id in ('engine-1', 'engine-2', 'engine-3', 'engine-4', "
    "'engine-5', 'engine-6', 'engine-7', 'engine-8', 'engine-9', "
    "'engine-10', 'engine-11', 'engine-12', 'ladder-1', 'ladder-2', "
    "'ladder-3', 'ladder-4', 'ladder-5', 'ladder-6', 'ladder-7', "
    "'ladder-8', 'medic-1', 'medic-2', 'medic-3', 'medic-4', 'medic-5', "
    "'medic-6', 'medic-7', 'medic-8', 'medic-9', 'medic-10', 'hazmat-1', "
    "'hazmat-2', 'hazmat-3', 'hazmat-4', 'command-1', 'command-2', "
    "'command-3', 'command-4', 'command-5', 'command-6') and "
    "deployment in ('staging', 'active', 'rehab', 'transport') and "
    "clearance in ('blue', 'amber', 'red') and "
    "interest.topic == 'crisis.map'";

Profile make_profile() {
  Profile profile;
  profile.set("role", "responder");
  profile.set("capability.video", true);
  profile.set("capability.video.codec", "wavelet");
  profile.set("capability.video.width", 640);
  profile.set("capability.video.height", 480);
  profile.set("capability.audio", true);
  profile.set("device.power", 80);
  profile.set("device.display.depth", 24);
  profile.set("net.bandwidth", 256);
  profile.set("net.latency", 20);
  profile.set("interest.topic", "crisis.map");
  profile.set("site", "field-7");
  profile.set("sector.primary", "n4");
  profile.set("sector.backup", "w2");
  profile.set("unit.kind", "engine");
  profile.set("unit.id", "engine-3");
  profile.set("deployment", "active");
  profile.set("clearance", "amber");
  profile.set_interest(
      Selector::parse("kind == 'position' and exists unit").take());
  return profile;
}

SemanticMessage make_message() {
  SemanticMessage message;
  message.selector = Selector::parse(kSelectorText).take();
  message.content.set("kind", "position");
  message.content.set("unit", "engine-3");
  message.event_type = "map.update";
  message.sender_id = 7;
  message.sequence = 1;
  message.payload = serde::ByteChain(serde::Bytes(16, 0x5A));
  return message;
}

// The seed receive path: the message decoded, its selector decoded from
// the wire into a tree and walked, and the profile's interest (a tree
// built once, as the seed parsed it once) walked against the content.
// The library's decode goes through `cache`, so the selector is decoded
// once per message, by the reference. Capability rewrites never trigger
// in this workload, so this equals the seed `match`.
bool seed_match(const Profile& profile, const reference::Node* interest,
                const serde::ByteChain& wire, SelectorCache& cache) {
  auto decoded = SemanticMessage::decode(wire, cache);
  serde::Reader r(wire);
  (void)r.u8();  // the message's magic octet; its selector follows
  const auto selector = reference::decode(r);
  if (!reference::evaluate(*selector, profile.attributes())) return false;
  return interest == nullptr ||
         reference::evaluate(*interest, decoded.value().content);
}

struct Measurement {
  std::string name;
  std::size_t iterations = 0;
  double ns_per_op = 0.0;
};

std::uint64_t g_sink = 0;  // defeats dead-code elimination

Measurement time_workload(std::string name,
                          const std::function<std::uint64_t()>& op) {
  using clock = std::chrono::steady_clock;
  // Warm up, then scale the iteration count to ~0.2 s of runtime.
  std::size_t iterations = 1000;
  for (std::size_t i = 0; i < iterations; ++i) g_sink += op();
  const auto probe_start = clock::now();
  for (std::size_t i = 0; i < iterations; ++i) g_sink += op();
  const double probe_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                           probe_start)
          .count());
  const double target_ns = 200e6;
  iterations = static_cast<std::size_t>(
      iterations * (probe_ns > 0 ? target_ns / probe_ns : 1.0)) + 1;
  const auto start = clock::now();
  for (std::size_t i = 0; i < iterations; ++i) g_sink += op();
  const double elapsed_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                           start)
          .count());
  Measurement m;
  m.name = std::move(name);
  m.iterations = iterations;
  m.ns_per_op = elapsed_ns / static_cast<double>(iterations);
  std::printf("%-28s %12zu iters %12.1f ns/op %14.0f ops/s\n",
              m.name.c_str(), m.iterations, m.ns_per_op,
              1e9 / m.ns_per_op);
  return m;
}

}  // namespace

int main() {
  std::printf(
      "Semantic matching microbench (~45-node selector, 16 B payload)\n");
  for (int i = 0; i < 78; ++i) std::putchar('-');
  std::putchar('\n');

  const Profile profile = make_profile();
  const SemanticMessage message = make_message();
  const serde::ByteChain wire(message.encode());

  std::vector<Measurement> results;
  results.push_back(time_workload("selector_match_compiled", [&] {
    return static_cast<std::uint64_t>(
        message.selector.matches(profile.attributes()));
  }));
  const auto reference_tree = reference::tree_of(message.selector);
  results.push_back(time_workload("selector_match_interpreted", [&] {
    return static_cast<std::uint64_t>(
        reference::evaluate(*reference_tree, profile.attributes()));
  }));
  results.push_back(time_workload("attributeset_find_by_name", [&] {
    return static_cast<std::uint64_t>(
        profile.attributes().find("capability.video.codec") != nullptr);
  }));
  const auto interest_tree = reference::tree_of(*profile.interest());
  SelectorCache seed_cache;
  results.push_back(time_workload("stream_match_cold", [&] {
    return static_cast<std::uint64_t>(
        seed_match(profile, interest_tree.get(), wire, seed_cache));
  }));
  SelectorCache cache;
  results.push_back(time_workload("stream_match_cached", [&] {
    auto decoded = SemanticMessage::decode(wire, cache);
    return static_cast<std::uint64_t>(
        match(profile, decoded.value()).delivered());
  }));

  const double cold = results[3].ns_per_op;
  const double cached = results[4].ns_per_op;
  const double speedup = cold / cached;
  std::printf("\ncached stream vs seed interpreter path: %.1fx\n", speedup);
  std::printf("(sink: %llu)\n", static_cast<unsigned long long>(g_sink));

  std::FILE* out = std::fopen("BENCH_matching.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_matching.json\n");
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"micro_matching\",\n");
  std::fprintf(out,
               "  \"workload\": \"~45-node selector (~100 literals), "
               "18-attribute profile, 16-byte payload\",\n");
  std::fprintf(out, "  \"workloads\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"iterations\": %zu, "
                 "\"ns_per_op\": %.1f, \"ops_per_sec\": %.0f}%s\n",
                 results[i].name.c_str(), results[i].iterations,
                 results[i].ns_per_op, 1e9 / results[i].ns_per_op,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"cached_vs_seed_interpreter_speedup\": %.2f\n}\n",
               speedup);
  std::fclose(out);
  return 0;
}
