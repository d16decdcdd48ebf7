// Substrate micro-benchmarks (google-benchmark): selector matching,
// profile interpretation, wire codec, RTP packetisation/reassembly,
// SNMP PDU + MIB service path, and the concurrency controller.
#include <benchmark/benchmark.h>

#include "collabqos/core/concurrency.hpp"
#include "collabqos/net/rtp.hpp"
#include "collabqos/pubsub/message.hpp"
#include "collabqos/snmp/mib.hpp"
#include "collabqos/snmp/pdu.hpp"
#include "collabqos/util/rng.hpp"

namespace {

using namespace collabqos;

pubsub::Profile bench_profile() {
  pubsub::Profile profile;
  profile.set("media.type", "video");
  profile.set("video.color", true);
  profile.set("video.encoding", "MPEG2");
  profile.set("team", "rescue");
  profile.set("battery.fraction", 0.8);
  return profile;
}

void BM_SelectorParse(benchmark::State& state) {
  const std::string source =
      "media.type == 'video' and (video.color == true or "
      "battery.fraction >= 0.5) and not exists suppressed";
  for (auto _ : state) {
    auto selector = pubsub::Selector::parse(source);
    benchmark::DoNotOptimize(selector);
  }
}
BENCHMARK(BM_SelectorParse);

void BM_SelectorMatch(benchmark::State& state) {
  const auto selector =
      pubsub::Selector::parse(
          "media.type == 'video' and (video.color == true or "
          "battery.fraction >= 0.5) and not exists suppressed")
          .take();
  const pubsub::Profile profile = bench_profile();
  for (auto _ : state) {
    benchmark::DoNotOptimize(selector.matches(profile.attributes()));
  }
}
BENCHMARK(BM_SelectorMatch);

void BM_SemanticInterpretation(benchmark::State& state) {
  pubsub::Profile profile = bench_profile();
  profile.set_interest(
      pubsub::Selector::parse("video.encoding == 'JPEG'").take());
  profile.add_capability({"video.encoding", "MPEG2", "JPEG"});
  pubsub::SemanticMessage message;
  message.selector = pubsub::Selector::parse("team == 'rescue'").take();
  message.content.set("media.type", "video");
  message.content.set("video.encoding", "MPEG2");
  for (auto _ : state) {
    benchmark::DoNotOptimize(pubsub::match(profile, message));
  }
}
BENCHMARK(BM_SemanticInterpretation);

void BM_MessageCodec(benchmark::State& state) {
  pubsub::SemanticMessage message;
  message.selector =
      pubsub::Selector::parse("a == 1 and b == 'two' or c >= 3.5").take();
  message.content.set("media.type", "image");
  message.event_type = "media.share";
  message.payload = serde::ByteChain(
      serde::Bytes(static_cast<std::size_t>(state.range(0)), 0x5A));
  for (auto _ : state) {
    const serde::ByteChain bytes(message.encode());
    auto decoded = pubsub::SemanticMessage::decode(bytes);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MessageCodec)->Arg(256)->Arg(4096)->Arg(65536);

void BM_RtpPacketizeReassemble(benchmark::State& state) {
  const serde::SharedBytes object(
      serde::Bytes(static_cast<std::size_t>(state.range(0)), 0xAB));
  std::uint32_t timestamp = 0;
  net::RtpPacketizer packetizer(1, 1400);
  for (auto _ : state) {
    net::RtpReceiver receiver;
    std::size_t delivered = 0;
    receiver.on_object(
        [&delivered](const net::RtpObject& o) { delivered += o.fragments_received; });
    for (const auto& packet :
         packetizer.packetize_views(object, 96, ++timestamp)) {
      (void)receiver.ingest(packet.wire(), {});
    }
    benchmark::DoNotOptimize(delivered);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RtpPacketizeReassemble)->Arg(1400)->Arg(20000)->Arg(200000);

void BM_SnmpServicePath(benchmark::State& state) {
  snmp::Mib mib;
  double cpu = 42.0;
  mib.add_provider(snmp::oids::tassl_cpu_load(), [&cpu] {
    return snmp::Value::gauge(static_cast<std::uint64_t>(cpu));
  });
  snmp::Pdu request;
  request.type = snmp::PduType::get;
  request.community = "public";
  request.bindings.resize(1);
  request.bindings[0].oid = snmp::oids::tassl_cpu_load();
  const serde::Bytes wire = request.encode();
  for (auto _ : state) {
    auto decoded = snmp::Pdu::decode(wire);
    auto value = mib.get(decoded.value().bindings[0].oid);
    snmp::Pdu response = decoded.value();
    response.type = snmp::PduType::response;
    response.bindings[0].value = std::move(value).take();
    benchmark::DoNotOptimize(response.encode());
  }
}
BENCHMARK(BM_SnmpServicePath);

void BM_MibGetNextWalk(benchmark::State& state) {
  snmp::Mib mib;
  for (std::uint32_t i = 0; i < 256; ++i) {
    mib.add_scalar(snmp::oids::tassl_root().concat({i, 0}),
                   snmp::Value::gauge(i));
  }
  for (auto _ : state) {
    // GETNEXT as the agent answers it: the object at upper_bound.
    snmp::Oid cursor = snmp::oids::tassl_root();
    std::size_t visited = 0;
    while (true) {
      const std::size_t next = mib.upper_bound(cursor);
      if (next == mib.size()) break;
      cursor = mib.oid_at(next);
      benchmark::DoNotOptimize(mib.value_at(next));
      ++visited;
    }
    benchmark::DoNotOptimize(visited);
  }
}
BENCHMARK(BM_MibGetNextWalk);

void BM_ConcurrencyIntegrate(benchmark::State& state) {
  Rng rng(1);
  std::vector<core::Operation> ops;
  core::ConcurrencyController writer(1);
  for (int i = 0; i < 1024; ++i) {
    ops.push_back(writer.originate("board", "stroke", {1, 2, 3, 4}));
  }
  for (auto _ : state) {
    core::ConcurrencyController replica(2);
    for (const auto& op : ops) replica.integrate(op);
    benchmark::DoNotOptimize(replica.digest());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_ConcurrencyIntegrate);

}  // namespace

BENCHMARK_MAIN();
