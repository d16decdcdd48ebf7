// Zero-copy pipeline microbench: payload bytes materialised per
// delivered message (DESIGN.md §11).
//
// Drives the real layer APIs over the same messages at MTU-sized
// fragmentation with a configurable receiver fan-out:
//
//   encode -> packetize_views -> RtpPacket::wire()
//          -> decode(chain) -> payload_chain() -> decode(chain)
//
// The copy volume is read from the pipeline.bytes_copied.* counter
// family, i.e. the same accounting the trace spans and the observatory
// report — the bench verifies the instrument as much as the pipeline.
// Each payload size is gated by an absolute bound: at most a fifth of
// what the retired copying pipeline materialised per delivery, as
// recorded in the repository's BENCH_pipeline.json. Results land in
// BENCH_pipeline.json (merged line-wise with the other bench entries).
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "bench_report.hpp"
#include "collabqos/net/rtp.hpp"
#include "collabqos/pubsub/message.hpp"
#include "collabqos/telemetry/pipeline.hpp"

using namespace collabqos;

namespace {

constexpr std::size_t kMtu = 1400;   // fragment payload on the wire
constexpr int kReceivers = 8;        // multicast fan-out per message

pubsub::SemanticMessage make_message(std::size_t payload_bytes) {
  pubsub::SemanticMessage message;
  message.content.set("media.type", "image");
  message.event_type = "bench.pipeline";
  message.sender_id = 1;
  message.payload = serde::ByteChain(serde::Bytes(payload_bytes, 0x5A));
  return message;
}

/// Copy budget per delivery for one payload size: a fifth of the
/// copying pipeline's recorded figure (6840, 54090 and 162092 B per
/// delivery at MTU 1400 with 8 receivers), i.e. at least the 5x copy
/// reduction the pipeline was built to deliver.
struct Budget {
  std::size_t payload_bytes;
  double max_copied_per_delivery;
};
constexpr Budget kBudgets[] = {
    {2'000, 1368.0}, {16'000, 10818.0}, {48'000, 32418.0}};

struct RunResult {
  std::uint64_t bytes_copied = 0;  ///< pipeline.bytes_copied.total delta
  std::size_t delivered = 0;       ///< messages decoded across receivers
  double wall_us = 0.0;
};

/// One encode, views the rest of the way.
RunResult run_zero_copy(std::size_t payload_bytes, int messages) {
  const pubsub::SemanticMessage message = make_message(payload_bytes);
  auto& copies = telemetry::PipelineCounters::global();
  RunResult result;
  const std::uint64_t before = copies.total.value();
  const auto start = std::chrono::steady_clock::now();
  for (int m = 0; m < messages; ++m) {
    net::RtpPacketizer packetizer(1, kMtu);
    const serde::SharedBytes encoded = message.encode();
    const auto packets = packetizer.packetize_views(
        encoded, 96, static_cast<std::uint32_t>(m + 1));
    std::vector<serde::ByteChain> wires;
    wires.reserve(packets.size());
    for (const auto& packet : packets) wires.push_back(packet.wire());
    for (int rx = 0; rx < kReceivers; ++rx) {
      net::RtpReceiver receiver;
      receiver.on_object([&result](const net::RtpObject& object) {
        if (pubsub::SemanticMessage::decode(object.payload_chain()).ok()) {
          ++result.delivered;
        }
      });
      for (const auto& wire : wires) (void)receiver.ingest(wire, {});
    }
  }
  result.wall_us = std::chrono::duration<double, std::micro>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  result.bytes_copied = copies.total.value() - before;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ObserveMode mode(argc, argv, "micro_pipeline");
  const int messages = mode.smoke() ? 4 : 32;

  std::printf("payload bytes copied per delivered message "
              "(MTU %zu, %d receivers, %d messages)\n",
              kMtu, kReceivers, messages);
  bench::print_rule();
  std::printf("%10s %14s %14s %14s\n", "payload", "copied/deliv", "bound",
              "us/message");

  bench::FigReport report("micro_pipeline");
  bool within_budget = true;
  for (const Budget& budget : kBudgets) {
    // The smoke run keeps only the 16000 B row.
    if (mode.smoke() && budget.payload_bytes != 16'000) continue;
    const RunResult run = run_zero_copy(budget.payload_bytes, messages);
    const double per_delivery =
        run.delivered > 0 ? static_cast<double>(run.bytes_copied) /
                                static_cast<double>(run.delivered)
                          : 0.0;
    const bool ok =
        run.delivered > 0 && per_delivery <= budget.max_copied_per_delivery;
    within_budget = within_budget && ok;
    std::printf("%10zu %14.0f %14.0f %14.1f%s\n", budget.payload_bytes,
                per_delivery, budget.max_copied_per_delivery,
                run.wall_us / messages, ok ? "" : "  OVER BUDGET");
    report.add_row()
        .set("payload_bytes", static_cast<double>(budget.payload_bytes))
        .set("zero_copy_copied_per_delivery", per_delivery)
        .set("max_copied_per_delivery", budget.max_copied_per_delivery)
        .set("zero_copy_us_per_message", run.wall_us / messages);
  }
  report.note("mtu", static_cast<double>(kMtu))
      .note("receivers", kReceivers)
      .note("messages", messages);
  if (report.write("BENCH_pipeline.json")) {
    std::printf("\nreport written to BENCH_pipeline.json\n");
  }

  bench::print_pipeline_copies();
  if (!within_budget) {
    std::fprintf(stderr, "FAIL: bytes copied per delivery over budget\n");
    return 1;
  }
  return 0;
}
