// Copy accounting for the zero-copy payload pipeline (DESIGN.md §11).
//
// Every point where the delivery path still materialises payload bytes
// — wire encode, payload copies at decode, gather fallbacks for
// non-contiguous chains, and media materialisation at the edge — charges
// the bytes it copied to one family here. The registry families
// ("pipeline.bytes_copied.<site>", plus the roll-up
// "pipeline.bytes_copied.total") make copy amplification visible in
// bench snapshots, trace span tags and observatory series: a healthy
// zero-copy run grows `total` by roughly one payload size per published
// message.
#pragma once

#include <cstdint>

#include "collabqos/serde/chain.hpp"
#include "collabqos/telemetry/counter_set.hpp"

/// The copy sites, declared once (telemetry/counter_set.hpp):
///  * encode: payload gathered into the contiguous wire-message buffer
///    at message encode (the one copy the zero-copy path keeps);
///  * packet_decode: an RTP payload view that was genuinely fragmented;
///  * message_decode: the non-contiguous header fallback at semantic
///    decode;
///  * gather: non-contiguous chains outside the sites above (control
///    datagrams, application flatten calls);
///  * media: media materialisation at the pipeline edge;
///  * chaos_corrupt: a chaos-faulted datagram's mutated copy (its buffers
///    are shared with the sender and every other receiver, so in-place
///    bit flips are forbidden);
///  * total: the roll-up across all sites.
#define COLLABQOS_PIPELINE_COUNTERS(X)                                         \
  X(encode, "pipeline.bytes_copied.encode")                                    \
  X(packet_decode, "pipeline.bytes_copied.packet_decode")                      \
  X(message_decode, "pipeline.bytes_copied.message_decode")                    \
  X(gather, "pipeline.bytes_copied.gather")                                    \
  X(media, "pipeline.bytes_copied.media")                                      \
  X(chaos_corrupt, "pipeline.bytes_copied.chaos_corrupt")                      \
  X(total, "pipeline.bytes_copied.total")

namespace collabqos::telemetry {

/// Point-in-time view of the copy counters.
struct PipelineStats {
  COLLABQOS_COUNTER_FIELDS(COLLABQOS_PIPELINE_COUNTERS)
};

COLLABQOS_COUNTER_SET(PipelineCounterSet, PipelineStats,
                      COLLABQOS_PIPELINE_COUNTERS);

/// Process-wide pipeline.bytes_copied.* counters, one public Counter per
/// site. Charge through charge() so the `total` roll-up stays consistent.
class PipelineCounters : public PipelineCounterSet {
 public:
  [[nodiscard]] static PipelineCounters& global();

  /// Charge `bytes` to `site` (must be one of this instance's counters)
  /// and to the total roll-up. No-op for 0 bytes.
  void charge(Counter& site, std::uint64_t bytes) noexcept {
    if (bytes == 0) return;
    site += bytes;
    total += bytes;
  }

  PipelineCounters(const PipelineCounters&) = delete;
  PipelineCounters& operator=(const PipelineCounters&) = delete;

 private:
  PipelineCounters() { attach(MetricsRegistry::global()); }
};

/// Flatten `chain` to a contiguous view, charging any gather the chain
/// needed (i.e. it was genuinely fragmented) to `site`. The common
/// single-slice case is zero-copy and charges nothing.
[[nodiscard]] inline serde::SharedBytes flatten_counted(
    const serde::ByteChain& chain, Counter& site) {
  std::size_t copied = 0;
  serde::SharedBytes flat = chain.flatten(&copied);
  PipelineCounters::global().charge(site, copied);
  return flat;
}

}  // namespace collabqos::telemetry
