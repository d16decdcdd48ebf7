// Chaos plane, part 1 (DESIGN.md §12): the declarative fault timeline.
//
// A ChaosSchedule is a list of timed fault events parsed from a small
// line-oriented text format. Each event names a fault kind, when it is
// injected, optionally how long it stays active, which nodes it touches
// and the fault's parameters. The ChaosController (controller.hpp) arms
// a schedule against the discrete-event simulator; every stochastic
// choice a fault makes draws from an RNG seeded per event, so a given
// (schedule, seed) pair replays bit-identically.
//
// Grammar — one event per line, '#' starts a comment:
//
//   at <time> [for <duration>] <kind> [key=value ...]
//
// Times accept "250ms", "5s", "1.5s" or bare seconds ("5"). A line's
// window, `at` plus `for`, must end by 9000000000000s, so that adding the
// arm time cannot overflow. Kinds and their keys:
//
//   burst      Gilbert–Elliott burst loss on named links.
//              nodes=a,b  p_gb= p_bg= loss_good= loss_bad=
//   loss       i.i.d. loss override on named links.   nodes=  p=
//   partition  drop traffic between two host sets.    nodes=  peers=
//              (peers empty = everyone not in nodes)
//   reorder    random extra delivery delay.           [nodes=]  p=  delay=
//   duplicate  deliver a second skewed copy.          [nodes=]  p=  skew=
//   corrupt    deliver a bit-flipped copy.            [nodes=]  p=
//   outage     registered target out of service.      target=
//   crash      registered target crashes; restarts at clear.  target=
//
// Hook-based kinds (reorder/duplicate/corrupt) treat a missing nodes=
// list as "all traffic"; link kinds (burst/loss) and target kinds
// (outage/crash) require explicit names. Every event may carry seed=N to
// decouple its RNG stream from its position in the file.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "collabqos/sim/time.hpp"
#include "collabqos/util/result.hpp"

namespace collabqos::chaos {

enum class FaultKind : std::uint8_t {
  burst_loss,  ///< Gilbert–Elliott chain on named links
  iid_loss,    ///< plain loss-probability override on named links
  partition,   ///< drop datagrams crossing nodes <-> peers
  reorder,     ///< probabilistic extra delivery delay
  duplicate,   ///< probabilistic duplicated delivery
  corrupt,     ///< probabilistic single-byte bit flip
  outage,      ///< registered target's data plane goes dark
  crash,       ///< registered target dies; restarted at clear time
};

[[nodiscard]] std::string_view to_string(FaultKind kind) noexcept;

/// One timed fault. Defaults are deliberately mild so a schedule only
/// has to spell out what it cares about.
struct ChaosEvent {
  FaultKind kind = FaultKind::iid_loss;
  sim::Duration at{};        ///< injection time, relative to arm()
  sim::Duration duration{};  ///< active window; zero = never cleared
  /// Affected node names (add_node names). Empty means "all traffic"
  /// for hook kinds; parse rejects empty for link/target kinds.
  std::vector<std::string> nodes;
  /// Partition far side; empty = everything outside `nodes`.
  std::vector<std::string> peers;
  double p = 1.0;  ///< per-datagram probability (loss/reorder/dup/corrupt)
  // Gilbert–Elliott chain parameters (burst kind).
  double p_good_to_bad = 0.2;
  double p_bad_to_good = 0.25;
  double loss_good = 0.0;
  double loss_bad = 1.0;
  sim::Duration delay = sim::Duration::millis(20);  ///< reorder bound
  sim::Duration skew = sim::Duration::millis(2);    ///< duplicate bound
  std::uint64_t seed = 0;  ///< per-event RNG salt (0 = position-derived)
  std::size_t line = 0;    ///< 1-based source line, for diagnostics

  [[nodiscard]] bool timed() const noexcept {
    return duration.as_micros() > 0;
  }
  /// When this event stops mutating the run (injection time for
  /// untimed events, clear time otherwise).
  [[nodiscard]] sim::Duration settles_at() const noexcept {
    return timed() ? at + duration : at;
  }
};

class ChaosSchedule {
 public:
  /// Parse the text format above. Errors carry the offending line
  /// number; an empty (or all-comment) text parses to an empty
  /// schedule, which arms to a no-op.
  [[nodiscard]] static Result<ChaosSchedule> parse(std::string_view text);

  [[nodiscard]] const std::vector<ChaosEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }

  /// The last instant any event injects or clears — after this the
  /// network is fault-free again (untimed events excepted, which by
  /// definition never heal; they still count with their inject time).
  [[nodiscard]] sim::Duration last_change() const noexcept;
  /// True when some event never clears (duration omitted).
  [[nodiscard]] bool has_unhealed() const noexcept;

 private:
  std::vector<ChaosEvent> events_;
};

}  // namespace collabqos::chaos
