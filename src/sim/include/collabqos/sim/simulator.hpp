// Discrete-event simulation core. Single-threaded by design: the paper's
// test-bed behaviour (hosts, links, radios) is modelled as events on one
// virtual clock, which makes every experiment deterministic and allows the
// whole "LAN" to run inside one process.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <vector>

#include "collabqos/sim/time.hpp"

namespace collabqos::sim {

/// Event identifier; usable to cancel a pending event. Never 0. The low
/// 32 bits name a reusable slot, the high 32 bits that slot's generation,
/// so the id of an event that has run (or been cancelled) stops matching
/// once its slot is released.
using EventId = std::uint64_t;

class Simulator {
 public:
  using Action = std::function<void()>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  [[nodiscard]] TimePoint now() const noexcept { return now_; }

  /// Schedule `action` at absolute time `when` (>= now). Events scheduled
  /// for the same instant run in scheduling order (FIFO).
  EventId schedule_at(TimePoint when, Action action);

  /// Schedule `action` after `delay` from now.
  EventId schedule_after(Duration delay, Action action);

  /// Cancel a pending event. Returns false if it already ran (or is
  /// running), was already cancelled, or is unknown.
  bool cancel(EventId id);

  /// Run events until the queue is empty or the horizon is passed.
  /// Returns the number of events executed.
  std::size_t run_until(TimePoint horizon);

  /// Drain every pending event (use only for bounded scenarios).
  std::size_t run_all();

  /// Run exactly one event if any is pending; returns whether one ran.
  bool step();

  [[nodiscard]] std::size_t pending() const noexcept;
  [[nodiscard]] std::uint64_t executed() const noexcept { return executed_; }

 private:
  struct Entry {
    TimePoint when;
    std::uint64_t sequence;  // FIFO tie-break within an instant
    std::uint32_t slot;      // index into slots_
    Action action;
  };
  /// One per queued event; released (generation bumped, slot recycled)
  /// when its entry leaves the queue, run or cancelled.
  struct Slot {
    enum class State : std::uint8_t { free, queued, cancelled };
    std::uint32_t generation = 0;
    State state = State::free;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.sequence > b.sequence;
    }
  };

  /// Pop the next live event due at or before `horizon`, discarding
  /// cancelled entries on the way; false when there is none.
  static constexpr TimePoint kEndOfTime =
      TimePoint::from_micros(std::numeric_limits<std::int64_t>::max());
  bool pop_next(Entry& out, TimePoint horizon = kEndOfTime);

  void release(std::uint32_t slot) noexcept;

  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  TimePoint now_{};
  std::uint64_t next_sequence_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t cancelled_pending_ = 0;  ///< cancelled entries still queued
};

/// Repeating timer helper built on the simulator (RAII: cancels on
/// destruction). Used for RTCP report intervals, SNMP polling loops and
/// base-station SIR re-evaluation.
class PeriodicTimer {
 public:
  PeriodicTimer(Simulator& simulator, Duration period,
                std::function<void()> tick);
  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;
  ~PeriodicTimer();

  void start();
  void stop();
  [[nodiscard]] bool running() const noexcept { return running_; }

 private:
  void arm();

  Simulator& simulator_;
  Duration period_;
  std::function<void()> tick_;
  EventId pending_ = 0;
  bool running_ = false;
};

}  // namespace collabqos::sim
