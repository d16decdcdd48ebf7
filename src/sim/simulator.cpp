#include "collabqos/sim/simulator.hpp"

#include <cassert>
#include <cstdio>

namespace collabqos::sim {

std::string to_string(Duration d) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6fs", d.as_seconds());
  return buf;
}

EventId Simulator::schedule_at(TimePoint when, Action action) {
  assert(when >= now_ && "cannot schedule into the past");
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  slots_[slot].state = Slot::State::queued;
  queue_.push(Entry{when, next_sequence_++, slot, std::move(action)});
  return (std::uint64_t{slots_[slot].generation} << 32) | (slot + 1ull);
}

EventId Simulator::schedule_after(Duration delay, Action action) {
  return schedule_at(now_ + delay, std::move(action));
}

bool Simulator::cancel(EventId id) {
  const std::uint64_t low = id & 0xffffffffu;
  if (low == 0 || low > slots_.size()) return false;
  Slot& slot = slots_[low - 1];
  // An event that ran or was cancelled left its slot at a later
  // generation, or free, or cancelled.
  if (slot.generation != static_cast<std::uint32_t>(id >> 32) ||
      slot.state != Slot::State::queued) {
    return false;
  }
  slot.state = Slot::State::cancelled;
  ++cancelled_pending_;
  return true;
}

void Simulator::release(std::uint32_t slot) noexcept {
  ++slots_[slot].generation;
  slots_[slot].state = Slot::State::free;
  free_slots_.push_back(slot);
}

bool Simulator::pop_next(Entry& out, TimePoint horizon) {
  while (!queue_.empty()) {
    // Checked on every pass, so a cancelled entry before the horizon
    // never lets a live one after it through.
    if (queue_.top().when > horizon) return false;
    // priority_queue::top is const; move via const_cast is the standard
    // workaround, safe because we pop immediately after.
    out = std::move(const_cast<Entry&>(queue_.top()));
    queue_.pop();
    const bool cancelled =
        slots_[out.slot].state == Slot::State::cancelled;
    // Released before the action runs: cancelling an event from inside
    // its own action reports that it already ran.
    release(out.slot);
    if (!cancelled) return true;
    --cancelled_pending_;
  }
  return false;
}

std::size_t Simulator::run_until(TimePoint horizon) {
  std::size_t ran = 0;
  Entry entry;
  while (pop_next(entry, horizon)) {
    now_ = entry.when;
    entry.action();
    ++ran;
    ++executed_;
  }
  if (now_ < horizon) now_ = horizon;
  return ran;
}

std::size_t Simulator::run_all() {
  std::size_t ran = 0;
  Entry entry;
  while (pop_next(entry)) {
    now_ = entry.when;
    entry.action();
    ++ran;
    ++executed_;
  }
  return ran;
}

bool Simulator::step() {
  Entry entry;
  if (!pop_next(entry)) return false;
  now_ = entry.when;
  entry.action();
  ++executed_;
  return true;
}

std::size_t Simulator::pending() const noexcept {
  return queue_.size() - cancelled_pending_;
}

PeriodicTimer::PeriodicTimer(Simulator& simulator, Duration period,
                             std::function<void()> tick)
    : simulator_(simulator), period_(period), tick_(std::move(tick)) {}

PeriodicTimer::~PeriodicTimer() { stop(); }

void PeriodicTimer::start() {
  if (running_) return;
  running_ = true;
  arm();
}

void PeriodicTimer::stop() {
  if (!running_) return;
  running_ = false;
  if (pending_ != 0) {
    simulator_.cancel(pending_);
    pending_ = 0;
  }
}

void PeriodicTimer::arm() {
  pending_ = simulator_.schedule_after(period_, [this] {
    pending_ = 0;
    if (!running_) return;
    tick_();
    if (running_) arm();
  });
}

}  // namespace collabqos::sim
