#include "collabqos/sim/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>

namespace collabqos::sim {

std::string to_string(TimePoint t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6fs", t.as_seconds());
  return buf;
}

std::string to_string(Duration d) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6fs", d.as_seconds());
  return buf;
}

EventId Simulator::schedule_at(TimePoint when, Action action) {
  assert(when >= now_ && "cannot schedule into the past");
  const EventId id = next_id_++;
  queue_.push(Entry{when, next_sequence_++, id, std::move(action)});
  return id;
}

EventId Simulator::schedule_after(Duration delay, Action action) {
  return schedule_at(now_ + delay, std::move(action));
}

bool Simulator::cancel(EventId id) {
  if (id == 0 || id >= next_id_) return false;
  if (std::find(cancelled_.begin(), cancelled_.end(), id) !=
      cancelled_.end()) {
    return false;
  }
  cancelled_.push_back(id);
  ++cancelled_pending_;
  return true;
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
    const auto it = std::find(cancelled_.begin(), cancelled_.end(), out.id);
    if (it == cancelled_.end()) return true;
    cancelled_.erase(it);
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
