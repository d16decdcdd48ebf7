#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "collabqos/sim/host.hpp"
#include "collabqos/sim/load_process.hpp"
#include "collabqos/sim/simulator.hpp"
#include "collabqos/util/rng.hpp"

namespace collabqos::sim {
namespace {

TEST(Time, DurationArithmetic) {
  const Duration a = Duration::millis(500);
  const Duration b = Duration::seconds(1.5);
  EXPECT_EQ((a + b).as_micros(), 2'000'000);
  EXPECT_EQ((b - a).as_micros(), 1'000'000);
  EXPECT_DOUBLE_EQ((a * 3.0).as_seconds(), 1.5);
  EXPECT_LT(a, b);
}

TEST(Time, TimePointArithmetic) {
  const TimePoint t0 = TimePoint::from_micros(1000);
  const TimePoint t1 = t0 + Duration::micros(500);
  EXPECT_EQ((t1 - t0).as_micros(), 500);
  EXPECT_GT(t1, t0);
}

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(TimePoint::from_micros(300), [&] { order.push_back(3); });
  sim.schedule_at(TimePoint::from_micros(100), [&] { order.push_back(1); });
  sim.schedule_at(TimePoint::from_micros(200), [&] { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now().as_micros(), 300);
}

TEST(Simulator, SameInstantIsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(TimePoint::from_micros(50), [&order, i] {
      order.push_back(i);
    });
  }
  sim.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, RunUntilRespectsHorizon) {
  Simulator sim;
  int ran = 0;
  sim.schedule_at(TimePoint::from_micros(100), [&] { ++ran; });
  sim.schedule_at(TimePoint::from_micros(200), [&] { ++ran; });
  const std::size_t count = sim.run_until(TimePoint::from_micros(150));
  EXPECT_EQ(count, 1u);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.now().as_micros(), 150);  // clock advances to horizon
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, RunUntilHorizonHoldsPastCancelledHead) {
  // A cancelled event before the horizon must not let a live event after
  // it through: the horizon is checked against the next live event.
  Simulator sim;
  int ran = 0;
  const EventId cancelled =
      sim.schedule_at(TimePoint::from_micros(1'000'000), [&] { ++ran; });
  sim.schedule_at(TimePoint::from_micros(5'000'000), [&] { ++ran; });
  ASSERT_TRUE(sim.cancel(cancelled));
  EXPECT_EQ(sim.run_until(TimePoint::from_micros(2'000'000)), 0u);
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(sim.now().as_micros(), 2'000'000);
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_EQ(sim.run_until(TimePoint::from_micros(5'000'000)), 1u);
  EXPECT_EQ(ran, 1);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  int ran = 0;
  const EventId id =
      sim.schedule_at(TimePoint::from_micros(10), [&] { ++ran; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // double-cancel reports failure
  sim.run_all();
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, CancelUnknownIdFails) {
  Simulator sim;
  EXPECT_FALSE(sim.cancel(0));
  EXPECT_FALSE(sim.cancel(9999));
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.schedule_after(Duration::micros(10), recurse);
  };
  sim.schedule_after(Duration::micros(10), recurse);
  sim.run_all();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now().as_micros(), 50);
}

TEST(Simulator, StepRunsExactlyOne) {
  Simulator sim;
  int ran = 0;
  sim.schedule_after(Duration::micros(1), [&] { ++ran; });
  sim.schedule_after(Duration::micros(2), [&] { ++ran; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(ran, 2);
}

TEST(Simulator, CancelAfterExecutionFailsAndKeepsPendingExact) {
  Simulator sim;
  int ran = 0;
  const EventId first =
      sim.schedule_at(TimePoint::from_micros(10), [&] { ++ran; });
  const EventId second =
      sim.schedule_at(TimePoint::from_micros(20), [&] { ++ran; });
  sim.run_until(TimePoint::from_micros(15));
  EXPECT_EQ(ran, 1);
  EXPECT_FALSE(sim.cancel(first));  // already ran
  EXPECT_EQ(sim.pending(), 1u);
  // The next event reuses the first one's slot; the old id still fails
  // and does not touch it.
  const EventId third =
      sim.schedule_at(TimePoint::from_micros(30), [&] { ++ran; });
  EXPECT_NE(third, first);
  EXPECT_FALSE(sim.cancel(first));
  EXPECT_EQ(sim.pending(), 2u);
  EXPECT_TRUE(sim.cancel(third));
  EXPECT_EQ(sim.pending(), 1u);
  // An action cancelling its own event is told it already runs.
  bool self_cancel = true;
  EventId self = 0;
  self = sim.schedule_at(TimePoint::from_micros(40),
                         [&] { self_cancel = sim.cancel(self); });
  EXPECT_EQ(sim.run_all(), 2u);
  EXPECT_FALSE(self_cancel);
  EXPECT_EQ(ran, 2);
  EXPECT_FALSE(sim.cancel(second));
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.executed(), 3u);
}

/// Tags name events across the simulator and the reference; an event
/// whose tag is a multiple of 5 schedules a child (tag + kChild) when it
/// runs, tag % 3 microseconds later.
constexpr std::uint64_t kChild = 1'000'000;

TEST(Simulator, RandomOperationsMatchReferenceMultimap) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    Simulator sim;
    std::multimap<std::int64_t, std::uint64_t> model;  // FIFO within a key
    std::int64_t model_now = 0;
    std::uint64_t model_executed = 0;
    std::unordered_map<std::uint64_t, EventId> ids;
    std::vector<std::uint64_t> log;       // tags in the order sim ran them
    std::vector<std::uint64_t> expected;  // ... and the reference did
    std::uint64_t next_tag = 1;

    // The simulator side; a parent's action schedules its child here, and
    // the reference adds the child when it runs the parent.
    std::function<void(std::uint64_t, std::int64_t)> schedule_sim =
        [&](std::uint64_t tag, std::int64_t when) {
          ids[tag] = sim.schedule_at(TimePoint::from_micros(when), [&, tag] {
            log.push_back(tag);
            if (tag < kChild && tag % 5 == 0) {
              schedule_sim(tag + kChild,
                           sim.now().as_micros() +
                               static_cast<std::int64_t>(tag % 3));
            }
          });
        };
    const auto schedule = [&](std::uint64_t tag) {
      const std::int64_t when = sim.now().as_micros() + rng.uniform_int(0, 20);
      schedule_sim(tag, when);
      model.emplace(when, tag);
    };
    // The reference's run: pop in (time, insertion) order up to horizon.
    const auto model_run = [&](std::int64_t horizon, std::size_t limit) {
      std::size_t ran = 0;
      while (ran < limit && !model.empty() &&
             model.begin()->first <= horizon) {
        const auto [when, tag] = *model.begin();
        model.erase(model.begin());
        model_now = when;
        expected.push_back(tag);
        ++ran;
        ++model_executed;
        if (tag < kChild && tag % 5 == 0) {
          // The child enters after everything already queued at its time.
          model.emplace(when + static_cast<std::int64_t>(tag % 3),
                        tag + kChild);
        }
      }
      return ran;
    };

    for (int op = 0; op < 3000; ++op) {
      const double action = rng.uniform();
      if (action < 0.45) {
        schedule(next_tag++);
      } else if (action < 0.70) {
        // Cancel an event in any state: pending, ran, cancelled, or an id
        // never handed out.
        EventId id = static_cast<EventId>(rng.uniform_int(0, 1 << 20)) << 20;
        bool in_model = false;
        if (!ids.empty() && rng.chance(0.9)) {
          auto it = ids.begin();
          std::advance(it, rng.uniform_int(
                               0, static_cast<std::int64_t>(ids.size()) - 1));
          id = it->second;
          for (auto m = model.begin(); m != model.end(); ++m) {
            if (m->second == it->first) {
              model.erase(m);
              in_model = true;
              break;
            }
          }
        }
        ASSERT_EQ(sim.cancel(id), in_model);
      } else if (action < 0.92) {
        const std::int64_t horizon =
            sim.now().as_micros() + rng.uniform_int(0, 30);
        const std::size_t ran = sim.run_until(TimePoint::from_micros(horizon));
        ASSERT_EQ(ran, model_run(horizon, SIZE_MAX));
        if (model_now < horizon) model_now = horizon;
        ASSERT_EQ(sim.now().as_micros(), model_now);
      } else {
        const bool stepped = sim.step();
        ASSERT_EQ(stepped, model_run(INT64_MAX, 1) == 1);
        ASSERT_EQ(sim.now().as_micros(), model_now);
      }
      ASSERT_EQ(log, expected);
      ASSERT_EQ(sim.pending(), model.size());
      ASSERT_EQ(sim.executed(), model_executed);
    }
    ASSERT_EQ(sim.run_all(), model_run(INT64_MAX, SIZE_MAX));
    ASSERT_EQ(log, expected);
    ASSERT_EQ(sim.pending(), 0u);
    // Nothing is left to cancel.
    for (const auto& [tag, id] : ids) ASSERT_FALSE(sim.cancel(id)) << tag;
  }
}

TEST(PeriodicTimer, TicksAtPeriod) {
  Simulator sim;
  int ticks = 0;
  PeriodicTimer timer(sim, Duration::millis(10), [&] { ++ticks; });
  timer.start();
  sim.run_until(TimePoint::from_micros(95'000));
  EXPECT_EQ(ticks, 9);
  timer.stop();
  sim.run_until(TimePoint::from_micros(200'000));
  EXPECT_EQ(ticks, 9);
}

TEST(PeriodicTimer, StopInsideTickIsHonored) {
  Simulator sim;
  int ticks = 0;
  std::unique_ptr<PeriodicTimer> timer;
  timer = std::make_unique<PeriodicTimer>(sim, Duration::millis(5), [&] {
    if (++ticks == 3) timer->stop();
  });
  timer->start();
  sim.run_until(TimePoint::from_micros(1'000'000));
  EXPECT_EQ(ticks, 3);
}

TEST(PeriodicTimer, DestructionCancels) {
  Simulator sim;
  int ticks = 0;
  {
    PeriodicTimer timer(sim, Duration::millis(5), [&] { ++ticks; });
    timer.start();
  }
  sim.run_until(TimePoint::from_micros(100'000));
  EXPECT_EQ(ticks, 0);
}

// --------------------------------------------------------- load processes

TEST(LoadProcess, ConstantIsConstant) {
  ConstantProcess process(42.0);
  EXPECT_DOUBLE_EQ(process.sample(TimePoint{}), 42.0);
  EXPECT_DOUBLE_EQ(process.sample(TimePoint::from_micros(1'000'000)), 42.0);
}

TEST(LoadProcess, RampEndpointsAndMidpoint) {
  RampProcess ramp(30.0, 100.0, TimePoint::from_micros(1'000'000),
                   Duration::seconds(10.0));
  EXPECT_DOUBLE_EQ(ramp.sample(TimePoint{}), 30.0);
  EXPECT_DOUBLE_EQ(ramp.sample(TimePoint::from_micros(1'000'000)), 30.0);
  EXPECT_NEAR(ramp.sample(TimePoint::from_micros(6'000'000)), 65.0, 1e-9);
  EXPECT_DOUBLE_EQ(ramp.sample(TimePoint::from_micros(11'000'000)), 100.0);
  EXPECT_DOUBLE_EQ(ramp.sample(TimePoint::from_micros(99'000'000)), 100.0);
}

TEST(LoadProcess, TraceInterpolatesAndClamps) {
  TraceProcess trace({{TimePoint::from_micros(0), 10.0},
                      {TimePoint::from_micros(1'000'000), 20.0},
                      {TimePoint::from_micros(3'000'000), 40.0}});
  EXPECT_DOUBLE_EQ(trace.sample(TimePoint::from_micros(0)), 10.0);
  EXPECT_DOUBLE_EQ(trace.sample(TimePoint::from_micros(500'000)), 15.0);
  EXPECT_DOUBLE_EQ(trace.sample(TimePoint::from_micros(2'000'000)), 30.0);
  EXPECT_DOUBLE_EQ(trace.sample(TimePoint::from_micros(9'000'000)), 40.0);
}

TEST(LoadProcess, RandomWalkStaysInBounds) {
  RandomWalkProcess walk(50.0, 50.0, 0.5, 40.0, 0.0, 100.0, Rng(3));
  for (int i = 0; i <= 1000; ++i) {
    const double v = walk.sample(TimePoint::from_micros(i * 100'000));
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 100.0);
  }
}

TEST(LoadProcess, SinusoidRange) {
  SinusoidProcess wave(50.0, 20.0, Duration::seconds(1.0));
  double lo = 1e9, hi = -1e9;
  for (int i = 0; i < 1000; ++i) {
    const double v = wave.sample(TimePoint::from_micros(i * 1'000));
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_NEAR(lo, 30.0, 0.5);
  EXPECT_NEAR(hi, 70.0, 0.5);
}

TEST(LoadProcess, FunctionWraps) {
  FunctionProcess process(
      [](TimePoint t) { return t.as_seconds() * 2.0; });
  EXPECT_DOUBLE_EQ(process.sample(TimePoint::from_micros(1'500'000)), 3.0);
}

// ------------------------------------------------------------------ host

TEST(Host, DefaultsAreIdle) {
  Simulator sim;
  Host host(sim, "ws1");
  const HostMetrics m = host.metrics();
  EXPECT_DOUBLE_EQ(m.cpu_load_percent, 0.0);
  EXPECT_DOUBLE_EQ(m.page_faults, 0.0);
  EXPECT_GT(m.free_memory_kb, 0.0);
}

TEST(Host, MetricsFollowProcessesAndClamp) {
  Simulator sim;
  Host host(sim, "ws1");
  host.set_cpu_process(std::make_unique<ConstantProcess>(150.0));   // clamps
  host.set_page_fault_process(std::make_unique<ConstantProcess>(-5.0));
  host.set_if_utilization_process(std::make_unique<ConstantProcess>(55.0));
  const HostMetrics m = host.metrics();
  EXPECT_DOUBLE_EQ(m.cpu_load_percent, 100.0);
  EXPECT_DOUBLE_EQ(m.page_faults, 0.0);
  EXPECT_DOUBLE_EQ(m.if_utilization_percent, 55.0);
}

TEST(Host, MetricsTrackSimTime) {
  Simulator sim;
  Host host(sim, "ws1");
  host.set_cpu_process(std::make_unique<RampProcess>(
      30.0, 100.0, TimePoint{}, Duration::seconds(70.0)));
  EXPECT_NEAR(host.metrics().cpu_load_percent, 30.0, 1e-9);
  sim.run_until(TimePoint::from_micros(35'000'000));
  EXPECT_NEAR(host.metrics().cpu_load_percent, 65.0, 1e-9);
  sim.run_until(TimePoint::from_micros(70'000'000));
  EXPECT_NEAR(host.metrics().cpu_load_percent, 100.0, 1e-9);
}

}  // namespace
}  // namespace collabqos::sim
