#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "des/event_queue.hpp"
#include "math/rng.hpp"

namespace ad = atlas::des;

TEST(EventQueue, RunsEventsInTimeOrder) {
  ad::EventQueue q;
  std::vector<int> order;
  q.schedule_at(3.0, [&] { order.push_back(3); });
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(2.0, [&] { order.push_back(2); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, FifoTieBreakAtSameTime) {
  ad::EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  q.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, RunUntilStopsAtBoundary) {
  ad::EventQueue q;
  int count = 0;
  q.schedule_at(1.0, [&] { ++count; });
  q.schedule_at(2.0, [&] { ++count; });
  q.schedule_at(2.0001, [&] { ++count; });
  q.run_until(2.0);  // inclusive boundary
  EXPECT_EQ(count, 2);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  ad::EventQueue q;
  int ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    if (ticks < 5) q.schedule_in(1.0, tick);
  };
  q.schedule_in(1.0, tick);
  q.run_until(100.0);
  EXPECT_EQ(ticks, 5);
}

TEST(EventQueue, SelfReschedulingEventStopsAtHorizon) {
  ad::EventQueue q;
  int ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    q.schedule_in(1.0, tick);  // re-arms forever, like the TTI loop
  };
  q.schedule_in(1.0, tick);
  q.run_until(10.0);
  EXPECT_EQ(ticks, 10);
  EXPECT_DOUBLE_EQ(q.now(), 10.0);
}

TEST(EventQueue, RejectsPastAndNegative) {
  ad::EventQueue q;
  q.schedule_at(5.0, [] {});
  q.run_until(5.0);
  EXPECT_THROW(q.schedule_at(4.0, [] {}), std::invalid_argument);
  EXPECT_THROW(q.schedule_in(-1.0, [] {}), std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(q.schedule_at(nan, [] {}), std::invalid_argument);
  EXPECT_THROW(q.schedule_in(nan, [] {}), std::invalid_argument);
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, RunUntilAdvancesClockWithoutEvents) {
  ad::EventQueue q;
  q.run_until(42.0);
  EXPECT_DOUBLE_EQ(q.now(), 42.0);
}

TEST(EventQueue, ScheduleFromInsideCallbackAtSameInstantRunsAfter) {
  // An event scheduled from inside a callback for the *current* instant must
  // run at that same instant, after the scheduling event (FIFO by seq) —
  // the frame-send path relies on this when loading time is zero.
  ad::EventQueue q;
  std::vector<int> order;
  q.schedule_at(5.0, [&] {
    order.push_back(1);
    q.schedule_at(5.0, [&] { order.push_back(3); });
    order.push_back(2);
  });
  q.schedule_at(6.0, [&] { order.push_back(4); });
  q.run_until(10.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueue, LargeAndNonTrivialCallablesStillWork) {
  // Callables beyond the inline budget (or non-trivially-copyable, like a
  // recursive std::function) take the boxed fallback transparently.
  ad::EventQueue q;
  struct Big {
    double pad[16];  // 128 bytes > kInlineEventBytes
  };
  Big big{};
  big.pad[7] = 7.5;
  double seen = 0.0;
  q.schedule_at(1.0, [big, &seen] { seen = big.pad[7]; });
  std::vector<int> tail;
  std::function<void()> fn = [&] { tail.push_back(9); };
  q.schedule_at(2.0, fn);
  q.run_all();
  EXPECT_DOUBLE_EQ(seen, 7.5);
  EXPECT_EQ(tail, (std::vector<int>{9}));
}

TEST(EventQueue, UnrunBoxedEventsAreReleasedOnDestruction) {
  // A shared_ptr captured by a boxed event scheduled beyond the horizon must
  // be freed when the queue dies (the drop hook runs exactly once).
  auto token = std::make_shared<int>(1);
  {
    ad::EventQueue q;
    struct Big {
      std::shared_ptr<int> keep;
      double pad[16];
    };
    q.schedule_at(100.0, [b = Big{token, {}}] { (void)b; });
    q.run_until(1.0);
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, StepperFiresAtFixedCadence) {
  ad::EventQueue q;
  std::vector<double> fire_times;
  q.add_stepper(1.0, [&] { fire_times.push_back(q.now()); });
  q.run_until(5.0);
  ASSERT_EQ(fire_times.size(), 5u);  // fires at 1..5 inclusive
  for (int i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(fire_times[static_cast<std::size_t>(i)], i + 1.0);
  EXPECT_DOUBLE_EQ(q.now(), 5.0);
  q.run_until(7.0);  // stays armed across run_until calls
  EXPECT_EQ(fire_times.size(), 7u);
}

TEST(EventQueue, StepperBoundarySemanticsMatchEvents) {
  // A stepper due exactly at `until` still fires — same inclusive boundary
  // as one-shot events.
  ad::EventQueue q;
  int fires = 0;
  q.add_stepper(2.0, [&] { ++fires; });
  q.run_until(4.0);
  EXPECT_EQ(fires, 2);
  q.run_until(5.9999);
  EXPECT_EQ(fires, 2);
  q.run_until(6.0);
  EXPECT_EQ(fires, 3);
}

TEST(EventQueue, StepperInterleavesWithEventsLikeSelfRescheduling) {
  // The stepper contract: ordering against heap events is bit-identical to
  // an event that re-arms itself with schedule_in at the end of its
  // callback. Run both formulations against the same one-shot events and
  // compare the full interleaving.
  auto drive = [](bool use_stepper) {
    ad::EventQueue q;
    std::vector<std::pair<double, int>> log;  // (time, source): 0 = tick, 1..n = events
    std::function<void()> tick;  // outlives run_until: the queued copy re-arms it by reference
    // One-shot events placed on and off the tick cadence, including exact
    // collisions scheduled before and after the tick is armed.
    q.schedule_at(2.0, [&] { log.emplace_back(q.now(), 1); });
    if (use_stepper) {
      q.add_stepper(1.0, [&] {
        log.emplace_back(q.now(), 0);
        if (log.size() == 3) q.schedule_at(q.now(), [&] { log.emplace_back(q.now(), 2); });
      });
    } else {
      tick = [&] {
        log.emplace_back(q.now(), 0);
        if (log.size() == 3) q.schedule_at(q.now(), [&] { log.emplace_back(q.now(), 2); });
        q.schedule_in(1.0, tick);
      };
      q.schedule_in(1.0, tick);
    }
    q.schedule_at(3.0, [&] { log.emplace_back(q.now(), 3); });
    q.schedule_at(3.5, [&] { log.emplace_back(q.now(), 4); });
    q.run_until(6.0);
    return log;
  };
  const auto with_stepper = drive(true);
  const auto with_events = drive(false);
  EXPECT_EQ(with_stepper, with_events);
}

TEST(EventQueue, TwoSteppersPreserveRegistrationOrderAtCollisions) {
  // Steppers colliding at a common multiple (mobility at 100 ms vs TTI at
  // 1 ms) must run in registration order — the earlier-armed stepper holds
  // the older sequence number, exactly like the self-rescheduling events it
  // replaces.
  ad::EventQueue q;
  std::vector<int> order;
  q.add_stepper(2.0, [&] { order.push_back(1); });  // fires at 2, 4
  q.add_stepper(1.0, [&] { order.push_back(2); });  // fires at 1, 2, 3, 4
  q.run_until(4.0);
  EXPECT_EQ(order, (std::vector<int>{2, 1, 2, 2, 1, 2}));
}

TEST(EventQueue, StepperCanRegisterStepperMidFire) {
  // Registering a stepper from inside a stepper callback must not invalidate
  // the currently-executing callable (steppers live in a deque, not a
  // reallocating vector); the new stepper arms at now + period.
  ad::EventQueue q;
  int outer = 0;
  int inner = 0;
  bool registered = false;
  q.add_stepper(1.0, [&] {
    ++outer;
    if (!registered) {
      registered = true;
      q.add_stepper(1.0, [&] { ++inner; });
    }
  });
  q.run_until(5.0);
  EXPECT_EQ(outer, 5);  // fires at 1..5
  EXPECT_EQ(inner, 4);  // registered at 1, fires at 2..5
}

TEST(EventQueue, PendingCountsEventsAndSteppers) {
  ad::EventQueue q;
  EXPECT_EQ(q.pending(), 0u);
  q.schedule_at(1.0, [] {});
  q.add_stepper(1.0, [] {});
  EXPECT_EQ(q.pending(), 2u);
  q.run_until(10.0);
  EXPECT_EQ(q.pending(), 1u);  // the stepper stays armed
}

TEST(EventQueue, ManySameInstantEventsKeepFifoUnderHeapChurn) {
  // Stress the vector-heap tie-break: hundreds of same-instant events pushed
  // between pops must still drain in submission order.
  ad::EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 200; ++i) {
    q.schedule_at(1.0, [&order, i] { order.push_back(i); });
    q.schedule_at(2.0, [&order, i] { order.push_back(1000 + i); });
  }
  q.run_all();
  ASSERT_EQ(order.size(), 400u);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
    EXPECT_EQ(order[static_cast<std::size_t>(200 + i)], 1000 + i);
  }
}

namespace {

/// A server stepper (1 ms by default) over a job queue, driven by a seeded
/// random schedule: heap events at random times and exactly on the 1-ms
/// grid push jobs, and some schedule further events, as served jobs do; a
/// 100-ms stepper pushes jobs too. A job pushed into an empty queue waits
/// out an access delay (grid-aligned, zero or arbitrary), like an uplink
/// scheduling request. With `hints`, the server returns a quiet hint while
/// it has nothing to serve: +inf when the queue is empty, else the end of
/// the access delay. With `fading`, every server fire first steps an AR(1)
/// drift with a normal draw, as a TTI steps its UE's fading, so quiet fires
/// are not no-ops; a hinted run then replays the skipped steps through the
/// stepper's catch-up (unless `catch_up` is off). Every fire that does
/// something is logged as (time, source) with the drift it saw, and so is
/// the clock after each run_until.
struct QuietServerRun {
  struct Options {
    bool hints = false;
    bool fading = false;
    bool catch_up = true;
    double period = 1.0;  ///< Server cadence.
    double arm_at = 0.0;  ///< Clock when the schedule and steppers are set up.
  };

  ad::EventQueue q;
  atlas::math::Rng rng;
  Options opt;
  std::deque<int> jobs;
  double ready_at = 0.0;
  double drift = 0.0;
  int next_job = 0;
  std::size_t server_calls = 0;
  std::vector<std::pair<double, int>> log;
  std::vector<double> drifts;  ///< The drift at each log entry.

  QuietServerRun(std::uint64_t seed, Options options) : rng(seed), opt(options) {}

  double random_delay() {
    switch (rng.uniform_int(0, 3)) {
      case 0: return 0.0;
      case 1: return static_cast<double>(rng.uniform_int(1, 30));
      default: return rng.uniform(0.0, 30.0);
    }
  }

  void record(int source) {
    log.emplace_back(q.now(), source);
    drifts.push_back(drift);
  }

  void push_job() {
    if (jobs.empty()) ready_at = q.now() + random_delay();
    jobs.push_back(next_job++);
  }

  void schedule_arrival(double at, int source) {
    q.schedule_at(at, [this, source] {
      record(source);
      push_job();
      if (rng.bernoulli(0.25)) schedule_arrival(q.now() + random_delay(), -5);
    });
  }

  void step_drift() { drift = 0.9 * drift + rng.normal(); }

  ad::TimeMs serve() {
    ++server_calls;
    if (opt.fading) step_drift();
    if (!jobs.empty() && q.now() >= ready_at) {
      record(jobs.front());
      jobs.pop_front();
      if (rng.bernoulli(0.5)) schedule_arrival(q.now() + random_delay(), -2);
      return ad::EventQueue::kNoHint;
    }
    if (!opt.hints) return ad::EventQueue::kNoHint;
    return jobs.empty() ? std::numeric_limits<double>::infinity() : ready_at;
  }

  std::vector<std::pair<double, int>> drive(const std::vector<double>& arrivals,
                                            const std::vector<double>& stops) {
    q.run_until(opt.arm_at);
    for (double at : arrivals) schedule_arrival(opt.arm_at + at, -1);
    q.add_stepper(100.0, [this] {
      record(-3);
      if (rng.bernoulli(0.5)) push_job();
    });
    if (opt.hints && opt.fading && opt.catch_up) {
      q.add_stepper(opt.period, [this] { return serve(); }, [this](std::uint64_t fires) {
        for (std::uint64_t i = 0; i < fires; ++i) step_drift();
      });
    } else {
      q.add_stepper(opt.period, [this] { return serve(); });
    }
    for (double until : stops) {
      q.run_until(opt.arm_at + until);
      record(-4);
    }
    return log;
  }
};

/// The random arrivals (on and off the 1-ms grid) and run_until stops of
/// one seeded QuietServerRun schedule.
struct QuietPlan {
  std::vector<double> arrivals;
  std::vector<double> stops;

  explicit QuietPlan(std::uint64_t seed) {
    atlas::math::Rng plan(seed);
    for (int i = 0; i < 60; ++i) {
      arrivals.push_back(plan.bernoulli(0.5) ? static_cast<double>(plan.uniform_int(0, 2000))
                                             : plan.uniform(0.0, 2000.0));
    }
    for (double t = 0.0; t < 2000.0;) {
      t += plan.bernoulli(0.5) ? static_cast<double>(plan.uniform_int(1, 90))
                               : plan.uniform(0.0, 90.0);
      stops.push_back(t);
    }
  }
};

/// Run one seeded schedule hinted and plain, and expect the same log, the
/// same drifts, the same clock and the same next RNG draw.
void expect_hints_change_nothing(std::uint64_t seed, QuietServerRun::Options options) {
  const QuietPlan plan(seed);
  options.hints = true;
  QuietServerRun hinted(seed, options);
  options.hints = false;
  QuietServerRun plain(seed, options);
  const auto hinted_log = hinted.drive(plan.arrivals, plan.stops);
  const auto plain_log = plain.drive(plan.arrivals, plan.stops);
  ASSERT_EQ(hinted_log, plain_log) << "seed " << seed;
  EXPECT_EQ(hinted.drifts, plain.drifts) << "seed " << seed;
  EXPECT_EQ(hinted.q.now(), plain.q.now()) << "seed " << seed;
  EXPECT_EQ(hinted.rng.next_u64(), plain.rng.next_u64()) << "seed " << seed;
  EXPECT_LT(hinted.server_calls, plain.server_calls / 2) << "seed " << seed << ": no skip";
}

}  // namespace

TEST(EventQueue, QuietHintsSkipOnlyNoOpFires) {
  // Equivalence property of the quiet-stepper contract: the same schedule
  // with and without hints yields the same (time, source) log, and so the
  // same clock after every run_until, including stops that land mid-skip.
  // The 1-ms server's clock and period are whole numbers, so its skips take
  // the closed-form count.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    expect_hints_change_nothing(seed, {});
  }
}

TEST(EventQueue, QuietCatchUpReplaysSkippedDraws) {
  // Quiet fires that draw from the RNG, like a fading TTI: a hinted run
  // whose catch-up replays the skipped draws matches the plain run in its
  // log, its drifts (also at stops that land mid-skip), its clock and its
  // next RNG draw.
  QuietServerRun::Options fading;
  fading.fading = true;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    expect_hints_change_nothing(seed, fading);
  }
  // The check has teeth: without the catch-up the skipped draws are lost.
  const QuietPlan plan(1);
  QuietServerRun lossy(1, {.hints = true, .fading = true, .catch_up = false});
  QuietServerRun plain(1, fading);
  lossy.drive(plan.arrivals, plan.stops);
  plain.drive(plan.arrivals, plan.stops);
  EXPECT_NE(lossy.drifts, plain.drifts);
}

TEST(EventQueue, QuietSkipsReplayCadencesThatAreNotWhole) {
  // A period or an arming clock that is not a whole number leaves the fire
  // times inexact, so the skip replays each fire's arithmetic instead of
  // counting in closed form; both must still match the plain run.
  for (const bool with_fading : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      expect_hints_change_nothing(seed, {.fading = with_fading, .period = 0.7});
      expect_hints_change_nothing(seed, {.fading = with_fading, .arm_at = 0.25});
    }
  }
}

TEST(EventQueue, RunUntilRejectsNonFiniteHorizon) {
  // With a 1-ms stepper armed, run_until(NaN) or run_until(+inf) would fire
  // forever; they throw instead and leave the queue as it was.
  ad::EventQueue q;
  int fires = 0;
  q.add_stepper(1.0, [&] { ++fires; });
  EXPECT_THROW(q.run_until(std::numeric_limits<double>::quiet_NaN()), std::invalid_argument);
  EXPECT_THROW(q.run_until(std::numeric_limits<double>::infinity()), std::invalid_argument);
  EXPECT_THROW(q.run_until(-std::numeric_limits<double>::infinity()), std::invalid_argument);
  EXPECT_EQ(fires, 0);
  EXPECT_EQ(q.now(), 0.0);
  q.run_until(5.0);
  EXPECT_EQ(fires, 5);
  // A NaN period would set the clock to NaN on its first fire.
  EXPECT_THROW(q.add_stepper(std::numeric_limits<double>::quiet_NaN(), [] {}),
               std::invalid_argument);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, RejectsInfiniteEventTimes) {
  // With a 1-ms stepper armed, run_all() would drive the stepper toward a
  // +inf event forever; scheduling one throws instead and queues nothing.
  ad::EventQueue q;
  int fires = 0;
  q.add_stepper(1.0, [&] { ++fires; });
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(q.schedule_at(inf, [] {}), std::invalid_argument);
  EXPECT_THROW(q.schedule_in(inf, [] {}), std::invalid_argument);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(fires, 0);
  q.schedule_in(3.0, [] {});
  EXPECT_EQ(q.pending(), 2u);
}
