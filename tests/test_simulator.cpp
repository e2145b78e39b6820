#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace h3cdn::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), TimePoint{0});
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(msec(30), [&] { order.push_back(3); });
  sim.schedule_at(msec(10), [&] { order.push_back(1); });
  sim.schedule_at(msec(20), [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), msec(30));
}

TEST(Simulator, SimultaneousEventsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(msec(10), [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  TimePoint fired{-1};
  sim.schedule_at(msec(5), [&] {
    sim.schedule_in(msec(7), [&] { fired = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired, msec(12));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_at(msec(10), [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelTwiceFails) {
  Simulator sim;
  const EventId id = sim.schedule_at(msec(10), [] {});
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, CancelFiredEventFails) {
  Simulator sim;
  const EventId id = sim.schedule_at(msec(1), [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, CancelUnknownIdFails) {
  Simulator sim;
  EXPECT_FALSE(sim.cancel(12345));
  EXPECT_FALSE(sim.cancel(0));
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(msec(10), [&] { ++fired; });
  sim.schedule_at(msec(20), [&] { ++fired; });
  sim.schedule_at(msec(30), [&] { ++fired; });
  EXPECT_EQ(sim.run_until(msec(20)), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), msec(20));
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, RunUntilAdvancesClockWhenIdle) {
  Simulator sim;
  sim.run_until(msec(50));
  EXPECT_EQ(sim.now(), msec(50));
}

TEST(Simulator, EventsScheduledDuringRunExecute) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) sim.schedule_in(msec(1), recurse);
  };
  sim.schedule_in(msec(1), recurse);
  sim.run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sim.now(), msec(10));
}

TEST(Simulator, PendingCountExcludesCancelled) {
  Simulator sim;
  sim.schedule_at(msec(1), [] {});
  const EventId id = sim.schedule_at(msec(2), [] {});
  EXPECT_EQ(sim.pending(), 2u);
  sim.cancel(id);
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_FALSE(sim.idle());
}

TEST(Simulator, IdleWhenOnlyCancelledRemain) {
  Simulator sim;
  const EventId id = sim.schedule_at(msec(2), [] {});
  sim.cancel(id);
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, ExecutedCounter) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_at(msec(i), [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 7u);
}

TEST(SimulatorDeath, PastSchedulingAborts) {
  Simulator sim;
  sim.schedule_at(msec(10), [] {});
  sim.run();
  EXPECT_DEATH(sim.schedule_at(msec(5), [] {}), "precondition");
}

// ---------------------------------------------------------------------------
// Scheduler contract: same-time FIFO, cancellation, run_until boundaries and
// exact pending() under interleaved schedule/cancel/run.
// ---------------------------------------------------------------------------

TEST(Scheduler, SameTimestampFifo) {
  Simulator sim;
  std::vector<int> order;
  // Interleave two timestamps so same-time FIFO must hold per timestamp even
  // when insertions alternate.
  for (int i = 0; i < 50; ++i) {
    sim.schedule_at(msec(10), [&order, i] { order.push_back(i); });
    sim.schedule_at(msec(5), [&order, i] { order.push_back(1000 + i); });
  }
  sim.run();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(order[i], 1000 + i);       // all msec(5) events first, FIFO
    EXPECT_EQ(order[50 + i], i);         // then the msec(10) events, FIFO
  }
}

TEST(Scheduler, CancelLastScheduledEvent) {
  Simulator sim;
  bool fired = false;
  sim.schedule_at(msec(1), [] {});
  const EventId last = sim.schedule_at(msec(2), [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(last));
  EXPECT_FALSE(sim.cancel(last));
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.now(), msec(1));  // the cancelled tail never advanced the clock
}

TEST(Scheduler, RunUntilIncludesEventExactlyAtBound) {
  Simulator sim;
  std::vector<int> fired;
  sim.schedule_at(msec(10), [&] { fired.push_back(10); });
  sim.schedule_at(msec(20), [&] { fired.push_back(20); });  // exactly at bound
  sim.schedule_at(msec(20) + usec(1), [&] { fired.push_back(21); });
  EXPECT_EQ(sim.run_until(msec(20)), 2u);
  EXPECT_EQ(fired, (std::vector<int>{10, 20}));
  EXPECT_EQ(sim.now(), msec(20));
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{10, 20, 21}));
}

TEST(Scheduler, RescheduleFromInsideCallback) {
  Simulator sim;
  std::vector<std::int64_t> fired_at;
  EventId victim = 0;
  sim.schedule_at(msec(5), [&] {
    // Cancel a pending event and replace it with an earlier AND a later one,
    // all from inside a running callback.
    EXPECT_TRUE(sim.cancel(victim));
    sim.schedule_at(msec(7), [&] { fired_at.push_back(sim.now().count()); });
    sim.schedule_at(msec(30), [&] { fired_at.push_back(sim.now().count()); });
    sim.schedule_in(Duration::zero(), [&] { fired_at.push_back(-1); });  // now
  });
  victim = sim.schedule_at(msec(20), [&] { fired_at.push_back(sim.now().count()); });
  sim.run();
  EXPECT_EQ(fired_at, (std::vector<std::int64_t>{-1, msec(7).count(), msec(30).count()}));
}

// Regression for the pending() double-bookkeeping bug: under interleaved
// schedule/cancel/run the old shadow-set accounting could drift from the
// queue's true live count. pending() must stay exact at every step.
TEST(Scheduler, PendingExactUnderInterleaving) {
  Simulator sim;
  std::vector<EventId> ids;
  std::size_t expected = 0;
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 10; ++i) {
      ids.push_back(sim.schedule_at(msec(100 + round * 10 + i), [] {}));
      ++expected;
      ASSERT_EQ(sim.pending(), expected);
    }
    // Cancel every other id from this round, newest first.
    for (const std::size_t back : {1u, 3u, 5u, 7u, 9u}) {
      ASSERT_TRUE(sim.cancel(ids[ids.size() - back]));
      --expected;
      ASSERT_EQ(sim.pending(), expected);
    }
    // Double-cancel is a no-op on the count.
    ASSERT_FALSE(sim.cancel(ids.back()));
    ASSERT_EQ(sim.pending(), expected);
  }
  // Drain a prefix; pending() tracks executions too.
  const std::size_t ran = sim.run_until(msec(150));
  expected -= ran;
  ASSERT_EQ(sim.pending(), expected);
  sim.run();
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_TRUE(sim.idle());
}

// The scheduler contract in its plainest form: a (time, seq)-ordered map of
// pending ops. The calendar queue must be observably identical to it.
class ReferenceScheduler {
 public:
  [[nodiscard]] TimePoint now() const { return now_; }
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

  std::uint64_t schedule_in(Duration delay, std::uint32_t op) {
    queue_.emplace(std::pair{now_ + delay, next_seq_}, op);
    return next_seq_++;
  }

  bool cancel(std::uint64_t seq) {
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (it->first.second == seq) {
        queue_.erase(it);
        return true;
      }
    }
    return false;  // fired, cancelled, or unknown
  }

  /// Fires ops with time <= until into `fired`; the clock ends at `until`.
  std::size_t run_until(TimePoint until, std::vector<std::uint32_t>& fired) {
    std::size_t n = 0;
    while (!queue_.empty() && queue_.begin()->first.first <= until) {
      now_ = queue_.begin()->first.first;
      fired.push_back(queue_.begin()->second);
      queue_.erase(queue_.begin());
      ++n;
    }
    if (now_ < until && until != TimePoint::max()) now_ = until;
    return n;
  }

 private:
  std::multimap<std::pair<TimePoint, std::uint64_t>, std::uint32_t> queue_;
  std::uint64_t next_seq_ = 0;
  TimePoint now_{0};
};

// Differential fuzz: drive the simulator and the reference model through the
// same pseudo-random 10k-op schedule/cancel/run_until script and require the
// identical firing order, clock, pending count and cancel results.
TEST(SchedulerDifferential, TenThousandOpFuzz) {
  Simulator sim;
  ReferenceScheduler ref;
  std::vector<std::uint32_t> sim_fired;
  std::vector<std::uint32_t> ref_fired;
  std::vector<EventId> sim_ids;
  std::vector<std::uint64_t> ref_ids;

  std::uint64_t lcg = 0xdeadbeefcafef00dull;
  auto rnd = [&lcg] {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return lcg >> 33;
  };

  for (std::uint32_t op = 0; op < 10'000; ++op) {
    const std::uint64_t kind = rnd() % 100;
    if (kind < 70) {
      // Schedule at a horizon that clusters events (same-time collisions are
      // the interesting case for FIFO order).
      const Duration delay = usec(static_cast<std::int64_t>(rnd() % 5'000));
      sim_ids.push_back(sim.schedule_in(delay, [&sim_fired, op] { sim_fired.push_back(op); }));
      ref_ids.push_back(ref.schedule_in(delay, op));
    } else if (kind < 90 && !sim_ids.empty()) {
      // Cancel a random previously issued id; outcomes must agree even for
      // already-fired or already-cancelled handles.
      const std::size_t pick = rnd() % sim_ids.size();
      EXPECT_EQ(sim.cancel(sim_ids[pick]), ref.cancel(ref_ids[pick])) << "op " << op;
    } else {
      // Advance both clocks through a bounded run.
      const TimePoint until = sim.now() + usec(static_cast<std::int64_t>(rnd() % 2'000));
      EXPECT_EQ(sim.run_until(until), ref.run_until(until, ref_fired)) << "op " << op;
      ASSERT_EQ(sim.now(), ref.now()) << "op " << op;
    }
    ASSERT_EQ(sim.pending(), ref.pending()) << "op " << op;
  }
  EXPECT_EQ(sim.run(), ref.run_until(TimePoint::max(), ref_fired));
  EXPECT_EQ(sim.now(), ref.now());
  ASSERT_EQ(sim_fired, ref_fired);
  EXPECT_EQ(sim.events_executed(), ref_fired.size());
}

}  // namespace
}  // namespace h3cdn::sim
