#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
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

TEST(SimulatorDeath, PastReschedulingAborts) {
  Simulator sim;
  const EventId id = sim.schedule_at(msec(20), [] {});
  sim.run_until(msec(10));
  EXPECT_DEATH(sim.reschedule(id, msec(5)), "precondition");
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

TEST(Scheduler, RescheduleMovesAPendingEventAndKeepsItsId) {
  Simulator sim;
  std::vector<int> order;
  const EventId id = sim.schedule_at(msec(30), [&] { order.push_back(30); });
  sim.schedule_at(msec(20), [&] { order.push_back(20); });
  EXPECT_TRUE(sim.reschedule(id, msec(10)));  // earlier
  EXPECT_EQ(sim.pending(), 2u);
  EXPECT_EQ(sim.run_until(msec(10)), 1u);
  EXPECT_EQ(order, (std::vector<int>{30}));
  const EventId later = sim.schedule_at(msec(15), [&] { order.push_back(15); });
  EXPECT_TRUE(sim.reschedule(later, msec(25)));  // later
  EXPECT_TRUE(sim.reschedule(later, msec(25)));  // same time again
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{30, 20, 15}));
  EXPECT_EQ(sim.now(), msec(25));
}

TEST(Scheduler, RescheduleOfFiredCancelledOrRecycledIdFails) {
  Simulator sim;
  EXPECT_FALSE(sim.reschedule(0, msec(1)));
  EXPECT_FALSE(sim.reschedule(12345, msec(1)));

  const EventId fired = sim.schedule_at(msec(1), [] {});
  sim.run();
  EXPECT_FALSE(sim.reschedule(fired, msec(5)));

  const EventId cancelled = sim.schedule_at(msec(5), [] {});
  EXPECT_TRUE(sim.cancel(cancelled));
  EXPECT_FALSE(sim.reschedule(cancelled, msec(6)));

  // The freed slot is reused by the next event; the stale id must not move it.
  bool recycled_fired = false;
  const EventId recycled = sim.schedule_at(msec(8), [&] { recycled_fired = true; });
  EXPECT_EQ(recycled & 0xffffffffu, cancelled & 0xffffffffu);
  EXPECT_FALSE(sim.reschedule(cancelled, msec(2)));
  EXPECT_FALSE(sim.reschedule(fired, msec(2)));
  EXPECT_EQ(sim.run_until(msec(7)), 0u);
  EXPECT_FALSE(recycled_fired);
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_TRUE(recycled_fired);
  EXPECT_EQ(sim.now(), msec(8));
}

TEST(Scheduler, RescheduleOntoAnOccupiedMicrosecondFiresAfterTheWaitingEvent) {
  Simulator sim;
  std::vector<int> order;
  // `moved` was scheduled first, so it led the tie before it moved; a moved
  // event takes a fresh seq, exactly as cancel + schedule_at would.
  const EventId moved = sim.schedule_at(msec(20), [&] { order.push_back(1); });
  sim.schedule_at(msec(10), [&] { order.push_back(2); });
  EXPECT_TRUE(sim.reschedule(moved, msec(10)));
  sim.schedule_at(msec(10), [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1, 3}));
}

TEST(Scheduler, RescheduleAndCancelFromInsideCallback) {
  Simulator sim;
  std::vector<int> order;
  EventId self = 0;
  EventId moved = 0;
  EventId victim = 0;
  self = sim.schedule_at(msec(5), [&] {
    EXPECT_FALSE(sim.reschedule(self, msec(6)));  // the running event has fired
    EXPECT_FALSE(sim.cancel(self));
    EXPECT_TRUE(sim.reschedule(moved, msec(7)));
    EXPECT_TRUE(sim.cancel(victim));
    order.push_back(5);
  });
  moved = sim.schedule_at(msec(20), [&] {
    order.push_back(7);
    EXPECT_FALSE(sim.reschedule(moved, msec(8)));
  });
  victim = sim.schedule_at(msec(10), [&] { order.push_back(10); });
  sim.schedule_at(msec(15), [&] { order.push_back(15); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{5, 7, 15}));
  EXPECT_EQ(sim.now(), msec(15));
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

TEST(Scheduler, ParkedEventFiresOnlyAfterReschedule) {
  Simulator sim;
  std::vector<int> order;
  const EventId parked = sim.park([&] { order.push_back(1); });
  EXPECT_NE(parked, 0u);
  sim.schedule_at(msec(10), [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 1u);  // the parked event stays put through a drain
  EXPECT_EQ(order, (std::vector<int>{2}));
  // Queued at the current time: it still runs after events already waiting
  // there, as a schedule_at() now would.
  sim.schedule_at(msec(20), [&] { order.push_back(3); });
  EXPECT_TRUE(sim.reschedule(parked, msec(20)));
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{2, 3, 1}));
  EXPECT_EQ(sim.now(), msec(20));
}

TEST(Scheduler, CancelOfParkedEventDestroysItsCallback) {
  Simulator sim;
  auto token = std::make_shared<int>(0);
  const std::weak_ptr<int> watch = token;
  const EventId parked = sim.park([token = std::move(token)] { ++*token; });
  EXPECT_FALSE(watch.expired());
  EXPECT_TRUE(sim.cancel(parked));
  EXPECT_TRUE(watch.expired());
  EXPECT_FALSE(sim.cancel(parked));
  EXPECT_FALSE(sim.reschedule(parked, msec(1)));
  EXPECT_EQ(sim.run(), 0u);
}

TEST(Scheduler, PendingAndIdleIgnoreParkedEvents) {
  Simulator sim;
  const EventId a = sim.park([] {});
  const EventId b = sim.park([] {});
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_TRUE(sim.idle());
  EXPECT_TRUE(sim.reschedule(a, msec(5)));
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_FALSE(sim.idle());
  EXPECT_TRUE(sim.cancel(b));
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_TRUE(sim.reschedule(a, msec(6)));  // queued now: an ordinary move
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_TRUE(sim.idle());
}

TEST(Scheduler, StaleFiredOrRecycledParkedIdsFail) {
  Simulator sim;
  const EventId fired = sim.park([] {});
  EXPECT_TRUE(sim.reschedule(fired, msec(1)));
  sim.run();
  EXPECT_FALSE(sim.reschedule(fired, msec(2)));
  EXPECT_FALSE(sim.cancel(fired));

  const EventId cancelled = sim.park([] {});
  EXPECT_TRUE(sim.cancel(cancelled));
  // The freed slot is parked again under a new generation; the stale id must
  // neither queue nor destroy it.
  bool recycled_fired = false;
  const EventId recycled = sim.park([&] { recycled_fired = true; });
  EXPECT_EQ(recycled & 0xffffffffu, cancelled & 0xffffffffu);
  EXPECT_FALSE(sim.reschedule(cancelled, msec(3)));
  EXPECT_FALSE(sim.cancel(cancelled));
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_TRUE(sim.reschedule(recycled, msec(4)));
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_TRUE(recycled_fired);
}

// The scheduler contract in its plainest form: a (time, seq)-ordered map of
// pending ops. The heap core must be observably identical to it.
class ReferenceScheduler {
 public:
  [[nodiscard]] TimePoint now() const { return now_; }
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

  std::uint64_t schedule_in(Duration delay, std::uint32_t op) {
    const std::uint64_t handle = next_handle_++;
    push(handle, now_ + delay, op);
    return handle;
  }

  /// Holds `op` under a handle with no time and no seq.
  std::uint64_t park(std::uint32_t op) {
    const std::uint64_t handle = next_handle_++;
    parked_[handle] = op;
    return handle;
  }

  bool cancel(std::uint64_t handle) {
    if (parked_.erase(handle) != 0) return true;
    const auto it = keys_.find(handle);
    if (it == keys_.end()) return false;  // fired, cancelled, or unknown
    queue_.erase(it->second);
    keys_.erase(it);
    return true;
  }

  /// Cancel plus schedule at `at` with a fresh seq; the handle stays valid.
  bool reschedule(std::uint64_t handle, TimePoint at) {
    std::uint32_t op = 0;
    if (const auto parked = parked_.find(handle); parked != parked_.end()) {
      op = parked->second;
      parked_.erase(parked);
    } else {
      const auto it = keys_.find(handle);
      if (it == keys_.end()) return false;
      op = queue_.at(it->second).op;
      cancel(handle);
    }
    push(handle, at, op);
    return true;
  }

  /// Fires ops with time <= until into `fired`; the clock ends at `until`.
  std::size_t run_until(TimePoint until, std::vector<std::uint32_t>& fired) {
    std::size_t n = 0;
    while (!queue_.empty() && queue_.begin()->first.first <= until) {
      now_ = queue_.begin()->first.first;
      fired.push_back(queue_.begin()->second.op);
      keys_.erase(queue_.begin()->second.handle);
      queue_.erase(queue_.begin());
      ++n;
    }
    if (now_ < until && until != TimePoint::max()) now_ = until;
    return n;
  }

 private:
  using Key = std::pair<TimePoint, std::uint64_t>;  // (time, seq)
  struct Pending {
    std::uint32_t op;
    std::uint64_t handle;
  };

  void push(std::uint64_t handle, TimePoint at, std::uint32_t op) {
    const Key key{at, next_seq_++};
    queue_.emplace(key, Pending{op, handle});
    keys_[handle] = key;
  }

  std::map<Key, Pending> queue_;  // seq makes every key unique
  std::map<std::uint64_t, Key> keys_;  // pending handle -> its current key
  std::map<std::uint64_t, std::uint32_t> parked_;  // parked handle -> op
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_handle_ = 0;
  TimePoint now_{0};
};

// Differential fuzz: drive the simulator and the reference model through the
// same pseudo-random 10k-op schedule/park/arm/cancel/run_until script and
// require the identical firing order, clock, pending count and cancel and
// arm results.
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
    if (kind < 60) {
      // Schedule at a horizon that clusters events (same-time collisions are
      // the interesting case for FIFO order).
      const Duration delay = usec(static_cast<std::int64_t>(rnd() % 5'000));
      sim_ids.push_back(sim.schedule_in(delay, [&sim_fired, op] { sim_fired.push_back(op); }));
      ref_ids.push_back(ref.schedule_in(delay, op));
    } else if (kind < 66) {
      // Park: a callback with no time yet, as NetPath holds a packet's
      // delivery while it crosses the first link.
      sim_ids.push_back(sim.park([&sim_fired, op] { sim_fired.push_back(op); }));
      ref_ids.push_back(ref.park(op));
    } else if (kind < 72 && !sim_ids.empty()) {
      // Arm a random id: queues a parked event, moves a pending one, and
      // fails alike for fired or cancelled ones.
      const std::size_t pick = rnd() % sim_ids.size();
      const TimePoint at = sim.now() + usec(static_cast<std::int64_t>(rnd() % 5'000));
      EXPECT_EQ(sim.reschedule(sim_ids[pick], at), ref.reschedule(ref_ids[pick], at))
          << "op " << op;
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

// Differential fuzz on the simulator's own event mix: packets microseconds
// apart, plus one 200 ms-1 s retransmission timer per flow that every "send"
// re-arms in place, as Connection::arm_rto does. Timers move both earlier and
// later, fire when a run jumps past them, and are re-armed by id after they
// fired (which must fail identically in both models). Some packets cross a
// chained path as NetPath sends them: parked, then armed at their arrival or
// cancelled as a drop.
TEST(SchedulerDifferential, BimodalPacketsAndRearmedTimers) {
  Simulator sim;
  ReferenceScheduler ref;
  std::vector<std::uint32_t> sim_fired;
  std::vector<std::uint32_t> ref_fired;
  constexpr std::size_t kFlows = 16;
  std::vector<EventId> sim_timer(kFlows, 0);
  std::vector<std::uint64_t> ref_timer(kFlows, 0);
  std::vector<bool> armed(kFlows, false);
  std::vector<std::pair<EventId, std::uint64_t>> relaying;  // parked packets

  std::uint64_t lcg = 0x0123456789abcdefull;
  auto rnd = [&lcg] {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return lcg >> 33;
  };
  constexpr std::uint32_t kTimerBit = 0x8000'0000u;  // marks a timer's op
  auto fire = [&sim_fired](std::uint32_t op) {
    return [&sim_fired, op] { sim_fired.push_back(op); };
  };

  std::size_t moved = 0;
  for (std::uint32_t op = 0; op < 20'000; ++op) {
    const std::uint64_t kind = rnd() % 100;
    if (kind < 60) {
      // Send: a packet a few microseconds out (or parked on its first hop),
      // then re-arm this flow's timer.
      const Duration hop = usec(static_cast<std::int64_t>(rnd() % 8));
      if (rnd() % 4 == 0) {
        relaying.emplace_back(sim.park(fire(op)), ref.park(op));
      } else {
        sim.schedule_in(hop, fire(op));
        ref.schedule_in(hop, op);
      }
      const std::size_t flow = rnd() % kFlows;
      // Deadlines on a millisecond grid, so flows' timers tie now and then.
      const TimePoint deadline =
          msec(sim.now().count() / 1000 + 200 + static_cast<std::int64_t>(rnd() % 801));
      bool sim_moved = false;
      if (armed[flow]) {
        sim_moved = sim.reschedule(sim_timer[flow], deadline);
        ASSERT_EQ(sim_moved, ref.reschedule(ref_timer[flow], deadline)) << "op " << op;
      }
      if (sim_moved) {
        ++moved;
      } else {
        sim_timer[flow] = sim.schedule_at(deadline, fire(op | kTimerBit));
        ref_timer[flow] = ref.schedule_in(deadline - ref.now(), op | kTimerBit);
        armed[flow] = true;
      }
    } else if (kind < 65) {
      // Disarm a flow's timer (all data acknowledged).
      const std::size_t flow = rnd() % kFlows;
      if (armed[flow]) {
        ASSERT_EQ(sim.cancel(sim_timer[flow]), ref.cancel(ref_timer[flow])) << "op " << op;
      }
    } else if (kind < 70) {
      // The oldest parked packet leaves its first hop: delivered a few
      // microseconds on, or dropped.
      if (!relaying.empty()) {
        const auto [sim_id, ref_id] = relaying.front();
        relaying.erase(relaying.begin());
        if (rnd() % 10 == 0) {
          ASSERT_TRUE(sim.cancel(sim_id)) << "op " << op;
          ASSERT_TRUE(ref.cancel(ref_id)) << "op " << op;
        } else {
          const TimePoint at = sim.now() + usec(static_cast<std::int64_t>(rnd() % 8));
          ASSERT_TRUE(sim.reschedule(sim_id, at)) << "op " << op;
          ASSERT_TRUE(ref.reschedule(ref_id, at)) << "op " << op;
        }
      }
    } else {
      // Mostly short runs through the packet burst; now and then a jump far
      // enough that timers fire.
      const Duration span = kind < 97 ? usec(static_cast<std::int64_t>(rnd() % 40))
                                      : usec(static_cast<std::int64_t>(rnd() % 1'200'000));
      const TimePoint until = sim.now() + span;
      ASSERT_EQ(sim.run_until(until), ref.run_until(until, ref_fired)) << "op " << op;
      ASSERT_EQ(sim.now(), ref.now()) << "op " << op;
    }
    ASSERT_EQ(sim.pending(), ref.pending()) << "op " << op;
  }
  EXPECT_EQ(sim.run(), ref.run_until(TimePoint::max(), ref_fired));
  EXPECT_EQ(sim.now(), ref.now());
  ASSERT_EQ(sim_fired, ref_fired);
  // The mix exercised what it is for: most sends moved a pending timer, and
  // some timers fired.
  EXPECT_GT(moved, 5'000u);
  EXPECT_GT(std::count_if(sim_fired.begin(), sim_fired.end(),
                          [](std::uint32_t op) { return (op & kTimerBit) != 0; }),
            10);
}

}  // namespace
}  // namespace h3cdn::sim
