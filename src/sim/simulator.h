// Discrete-event simulation engine.
//
// One Simulator instance drives one simulated probe's page visits. Events are
// ordered by (time, insertion sequence), so simultaneous events fire in the
// order they were scheduled — this total order is what makes whole-study runs
// bit-reproducible.
//
// The scheduler core is a calendar queue (docs/SCALING.md) — a ring of time
// buckets whose width adapts to the observed event density — over a
// slab/free-list event arena. Buckets are intrusive chains threaded through
// the arena slots; the callback lives inline in its slot via SmallFn, so
// steady-state scheduling performs no per-event heap allocation and pops are
// O(1) amortized instead of O(log n).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/small_fn.h"
#include "util/types.h"

namespace h3cdn::sim {

/// Handle for a scheduled event; usable to cancel it before it fires.
/// Packs (generation << 32 | arena slot); never zero.
using EventId = std::uint64_t;

/// Deterministic event-queue simulator with a microsecond virtual clock.
class Simulator {
 public:
  Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedules `fn` to run at absolute virtual time `at` (>= now()).
  /// Accepts any void() callable (stored inline for captures <= 48 bytes).
  EventId schedule_at(TimePoint at, SmallFn fn);

  /// Schedules `fn` to run `delay` (>= 0) after now().
  EventId schedule_in(Duration delay, SmallFn fn);

  /// Cancels a pending event. Returns false if it already fired or was
  /// cancelled. Removes the entry and recycles its arena slot immediately,
  /// so pending() stays exact with no shadow bookkeeping.
  bool cancel(EventId id);

  /// Runs until the queue drains. Returns the number of events executed.
  std::size_t run();

  /// Runs events with time <= until; leaves later events queued.
  std::size_t run_until(TimePoint until);

  /// True if no runnable (non-cancelled) events remain.
  [[nodiscard]] bool idle() const { return live_ == 0; }

  /// Number of events executed since construction.
  [[nodiscard]] std::size_t events_executed() const { return executed_; }

  /// Number of currently pending (non-cancelled) events. Exact under
  /// arbitrary schedule/cancel/pop interleavings.
  [[nodiscard]] std::size_t pending() const { return live_; }

 private:
  // --- event arena ----------------------------------------------------------
  // One slot per live event. Slots are recycled through a free list; the
  // generation counter in the EventId makes stale handles (fired or
  // cancelled events) fail cancel() without any side table. Each bucket of
  // the calendar is an intrusive singly-linked chain threaded through the
  // slots (`next`), so steady-state schedule/cancel/pop never allocates.
  struct Slot {
    TimePoint at{0};
    std::uint64_t seq = 0;
    std::uint32_t gen = 1;
    std::uint32_t next = kNilSlot;  // next slot in this event's bucket chain
    bool live = false;
    SmallFn fn;
  };
  static constexpr std::uint32_t kNilSlot = 0xffffffffu;

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  void calendar_link(std::uint32_t slot);
  /// Unlinks and returns the earliest (at, seq) live slot with at <= bound;
  /// kNilSlot if none qualifies.
  std::uint32_t calendar_pop(TimePoint bound);
  void calendar_resize(std::size_t nbuckets);
  /// Re-derives the bucket width from the live event spread (Brown's
  /// calendar-queue heuristic) and redistributes all entries.
  void calendar_recalibrate();
  [[nodiscard]] std::uint64_t virtual_index(TimePoint at) const {
    return static_cast<std::uint64_t>(at.count()) / width_us_;
  }

  /// Fires events with time <= until in (time, seq) order.
  std::size_t dispatch(TimePoint until);

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::uint32_t> buckets_;  // chain head per bucket (kNilSlot = empty)
  std::uint64_t width_us_ = 1024;  // bucket width, microseconds
  std::uint64_t base_vi_ = 0;      // virtual bucket index of the current time
  std::size_t live_ = 0;           // pending (non-cancelled) events

  TimePoint now_{0};
  std::uint64_t next_seq_ = 0;
  std::size_t executed_ = 0;
};

}  // namespace h3cdn::sim
