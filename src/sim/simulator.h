// Discrete-event simulation engine.
//
// One Simulator instance drives one simulated probe's page visits. Events are
// ordered by (time, insertion sequence), so simultaneous events fire in the
// order they were scheduled — this total order is what makes whole-study runs
// bit-reproducible.
//
// The scheduler core is an indexed 4-ary min-heap (docs/SCALING.md) over a
// slab/free-list event arena. Heap entries carry the (time, seq) key and the
// arena slot, so sifting compares without touching the arena; each slot
// records its heap position, so cancel() and reschedule() are O(log n). The
// callback lives inline in its slot via SmallFn, so steady-state scheduling
// performs no per-event heap allocation. A slot may also be *parked*: it holds
// a callback with no time yet, and reschedule() later queues it (net::NetPath
// parks a packet's delivery while the packet crosses its first link).
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
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedules `fn` to run at absolute virtual time `at` (>= now()).
  /// Accepts any void() callable (stored inline for captures <= 64 bytes).
  EventId schedule_at(TimePoint at, SmallFn fn);

  /// Schedules `fn` to run `delay` (>= 0) after now().
  EventId schedule_in(Duration delay, SmallFn fn);

  /// Stores `fn` in an arena slot without queueing it: no time, no sequence
  /// number. reschedule() queues it; cancel() destroys it. A parked event
  /// counts in neither pending() nor idle().
  EventId park(SmallFn fn);

  /// Cancels a pending or parked event. Returns false if it already fired or
  /// was cancelled. Removes the entry and recycles its arena slot (destroying
  /// the callback) immediately, so pending() stays exact with no shadow
  /// bookkeeping.
  bool cancel(EventId id);

  /// Moves a pending event to absolute time `at` (>= now()), keeping its id
  /// and callback. It takes a fresh sequence number, so it orders exactly as
  /// cancel() followed by schedule_at() would; a parked event is queued the
  /// same way. Returns false, changing nothing, if the event already fired or
  /// was cancelled.
  bool reschedule(EventId id, TimePoint at);

  /// Runs until the queue drains. Returns the number of events executed.
  std::size_t run();

  /// Runs events with time <= until; leaves later events queued.
  std::size_t run_until(TimePoint until);

  /// True if no runnable (non-cancelled) events remain.
  [[nodiscard]] bool idle() const { return heap_.empty(); }

  /// Number of events executed since construction.
  [[nodiscard]] std::size_t events_executed() const { return executed_; }

  /// Number of currently pending (non-cancelled) events. Exact under
  /// arbitrary schedule/cancel/reschedule/pop interleavings.
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }

 private:
  // --- event arena ----------------------------------------------------------
  // One slot per pending or parked event. Slots are recycled through a free
  // list; the generation counter in the EventId makes stale handles (fired or
  // cancelled events) fail cancel() and reschedule() without any side table.
  struct Slot {
    std::uint32_t gen = 1;
    std::uint32_t pos = kNotQueued;  // index of this event's heap entry
    SmallFn fn;
  };
  static constexpr std::uint32_t kNotQueued = 0xffffffffu;  // free slot
  static constexpr std::uint32_t kParked = 0xfffffffeu;     // live, not queued
  static_assert(sizeof(void*) != 8 || sizeof(Slot) == 80, "keep the arena slot at 80 bytes");

  // --- heap -----------------------------------------------------------------
  struct Entry {
    TimePoint at;
    std::uint64_t seq;
    std::uint32_t slot;
    /// Strict (time, seq) order — the total order events fire in.
    [[nodiscard]] bool before(const Entry& o) const {
      return at != o.at ? at < o.at : seq < o.seq;
    }
  };

  std::uint32_t acquire_slot();
  /// The slot `id` names if its event is still pending or parked, else
  /// nullptr.
  Slot* live_slot(EventId id);
  void release_slot(std::uint32_t slot);

  /// Writes `e` at heap index `i` and records the index in its slot.
  void place(std::size_t i, const Entry& e) {
    heap_[i] = e;
    slots_[e.slot].pos = static_cast<std::uint32_t>(i);
  }
  /// Queues `slot` at time `at` with a fresh sequence number.
  void push(TimePoint at, std::uint32_t slot);
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  /// Restores heap order after the key at `i` changed in either direction.
  void sift(std::size_t i);
  /// Removes the entry at heap index `i`.
  void heap_erase(std::size_t i);

  /// Fires events with time <= until in (time, seq) order.
  std::size_t dispatch(TimePoint until);

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<Entry> heap_;  // 4-ary min-heap on (at, seq)

  TimePoint now_{0};
  std::uint64_t next_seq_ = 0;
  std::size_t executed_ = 0;
};

}  // namespace h3cdn::sim
