#include "sim/simulator.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/check.h"

namespace h3cdn::sim {

namespace {

const obs::MetricId kRun{"sim.run"};
const obs::MetricId kEventsExecuted{"sim.events_executed"};

constexpr std::uint32_t kSlotMask32 = 0xffffffffu;
constexpr std::size_t kArity = 4;

constexpr EventId make_event_id(std::uint32_t gen, std::uint32_t slot) {
  return (static_cast<EventId>(gen) << 32) | slot;
}

}  // namespace

EventId Simulator::schedule_at(TimePoint at, SmallFn fn) {
  H3CDN_EXPECTS(at >= now_);
  H3CDN_EXPECTS(static_cast<bool>(fn));
  const std::uint32_t slot = acquire_slot();
  slots_[slot].fn = std::move(fn);
  push(at, slot);
  return make_event_id(slots_[slot].gen, slot);
}

EventId Simulator::park(SmallFn fn) {
  H3CDN_EXPECTS(static_cast<bool>(fn));
  const std::uint32_t slot = acquire_slot();
  slots_[slot].fn = std::move(fn);
  slots_[slot].pos = kParked;
  return make_event_id(slots_[slot].gen, slot);
}

EventId Simulator::schedule_in(Duration delay, SmallFn fn) {
  H3CDN_EXPECTS(delay >= Duration::zero());
  return schedule_at(now_ + delay, std::move(fn));
}

bool Simulator::cancel(EventId id) {
  Slot* s = live_slot(id);
  if (s == nullptr) return false;
  if (s->pos != kParked) heap_erase(s->pos);
  release_slot(static_cast<std::uint32_t>(id & kSlotMask32));
  return true;
}

bool Simulator::reschedule(EventId id, TimePoint at) {
  H3CDN_EXPECTS(at >= now_);
  Slot* s = live_slot(id);
  if (s == nullptr) return false;
  if (s->pos == kParked) {
    push(at, static_cast<std::uint32_t>(id & kSlotMask32));
    return true;
  }
  Entry& e = heap_[s->pos];
  e.at = at;
  e.seq = next_seq_++;
  sift(s->pos);
  return true;
}

std::size_t Simulator::run() {
  obs::ProfileScope profile(kRun);
  const std::size_t n = dispatch(TimePoint::max());
  obs::count(kEventsExecuted, n);
  return n;
}

std::size_t Simulator::run_until(TimePoint until) {
  obs::ProfileScope profile(kRun);
  const std::size_t n = dispatch(until);
  if (now_ < until) now_ = until;
  obs::count(kEventsExecuted, n);
  return n;
}

// ---------------------------------------------------------------------------
// Slab arena + indexed 4-ary heap.
// ---------------------------------------------------------------------------

std::uint32_t Simulator::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  const std::uint32_t slot = static_cast<std::uint32_t>(slots_.size());
  slots_.emplace_back();
  return slot;
}

Simulator::Slot* Simulator::live_slot(EventId id) {
  const std::uint32_t slot = static_cast<std::uint32_t>(id & kSlotMask32);
  const std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size()) return nullptr;
  Slot& s = slots_[slot];
  // A fired or cancelled event's slot is free (not queued) or was recycled
  // under a newer generation.
  if (s.gen != gen || s.pos == kNotQueued) return nullptr;
  return &s;
}

void Simulator::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.pos = kNotQueued;
  s.fn.reset();
  if (++s.gen == 0) s.gen = 1;  // keep EventId 0 forever invalid
  free_slots_.push_back(slot);
}

void Simulator::push(TimePoint at, std::uint32_t slot) {
  heap_.push_back(Entry{at, next_seq_++, slot});
  sift_up(heap_.size() - 1);
}

void Simulator::sift_up(std::size_t i) {
  const Entry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!e.before(heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, e);
}

void Simulator::sift_down(std::size_t i) {
  const Entry e = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = kArity * i + 1;
    if (first >= n) break;
    const std::size_t end = std::min(first + kArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (heap_[c].before(heap_[best])) best = c;
    }
    if (!heap_[best].before(e)) break;
    place(i, heap_[best]);
    i = best;
  }
  place(i, e);
}

void Simulator::sift(std::size_t i) {
  if (i > 0 && heap_[i].before(heap_[(i - 1) / kArity])) {
    sift_up(i);
  } else {
    sift_down(i);
  }
}

void Simulator::heap_erase(std::size_t i) {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;  // erased the tail entry itself
  place(i, last);
  sift(i);
}

std::size_t Simulator::dispatch(TimePoint until) {
  std::size_t n = 0;
  while (!heap_.empty() && heap_.front().at <= until) {
    const Entry top = heap_.front();
    H3CDN_ASSERT(top.at >= now_);
    heap_erase(0);
    // Move the callback out: the slot is recycled before it runs, so it can
    // schedule, cancel and reschedule freely.
    SmallFn fn = std::move(slots_[top.slot].fn);
    now_ = top.at;
    release_slot(top.slot);
    ++executed_;
    ++n;
    fn();
  }
  return n;
}

}  // namespace h3cdn::sim
