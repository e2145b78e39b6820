#include "sim/simulator.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/check.h"

namespace h3cdn::sim {

namespace {

constexpr std::size_t kMinBuckets = 32;
constexpr std::uint32_t kSlotMask32 = 0xffffffffu;

constexpr EventId make_event_id(std::uint32_t gen, std::uint32_t slot) {
  return (static_cast<EventId>(gen) << 32) | slot;
}

/// Strict (time, seq) order — the total order events fire in.
constexpr bool entry_before(TimePoint at_a, std::uint64_t seq_a, TimePoint at_b,
                            std::uint64_t seq_b) {
  if (at_a != at_b) return at_a < at_b;
  return seq_a < seq_b;
}

}  // namespace

Simulator::Simulator() : buckets_(kMinBuckets, kNilSlot) {}

EventId Simulator::schedule_at(TimePoint at, SmallFn fn) {
  H3CDN_EXPECTS(at >= now_);
  H3CDN_EXPECTS(static_cast<bool>(fn));
  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.at = at;
  s.seq = next_seq_++;
  s.live = true;
  s.fn = std::move(fn);
  calendar_link(slot);
  ++live_;
  if (live_ > 2 * buckets_.size()) calendar_resize(2 * buckets_.size());
  return make_event_id(slots_[slot].gen, slot);
}

EventId Simulator::schedule_in(Duration delay, SmallFn fn) {
  H3CDN_EXPECTS(delay >= Duration::zero());
  return schedule_at(now_ + delay, std::move(fn));
}

bool Simulator::cancel(EventId id) {
  const std::uint32_t slot = static_cast<std::uint32_t>(id & kSlotMask32);
  const std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  if (!s.live || s.gen != gen) return false;  // fired, recycled, or unknown
  std::uint32_t* link = &buckets_[virtual_index(s.at) & (buckets_.size() - 1)];
  while (*link != kNilSlot) {
    if (*link == slot) {
      *link = s.next;
      --live_;
      release_slot(slot);
      return true;
    }
    link = &slots_[*link].next;
  }
  H3CDN_ASSERT(false && "live slot missing from its bucket");
  return false;
}

std::size_t Simulator::run() {
  obs::ProfileScope profile("sim.run");
  const std::size_t n = dispatch(TimePoint::max());
  obs::count("sim.events_executed", n);
  return n;
}

std::size_t Simulator::run_until(TimePoint until) {
  obs::ProfileScope profile("sim.run");
  const std::size_t n = dispatch(until);
  if (now_ < until) now_ = until;
  obs::count("sim.events_executed", n);
  return n;
}

// ---------------------------------------------------------------------------
// Slab arena + adaptive-width bucket ring.
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

void Simulator::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.live = false;
  s.fn.reset();
  if (++s.gen == 0) s.gen = 1;  // keep EventId 0 forever invalid
  free_slots_.push_back(slot);
}

void Simulator::calendar_link(std::uint32_t slot) {
  std::uint32_t& head = buckets_[virtual_index(slots_[slot].at) & (buckets_.size() - 1)];
  slots_[slot].next = head;
  head = slot;
}

void Simulator::calendar_resize(std::size_t nbuckets) {
  std::vector<std::uint32_t> old = std::move(buckets_);
  buckets_.assign(nbuckets, kNilSlot);
  calendar_recalibrate();
  base_vi_ = virtual_index(now_);
  for (std::uint32_t head : old) {
    while (head != kNilSlot) {
      const std::uint32_t next = slots_[head].next;
      calendar_link(head);
      head = next;
    }
  }
}

void Simulator::calendar_recalibrate() {
  // Brown's calendar-queue width heuristic: make buckets a small multiple of
  // the mean gap between time-adjacent live events, so an average bucket
  // holds O(1) events of the current "year". The mean gap is estimated as
  // (sampled time span) / (live count): a 64-element sample pins down the
  // span of the distribution well, but dividing by the SAMPLE count instead
  // of the live count would overestimate the gap by live_/64 and collapse
  // the whole queue into a handful of giant buckets.
  constexpr std::size_t kSample = 64;
  std::vector<std::int64_t> sample;
  sample.reserve(kSample);
  for (std::uint32_t slot = 0;
       slot < slots_.size() && sample.size() < kSample; ++slot) {
    if (slots_[slot].live) sample.push_back(slots_[slot].at.count());
  }
  if (sample.size() < 2 || live_ < 2) return;  // keep the current width
  const auto [min_it, max_it] = std::minmax_element(sample.begin(), sample.end());
  const std::int64_t span = *max_it - *min_it;
  if (span == 0) return;  // all simultaneous: any width works
  width_us_ = std::max<std::uint64_t>(
      1, 3 * static_cast<std::uint64_t>(span) / static_cast<std::uint64_t>(live_ - 1));
}

std::uint32_t Simulator::calendar_pop(TimePoint bound) {
  if (live_ == 0) return kNilSlot;
  const std::size_t n = buckets_.size();
  const std::size_t mask = n - 1;
  // Invariant: base_vi_ <= virtual_index(s.at) for every linked slot, so the
  // first bucket (scanning forward from base_vi_) holding a slot of its own
  // virtual index holds the global minimum.
  std::uint64_t vi = base_vi_;
  for (std::size_t i = 0; i < n; ++i, ++vi) {
    std::uint32_t* head = &buckets_[vi & mask];
    std::uint32_t* best = nullptr;  // link pointing at the best slot so far
    for (std::uint32_t* link = head; *link != kNilSlot; link = &slots_[*link].next) {
      const Slot& s = slots_[*link];
      if (virtual_index(s.at) != vi) continue;  // a later wheel "year"
      if (best == nullptr ||
          entry_before(s.at, s.seq, slots_[*best].at, slots_[*best].seq)) {
        best = link;
      }
    }
    if (best != nullptr) {
      const std::uint32_t slot = *best;
      if (slots_[slot].at > bound) return kNilSlot;
      *best = slots_[slot].next;  // unlink
      --live_;
      base_vi_ = vi;
      return slot;
    }
  }
  // Sparse region: nothing within one full wheel rotation. Direct-search the
  // global minimum and jump the wheel to it.
  std::uint32_t* best = nullptr;
  for (std::size_t b = 0; b < n; ++b) {
    for (std::uint32_t* link = &buckets_[b]; *link != kNilSlot;
         link = &slots_[*link].next) {
      const Slot& s = slots_[*link];
      if (best == nullptr ||
          entry_before(s.at, s.seq, slots_[*best].at, slots_[*best].seq)) {
        best = link;
      }
    }
  }
  H3CDN_ASSERT(best != nullptr);
  const std::uint32_t slot = *best;
  if (slots_[slot].at > bound) return kNilSlot;
  *best = slots_[slot].next;
  --live_;
  base_vi_ = virtual_index(slots_[slot].at);
  return slot;
}

std::size_t Simulator::dispatch(TimePoint until) {
  std::size_t n = 0;
  for (std::uint32_t slot; (slot = calendar_pop(until)) != kNilSlot;) {
    Slot& s = slots_[slot];
    H3CDN_ASSERT(s.live);
    H3CDN_ASSERT(s.at >= now_);
    SmallFn fn = std::move(s.fn);  // move out: the slot is recycled before the
    now_ = s.at;                   // callback runs, so it can schedule freely
    release_slot(slot);
    ++executed_;
    ++n;
    fn();
    if (live_ * 8 < buckets_.size() && buckets_.size() > kMinBuckets) {
      calendar_resize(buckets_.size() / 2);
    }
  }
  return n;
}

}  // namespace h3cdn::sim
