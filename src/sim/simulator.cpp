#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

namespace pathload::sim {

Simulator::Simulator() : buckets_(kBucketCount) {
  cur_.reserve(64);
  noop_.cb = [] {};
  noop_.persistent = true;
}

Simulator::~Simulator() = default;

void Simulator::throw_past(TimePoint t, TimePoint now) {
  throw std::logic_error{"Simulator::schedule_at: t=" + std::to_string(t.nanos()) +
                         "ns is before now=" + std::to_string(now.nanos()) + "ns (" +
                         std::to_string((now - t).nanos()) + "ns in the past)"};
}

Simulator::Slot* Simulator::alloc_slot() {
  if (free_head_ != nullptr) {
    Slot* s = free_head_;
    free_head_ = s->next_free;
    return s;
  }
  // Blocks double up to kSlabChunk: a small simulation (a testbed holds a
  // couple dozen timers) should not pay for zero-initializing a full-size
  // block in its constructor-heavy benches and sweeps.
  if (slab_.empty() || slab_used_ == slab_cap_) {
    slab_cap_ = slab_.empty() ? 16 : std::min(slab_cap_ * 2, kSlabChunk);
    slab_.push_back(std::make_unique<Slot[]>(slab_cap_));
    slab_used_ = 0;
  }
  return &slab_.back()[slab_used_++];
}

Simulator::Slot* Simulator::alloc_timer_slot(Callback cb, bool counted) {
  Slot* s = alloc_slot();
  s->cb = std::move(cb);
  s->persistent = true;
  s->armed = false;
  // Setting or clearing the flag moves the generation by one; free_slot
  // stepped it by two, so no key still queued for this slot matches it.
  s->gen = (s->gen & ~kCountedGen) | (counted ? kCountedGen : 0);
  return s;
}

void Simulator::free_slot(Slot* s) {
  s->cb = Callback{};
  s->gen += kGenStep;  // invalidates any key still referencing this slot
  s->persistent = false;
  s->armed = false;
  s->firing = false;
  s->zombie = false;
  s->next_free = free_head_;
  free_head_ = s;
}

void Simulator::insert(Key k) {
  if (k.at < cur_start_ + kBucketWidth) {
    // Near-future fast lane: sorted insert behind the consumption point.
    // Packet workloads schedule mostly in arrival order, so this is almost
    // always a plain append; the memmove otherwise shifts 32-byte keys only.
    if (cur_.empty() || !KeyBefore{}(k, cur_.back())) {
      cur_.push_back(k);
    } else {
      const auto pos = std::lower_bound(
          cur_.begin() + static_cast<std::ptrdiff_t>(cur_head_), cur_.end(), k,
          KeyBefore{});
      cur_.insert(pos, k);
    }
    ++lane_inserts_.fast;
  } else if (k.at < fine_end_) {
    admit_to_ring(k);
    ++lane_inserts_.ring;
  } else if (queue_empty()) {
    // Queue is empty and the key is beyond the ring (e.g. the clock has
    // outrun the window in run_until on an idle simulator): re-anchor the
    // window at the new event instead of sending it on a pointless trip
    // through the second level or the overflow heap.
    cur_start_ = (k.at >> kBucketShift) << kBucketShift;
    fine_end_ = ((cur_start_ + kWindowSpan) >> kBlockShift) << kBlockShift;
    cur_.clear();
    cur_head_ = 0;
    cur_.push_back(k);
    ++lane_inserts_.fast;
  } else if (k.at < horizon()) {
    admit_to_block(k);
    ++lane_inserts_.coarse;
  } else {
    overflow_.push_back(k);
    std::push_heap(overflow_.begin(), overflow_.end(), KeyLater{});
    ++lane_inserts_.heap;
  }
  ++live_;
}

void Simulator::schedule_at(TimePoint t, Callback cb) {
  if (t < now_) throw_past(t, now_);
  Slot* s = alloc_slot();
  s->cb = std::move(cb);
  insert(Key{t.nanos(), ++seq_, s, s->gen});
}

void Simulator::schedule_now(Callback cb) {
  Slot* s = alloc_slot();
  s->cb = std::move(cb);
  insert(Key{now_.nanos(), ++seq_, s, s->gen});
}

std::uint64_t Simulator::reserve_fifo_tickets(std::uint32_t n) {
  seq_ += n;
  return seq_ - n + 1;
}

std::uint64_t Simulator::schedule_batch(std::vector<BatchEvent> entries) {
  // Validate the whole batch before touching any state: a throwing call
  // must leave the FIFO numbering and the queue exactly as it found them
  // (schedule_at makes the same guarantee).
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].at < now_) throw_past(entries[i].at, now_);
    if (i > 0 && entries[i].at < entries[i - 1].at) {
      throw std::logic_error{"Simulator::schedule_batch: entries not time-ascending"};
    }
  }
  const auto n = static_cast<std::uint32_t>(entries.size());
  const std::uint64_t base = reserve_fifo_tickets(n);
  bool deferred = false;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    Slot* s = alloc_slot();
    s->cb = std::move(entries[i].cb);
    const Key k{entries[i].at.nanos(), base + i, s, s->gen};
    // Once one key lands past the horizon, every later one does too
    // (ascending times, and the re-anchor branch needs an empty queue):
    // append those raw and restore the heap invariant once at the end.
    // Safe because KeyLater is a total order, so the pop sequence does not
    // depend on the heap's internal layout.
    if (deferred || (k.at >= horizon() && !queue_empty())) {
      overflow_.push_back(k);
      ++live_;
      ++lane_inserts_.heap;
      deferred = true;
    } else {
      insert(k);
    }
  }
  if (deferred) std::make_heap(overflow_.begin(), overflow_.end(), KeyLater{});
  return base;
}

void Simulator::arm_timer(Slot* slot, TimePoint t) {
  // Validate before consuming a ticket: a caller that catches the error and
  // continues must not find the FIFO numbering shifted (schedule_at makes
  // the same guarantee).
  if (t < now_) throw_past(t, now_);
  arm_validated(slot, t, ++seq_);
}

void Simulator::arm_timer(Slot* slot, TimePoint t, std::uint64_t ticket) {
  if (t < now_) throw_past(t, now_);
  arm_validated(slot, t, ticket);
}

void Simulator::arm_validated(Slot* slot, TimePoint t, std::uint64_t ticket) {
  if (slot->armed) disarm_timer(slot);  // reschedule-in-place
  slot->armed = true;
  insert(Key{t.nanos(), ticket, slot, slot->gen});
}

void Simulator::disarm_timer(Slot* slot) {
  if (slot->armed) {
    slot->gen += kGenStep;
    slot->armed = false;
    // A counted timer's dropped occurrence stays an event (see pop_live).
    if ((slot->gen & kCountedGen) == 0) --live_;
  }
}

void Simulator::release_timer(Slot* slot) {
  disarm_timer(slot);
  if (slot->firing) {
    // The handle is being destroyed from inside its own callback, whose
    // closure lives in this slot and is still executing. Defer the recycle
    // to fire(), so neither the destruction nor a nested alloc_slot can
    // clobber the running lambda.
    slot->zombie = true;
    return;
  }
  free_slot(slot);
}

void Simulator::admit_to_ring(const Key& k) {
  const auto slot = static_cast<std::size_t>(k.at >> kBucketShift) & (kBucketCount - 1);
  buckets_[slot].push_back(k);
  occupied_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
  ++ring_count_;
}

void Simulator::admit_to_block(const Key& k) {
  std::uint32_t n = pool_free_;
  if (n != kNil) {
    pool_free_ = pool_[n].next;
    pool_[n] = k;
  } else {
    n = static_cast<std::uint32_t>(pool_.size());
    pool_.push_back(k);
  }
  pool_[n].next = kNil;
  const auto b = static_cast<std::size_t>(k.at >> kBlockShift) & (kBlockCount - 1);
  const std::uint64_t bit = std::uint64_t{1} << b;
  if ((blocks_occupied_ & bit) != 0) {
    pool_[block_tail_[b]].next = n;
  } else {
    block_head_[b] = n;
    blocks_occupied_ |= bit;
  }
  block_tail_[b] = n;
  ++coarse_count_;
}

void Simulator::drain_overflow_into_blocks() {
  while (!overflow_.empty() && overflow_.front().at < horizon()) {
    const Key k = overflow_.front();
    std::pop_heap(overflow_.begin(), overflow_.end(), KeyLater{});
    overflow_.pop_back();
    admit_to_block(k);
  }
}

void Simulator::promote_block() {
  // Precondition: the ring window covers the whole block at fine_end_, so
  // its keys land at ring distance >= 1 from the current bucket.
  const auto b = static_cast<std::size_t>(fine_end_ >> kBlockShift) & (kBlockCount - 1);
  const std::uint64_t bit = std::uint64_t{1} << b;
  if ((blocks_occupied_ & bit) != 0) {
    for (std::uint32_t n = block_head_[b]; n != kNil; n = pool_[n].next) {
      admit_to_ring(pool_[n]);
      --coarse_count_;
    }
    // Splice the whole list onto the free list.
    pool_[block_tail_[b]].next = pool_free_;
    pool_free_ = block_head_[b];
    blocks_occupied_ &= ~bit;
  }
  // The horizon moves with fine_end_: the freed block now stands for the
  // last block below it.
  fine_end_ += kBlockWidth;
  drain_overflow_into_blocks();
}

std::size_t Simulator::next_occupied_after(std::size_t slot) const {
  // Circular search for the first set bit at or after `slot + 1`; the
  // caller guarantees at least one bucket is occupied, and the current
  // slot's own bucket is always empty (its range belongs to the fast
  // lane), so the search terminates within one wrap.
  const std::size_t pos = (slot + 1) & (kBucketCount - 1);
  std::size_t w = pos >> 6;
  std::uint64_t masked = occupied_[w] & (~std::uint64_t{0} << (pos & 63));
  while (masked == 0) {
    w = (w + 1) & (kBucketCount / 64 - 1);
    masked = occupied_[w];
  }
  return (w << 6) + static_cast<std::size_t>(std::countr_zero(masked));
}

bool Simulator::advance_bucket() {
  // Precondition: the fast lane is fully consumed.
  cur_.clear();
  cur_head_ = 0;
  if (ring_count_ == 0) {
    if (coarse_count_ == 0) {
      if (overflow_.empty()) return false;
      // Nothing below the horizon: move the second level up to the block
      // of the earliest heap key and drain everything that now fits.
      fine_end_ = (overflow_.front().at >> kBlockShift) << kBlockShift;
      drain_overflow_into_blocks();
    }
    // Nothing within the ring: re-anchor the window one bucket below the
    // first occupied block and promote the blocks up to and including it
    // (the ones before it are empty). Its keys land at ring distance >= 1,
    // so the normal jump below finds the earliest one.
    const auto b0 = static_cast<std::size_t>(fine_end_ >> kBlockShift) & (kBlockCount - 1);
    const auto skip = std::countr_zero(std::rotr(blocks_occupied_, static_cast<int>(b0)));
    cur_start_ = fine_end_ + static_cast<std::int64_t>(skip) * kBlockWidth - kBucketWidth;
    while (cur_start_ + kWindowSpan - fine_end_ >= kBlockWidth) promote_block();
  }

  // Jump straight to the next occupied bucket. Ring keys precede every
  // second-level and heap key (they are below fine_end_), so the bitmap
  // alone decides where the next event lives.
  const auto slot = static_cast<std::size_t>(cur_start_ >> kBucketShift) & (kBucketCount - 1);
  const std::size_t next = next_occupied_after(slot);
  const auto dist =
      static_cast<std::int64_t>((next - slot - 1) & (kBucketCount - 1)) + 1;
  cur_start_ += dist * kBucketWidth;

  auto& bucket = buckets_[next];
  occupied_[next >> 6] &= ~(std::uint64_t{1} << (next & 63));
  if (bucket.size() == 1) {
    // Dominant case for sparse workloads: skip the swap and sort checks.
    cur_.push_back(bucket.front());
    bucket.clear();
    ring_count_ -= 1;
  } else {
    cur_.swap(bucket);
    ring_count_ -= cur_.size();
    // Events are overwhelmingly scheduled in chronological order, so the
    // bucket usually arrives already sorted; checking first skips the sort
    // for the common case.
    if (!std::is_sorted(cur_.begin(), cur_.end(), KeyBefore{})) {
      std::sort(cur_.begin(), cur_.end(), KeyBefore{});
    }
  }

  // Promote the block the window now covers, if any. The bucket just taken
  // is below fine_end_, so the window reaches less than two blocks past
  // it: at most one promotion, landing at ring distance >= 1.
  if (cur_start_ + kWindowSpan - fine_end_ >= kBlockWidth) promote_block();
  return true;
}

bool Simulator::pop_live(Key& out) {
  if (live_ == 0) return false;
  for (;;) {
    while (cur_head_ == cur_.size()) {
      if (!advance_bucket()) return false;  // unreachable while live_ > 0
    }
    const Key k = cur_[cur_head_++];
    if (k.slot->gen != k.gen) [[unlikely]] {
      // Stale: skipped lazily, unless it is a counted timer's -- that is
      // still an event, one that runs nothing.
      if ((k.gen & kCountedGen) == 0) continue;
      --live_;
      out = Key{k.at, k.seq, &noop_, noop_.gen};
      return true;
    }
    --live_;
    out = k;
    return true;
  }
}

void Simulator::fire(const Key& k) {
  Slot* s = k.slot;
  if (s->persistent) {
    // Disarm before invoking so the callback can re-arm its own timer.
    s->armed = false;
    s->firing = true;
    s->cb();
    s->firing = false;
    if (s->zombie) {  // the callback destroyed its own handle
      s->zombie = false;
      free_slot(s);
    }
  } else {
    // Invoke in place -- slab blocks never move, and the slot is recycled
    // only after the call, so nested schedules cannot clobber it.
    s->cb();
    free_slot(s);
  }
}

bool Simulator::run_next() {
  Key k;  // NOLINT(cppcoreguidelines-pro-type-member-init): filled by pop_live
  if (!pop_live(k)) return false;
  now_ = TimePoint::from_nanos(k.at);
  ++processed_;
  fire(k);
  return true;
}

void Simulator::run_until(TimePoint t) {
  const std::int64_t tn = t.nanos();
  Key k;  // NOLINT(cppcoreguidelines-pro-type-member-init)
  while (pop_live(k)) {
    if (k.at > tn) {
      // Un-pop: the key came off the front of the sorted fast lane.
      --cur_head_;
      ++live_;
      break;
    }
    now_ = TimePoint::from_nanos(k.at);
    ++processed_;
    fire(k);
  }
  if (t > now_) now_ = t;
}

void Simulator::fast_forward(TimePoint t, std::uint64_t n) {
  if (live_ != 0 || t < now_) {
    throw std::logic_error{"Simulator::fast_forward: " + std::to_string(live_) +
                           " events queued, t=" + std::to_string(t.nanos()) +
                           "ns, now=" + std::to_string(now_.nanos()) + "ns"};
  }
  now_ = t;
  processed_ += n;
  resolved_ += n;
}

void Simulator::run_all() {
  while (run_next()) {
  }
}

}  // namespace pathload::sim
