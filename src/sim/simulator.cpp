#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

#include "sim/link.hpp"
#include "sim/traffic.hpp"

namespace pathload::sim {

Simulator::Simulator() {
  cur_.reserve(64);
  pool_.reserve(kPoolReserve);
  entries_.reserve(8);
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

Simulator::Slot* Simulator::alloc_timer_slot(Callback cb) {
  Slot* s = alloc_slot();
  s->cb = std::move(cb);
  s->persistent = true;
  s->armed = false;
  return s;
}

void Simulator::free_slot(Slot* s) {
  s->cb = Callback{};
  ++s->gen;  // invalidates any key still referencing this slot
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
    ++slot->gen;
    slot->armed = false;
    --live_;
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

std::uint32_t Simulator::pool_node(const Key& k) {
  std::uint32_t n = pool_free_;
  if (n != kNil) {
    pool_free_ = pool_[n].next;
    pool_[n] = k;
  } else {
    n = static_cast<std::uint32_t>(pool_.size());
    pool_.push_back(k);
  }
  pool_[n].next = kNil;
  return n;
}

void Simulator::link_into_bucket(std::uint32_t n) {
  const auto slot =
      static_cast<std::size_t>(pool_[n].at >> kBucketShift) & (kBucketCount - 1);
  std::uint64_t& word = occupied_[slot >> 6];
  const std::uint64_t bit = std::uint64_t{1} << (slot & 63);
  if ((word & bit) != 0) {
    pool_[bucket_tail_[slot]].next = n;
  } else {
    bucket_head_[slot] = n;
    word |= bit;
  }
  bucket_tail_[slot] = n;
  ++ring_count_;
}

void Simulator::admit_to_block(const Key& k) {
  const std::uint32_t n = pool_node(k);
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
    // Relink each key into its bucket: no key is copied.
    for (std::uint32_t n = block_head_[b]; n != kNil;) {
      const std::uint32_t next = pool_[n].next;
      pool_[n].next = kNil;
      link_into_bucket(n);
      --coarse_count_;
      n = next;
    }
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

  occupied_[next >> 6] &= ~(std::uint64_t{1} << (next & 63));
  for (std::uint32_t n = bucket_head_[next]; n != kNil; n = pool_[n].next) {
    cur_.push_back(pool_[n]);
  }
  // Splice the whole list onto the free list.
  pool_[bucket_tail_[next]].next = pool_free_;
  pool_free_ = bucket_head_[next];
  ring_count_ -= cur_.size();
  // Events are overwhelmingly scheduled in chronological order, so the
  // bucket usually arrives already sorted; checking first skips the sort
  // for the common case.
  if (cur_.size() > 1 && !std::is_sorted(cur_.begin(), cur_.end(), KeyBefore{})) {
    std::sort(cur_.begin(), cur_.end(), KeyBefore{});
  }

  // Promote the block the window now covers, if any. The bucket just taken
  // is below fine_end_, so the window reaches less than two blocks past
  // it: at most one promotion, landing at ring distance >= 1.
  if (cur_start_ + kWindowSpan - fine_end_ >= kBlockWidth) promote_block();
  return true;
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

inline Simulator::EventKey Simulator::peek_next(LinkEntry*& entry) {
  entry = earliest_entry();
  const EventKey link = entry != nullptr ? entry->next : kNoEvent;
  for (;;) {
    if (cur_head_ < cur_.size()) {
      const Key& k = cur_[cur_head_];
      // A stale key is skipped lazily.
      if (k.slot->gen != k.gen) [[unlikely]] {
        ++cur_head_;
        continue;
      }
      const EventKey key = event_key(TimePoint::from_nanos(k.at), k.seq);
      if (link < key) return link;
      entry = nullptr;
      return key;
    }
    // The fast lane is consumed: every other calendar key lies at or past
    // the next bucket, so a link event before it fires without moving the
    // window.
    if (live_ == 0 || link < event_key(TimePoint::from_nanos(cur_start_ + kBucketWidth), 0)) {
      return link;
    }
    advance_bucket();  // finds a key: live_ > 0
  }
}

void Simulator::fire_calendar(EventKey key) {
  settle(key);
  const Key k = cur_[cur_head_++];
  --live_;
  now_ = TimePoint::from_nanos(k.at);
  ++processed_;
  fire(k);
}

Simulator::EventKey Simulator::fire_next(EventKey limit) {
  LinkEntry* e = nullptr;
  const EventKey key = peek_next(e);
  return key <= limit && fire_at(e, key) ? key : kNoEvent;
}

bool Simulator::fire_at(LinkEntry* e, EventKey key) {
  if (key == kNoEvent) return false;
  if (e != nullptr) {
    fire_entry(*e);
  } else {
    fire_calendar(key);
  }
  return true;
}

bool Simulator::run_next() {
  LinkEntry* e = nullptr;
  const EventKey key = peek_next(e);
  // The earliest event may be a delivery that runs nothing.
  LinkEntry* local = nullptr;
  for (const Registered& r : entries_) {
    const LinkEntry* l = r.entry;
    if (!l->local.empty() && l->local.front() < key &&
        (local == nullptr || l->local.front() < local->local.front())) {
      local = r.entry;
    }
  }
  if (local == nullptr) return fire_at(e, key);
  const EventKey at = local->local.front();
  retire(*local, at + 1);
  now_ = TimePoint::from_nanos(static_cast<std::int64_t>(at >> 64));
  return true;
}

void Simulator::run_until(TimePoint t) {
  const EventKey limit = event_key(t, ~std::uint64_t{0});
  while (now_ < t && run_decoupled(limit)) {
  }
  while (fire_next(limit) != kNoEvent) {
  }
  settle(limit);
  if (t > now_) now_ = t;
}

Simulator::EventKey Simulator::calendar_floor() const {
  if (live_ == 0) return kNoEvent;
  for (std::size_t i = cur_head_; i < cur_.size(); ++i) {
    const Key& k = cur_[i];
    if (k.slot->gen == k.gen) return event_key(TimePoint::from_nanos(k.at), k.seq);
  }
  // The start of the first occupied bucket, block or the heap's top: stale
  // keys there only make the bound lower.
  std::int64_t at = 0;
  if (ring_count_ > 0) {
    const auto slot = static_cast<std::size_t>(cur_start_ >> kBucketShift) & (kBucketCount - 1);
    const std::size_t next = next_occupied_after(slot);
    at = cur_start_ +
         (static_cast<std::int64_t>((next - slot - 1) & (kBucketCount - 1)) + 1) * kBucketWidth;
  } else if (coarse_count_ > 0) {
    const auto b0 = static_cast<std::size_t>(fine_end_ >> kBlockShift) & (kBlockCount - 1);
    at = fine_end_ + static_cast<std::int64_t>(std::countr_zero(
                         std::rotr(blocks_occupied_, static_cast<int>(b0)))) *
                         kBlockWidth;
  } else {
    at = overflow_.front().at;
  }
  return event_key(TimePoint::from_nanos(at), 0);
}

bool Simulator::run_decoupled(EventKey limit) {
  // A chunk ends kDecoupledChunk after the first link event, which bounds
  // the log (and each link's draw count) however long the gap is. With no
  // link event due there is nothing to run alone.
  EventKey first = kNoEvent;
  for (const Registered& r : entries_) first = std::min(first, r.next);
  if (first > limit) return false;
  const std::int64_t end = static_cast<std::int64_t>(first >> 64) + kDecoupledChunk;
  limit = std::min(limit, event_key(TimePoint::from_nanos(end), 0) - 1);
  // Decline unless nothing up to the limit couples the links: no calendar
  // event, no live counted arm, no emission of a source that feeds no link,
  // and no link holding a packet that could reach another link or an
  // observer. Counted timers' stale arms run nothing: settle counts them.
  if (calendar_floor() <= limit) return false;
  for (const Registered& r : entries_) {
    const Link* link = r.entry->link;
    if (link == nullptr ? r.next <= limit : !link->runs_alone()) return false;
  }
  const std::uint64_t before = processed_;
  // Each link restarts the ticket and id counters at the chunk's values,
  // so it draws in the global order restricted to itself and every compare
  // inside it is unchanged.
  chunk_seq_ = seq_;
  chunk_ids_ = packet_ids_;
  log_.clear();
  // One allocation for a chunk of a loaded path, rather than a doubling
  // series in the first chunks.
  if (log_.capacity() == 0) log_.reserve(kLogReserve);
  merged_ = false;
  count_locals_before_ = limit + 1;
  std::uint64_t draws = 0;
  std::uint64_t ids = 0;
  for (const Registered& r : entries_) {
    LinkEntry& e = *r.entry;
    e.log_begin = log_.size();
    seq_ = chunk_seq_;
    packet_ids_ = chunk_ids_;
    if (r.next <= limit) {
      retire(e, limit + 1);  // keeps the local line as short as it was
      while (e.next <= limit) {
        const EventKey key = e.next;
        const auto at = static_cast<std::int64_t>(key >> 64);
        log_.push_back({at, static_cast<std::uint64_t>(key),
                        static_cast<std::uint32_t>(seq_ - chunk_seq_),
                        static_cast<std::uint32_t>(packet_ids_ - chunk_ids_)});
        now_ = TimePoint::from_nanos(at);
        // The delay line is empty and stays so: a service end or an
        // emission.
        if (e.kind == LinkEntry::Kind::kService) {
          e.link->finish_service();
        } else {
          e.link->emit();
        }
      }
    }
    e.log_end = log_.size();
    e.chunk_draws = static_cast<std::uint32_t>(seq_ - chunk_seq_);
    e.chunk_ids = static_cast<std::uint32_t>(packet_ids_ - chunk_ids_);
    draws += e.chunk_draws;
    ids += e.chunk_ids;
  }
  count_locals_before_ = 0;
  processed_ += log_.size();
  link_events_ += log_.size();
  // Map every provisional value still held back to its true one.
  for (const Registered& r : entries_) rank_held(*r.entry);
  seq_ = chunk_seq_ + draws;
  packet_ids_ = chunk_ids_ + ids;
  settle(limit);
  decoupled_events_ += processed_ - before;
  now_ = TimePoint::from_nanos(static_cast<std::int64_t>(limit >> 64));
  return true;
}

void Simulator::rank(const LinkEntry& e, std::uint64_t& value, bool ids, RankRun& run) {
  const std::uint64_t base = ids ? chunk_ids_ : chunk_seq_;
  if (value <= base) return;  // drawn before the gap: already true
  // The value is the link's i-th draw; find the event j that drew it.
  const std::uint64_t i = value - base - 1;
  const auto own = [ids](const LogRecord& r) -> std::uint64_t { return ids ? r.ids : r.draws; };
  const bool ascending = run.event != kNoRun && i >= run.draw;
  std::size_t j = run.event;
  if (ascending) {
    while (j + 1 < e.log_end && own(log_[j + 1]) <= i) ++j;
  } else {
    const auto it = std::upper_bound(
        log_.begin() + static_cast<std::ptrdiff_t>(e.log_begin),
        log_.begin() + static_cast<std::ptrdiff_t>(e.log_end), i,
        [&own](std::uint64_t v, const LogRecord& r) { return v < own(r); });
    j = static_cast<std::size_t>(it - log_.begin()) - 1;
  }
  run = {i, j};
  // Before event j all links drew `drawn` values: this link its own, every
  // other link those of its events before j's time. A position found for a
  // run only moves forward along it.
  std::uint64_t drawn = own(log_[j]);
  if (!merged_) {
    const std::int64_t at = log_[j].at;
    for (const Registered& r : entries_) {
      LinkEntry& o = *r.entry;
      if (&o == &e) continue;
      const auto last = log_.begin() + static_cast<std::ptrdiff_t>(o.log_end);
      auto it = log_.begin() + static_cast<std::ptrdiff_t>(ascending ? o.log_head : o.log_begin);
      if (ascending) {
        while (it != last && it->at < at) ++it;
      } else {
        it = std::lower_bound(it, last, at,
                              [](const LogRecord& rec, std::int64_t t) { return rec.at < t; });
      }
      o.log_head = static_cast<std::size_t>(it - log_.begin());
      if (it == last) {
        drawn += ids ? o.chunk_ids : o.chunk_draws;
      } else if (it->at != at) {
        drawn += own(*it);
      } else {
        // A tie: time alone cannot order the two events. Values ranked so
        // far drew at no tie and are exact; rank this one and the rest by
        // the merge.
        merge_logs();
        break;
      }
    }
  }
  if (merged_) drawn = ids ? log_[j].ticket & 0xFFFFFFFFu : log_[j].ticket >> 32;
  value = base + 1 + drawn + (i - own(log_[j]));
}

void Simulator::merge_logs() {
  // A k-way merge by (time, true key ticket). Every key's ticket was drawn
  // before the gap or by an earlier event of its own link, which the merge
  // has ranked already, so each head's true ticket is known. A ranked
  // event's ticket is no longer read: it becomes what all links drew
  // before the event.
  merged_ = true;
  for (const Registered& r : entries_) r.entry->log_head = r.entry->log_begin;
  std::uint64_t draws = 0;
  std::uint64_t ids = 0;
  for (;;) {
    LinkEntry* best = nullptr;
    EventKey best_key = kNoEvent;
    for (const Registered& r : entries_) {
      LinkEntry& e = *r.entry;
      if (e.log_head == e.log_end) continue;
      const LogRecord& rec = log_[e.log_head];
      std::uint64_t ticket = rec.ticket;
      RankRun run;
      rank(e, ticket, false, run);
      const EventKey key = event_key(TimePoint::from_nanos(rec.at), ticket);
      if (key < best_key) {
        best_key = key;
        best = &e;
      }
    }
    if (best == nullptr) return;
    const std::size_t j = best->log_head++;
    log_[j].ticket = draws << 32 | ids;
    const bool last = j + 1 == best->log_end;
    draws += (last ? best->chunk_draws : log_[j + 1].draws) - log_[j].draws;
    ids += (last ? best->chunk_ids : log_[j + 1].ids) - log_[j].ids;
  }
}

void Simulator::rank_held(LinkEntry& e) {
  if (e.link == nullptr || e.log_begin == e.log_end) return;  // drew nothing
  RankRun run;
  const auto key = [&](EventKey& k) {
    auto ticket = static_cast<std::uint64_t>(k);
    rank(e, ticket, false, run);
    k = (k >> 64 << 64) | ticket;
  };
  // Runs of ascending values rank in one sweep: the local line (its tickets
  // follow launch order but for jitter), and the ids of the packet in
  // service and of the queue. The emission heap is in no such order.
  for (LinkEntry::Emission& em : e.emissions) {
    run = RankRun{};
    key(em.key);
    em.source->next_ticket_ = static_cast<std::uint64_t>(em.key);
  }
  run = RankRun{};
  if (e.service != kNoEvent) key(e.service);
  run = RankRun{};
  for (std::size_t i = 0; i < e.local.size(); ++i) key(e.local[i]);
  run = RankRun{};
  Link& link = *e.link;
  if (link.busy()) rank(e, link.in_service_.id, true, run);
  for (std::size_t i = 0; i < link.queue_.size(); ++i) rank(e, link.queue_[i].id, true, run);
  refresh(e);
}

void Simulator::retire_due(LinkEntry& e, EventKey before) {
  std::size_t n = 0;
  while (!e.local.empty() && e.local.front() < before) {
    e.local.pop_front();
    ++n;
  }
  processed_ += n;
  if (e.counted) {
    count_line(e);
    return;
  }
  link_events_ += n;
  count_pending(e);
}

void Simulator::count_line(LinkEntry& e) {
  const std::size_t pending = (e.kind == LinkEntry::Kind::kTimer ? 1 : 0) + e.local.size();
  entry_live_ += pending - e.pending;
  e.pending = pending;
}

void Simulator::settle(EventKey before) {
  for (const Registered& r : entries_) retire(*r.entry, before);
}

Simulator::LinkEntry* Simulator::earliest_entry() {
  if (rescan_) {
    rescan_ = false;
    std::size_t best = 0;
    for (std::size_t i = 1; i < entries_.size(); ++i) {
      if (entries_[i].next < entries_[best].next) best = i;
    }
    earliest_ = entries_.empty() || entries_[best].next == kNoEvent ? nullptr
                                                                    : entries_[best].entry;
  }
  return earliest_;
}

void Simulator::fire_entry(LinkEntry& e) {
  const EventKey key = e.next;
  now_ = TimePoint::from_nanos(static_cast<std::int64_t>(key >> 64));
  ++processed_;
  if (e.kind == LinkEntry::Kind::kTimer) {
    fire_timer(static_cast<TimerEntry&>(e), key);
    return;
  }
  ++link_events_;
  switch (e.kind) {
    case LinkEntry::Kind::kService:
      retire(e, key);
      e.link->finish_service();
      break;
    case LinkEntry::Kind::kDelivery:
      settle(key);  // the receiver may observe the count
      e.link->deliver_head();
      break;
    case LinkEntry::Kind::kEmission:
      if (e.link != nullptr) {
        retire(e, key);
        e.link->emit();
      } else {
        settle(key);
        e.emissions.front().source->emit_to_target();
      }
      break;
    case LinkEntry::Kind::kNone:
    case LinkEntry::Kind::kTimer:
      break;
  }
}

void Simulator::register_entry(LinkEntry& e) {
  e.index = entries_.size();
  entries_.push_back({e.next, &e});
}

void Simulator::unregister_entry(LinkEntry& e) {
  entries_[e.index] = entries_.back();
  entries_[e.index].entry->index = e.index;
  entries_.pop_back();
  entry_live_ -= e.pending;
  rescan_ = true;
}

Simulator::LinkEntry& Simulator::loose_entry() {
  if (loose_ == nullptr) {
    loose_ = std::make_unique<LinkEntry>();
    register_entry(*loose_);
  }
  return *loose_;
}

Simulator::LinkEntry& Simulator::orphan_entry() {
  if (orphans_ == nullptr) {
    orphans_ = std::make_unique<LinkEntry>();
    orphans_->counted = true;
    register_entry(*orphans_);
  }
  return *orphans_;
}

Simulator::TimerEntry* Simulator::alloc_timer_entry(Callback cb) {
  TimerEntry* e = nullptr;
  if (!free_timers_.empty()) {
    e = free_timers_.back();
    free_timers_.pop_back();
  } else {
    timer_entries_.push_back(std::make_unique<TimerEntry>());
    e = timer_entries_.back().get();
    e->counted = true;
  }
  e->cb = std::move(cb);
  register_entry(*e);
  return e;
}

void Simulator::arm_timer(TimerEntry& e, TimePoint t) {
  if (t < now_) throw_past(t, now_);
  arm_validated(e, t, ++seq_);
}

void Simulator::arm_timer(TimerEntry& e, TimePoint t, std::uint64_t ticket) {
  if (t < now_) throw_past(t, now_);
  arm_validated(e, t, ticket);
}

void Simulator::arm_validated(TimerEntry& e, TimePoint t, std::uint64_t ticket) {
  // The replaced arm stays an event, one that runs nothing.
  if (e.kind == LinkEntry::Kind::kTimer) e.add_local(e.next);
  e.next = event_key(t, ticket);
  e.kind = LinkEntry::Kind::kTimer;
  entries_[e.index].next = e.next;
  rescan_ = true;
  count_line(e);
}

void Simulator::disarm_timer(TimerEntry& e) {
  if (e.kind != LinkEntry::Kind::kTimer) return;
  e.add_local(e.next);
  e.next = kNoEvent;
  e.kind = LinkEntry::Kind::kNone;
  entries_[e.index].next = kNoEvent;
  rescan_ = true;
}

void Simulator::release_timer(TimerEntry& e) {
  disarm_timer(e);
  if (!e.local.empty()) {
    // Merge the timer's line into the orphans' by (time, ticket).
    RingBuffer<EventKey>& into = orphan_entry().local;
    const RingBuffer<EventKey>& from = e.local;
    if (into.empty()) {
      std::swap(into, e.local);  // the timer keeps the orphans' empty array
    } else if (into[into.size() - 1] < from.front()) {
      for (std::size_t i = 0; i < from.size(); ++i) into.push_back(from[i]);
    } else {
      RingBuffer<EventKey> merged;
      std::size_t i = 0;
      std::size_t j = 0;
      while (i < into.size() || j < from.size()) {
        const bool mine = j < from.size() && (i == into.size() || from[j] < into[i]);
        merged.push_back(mine ? from[j++] : into[i++]);
      }
      into = std::move(merged);
    }
    e.local.clear();
    count_line(*orphans_);
    count_line(e);
  }
  unregister_entry(e);
  if (e.firing) {
    // Released from inside its own callback, whose closure lives in this
    // entry: recycle it once the callback returns (fire_timer).
    e.zombie = true;
    return;
  }
  recycle(e);
}

void Simulator::recycle(TimerEntry& e) {
  e.cb = Callback{};
  e.firing = false;
  e.zombie = false;
  free_timers_.push_back(&e);
}

void Simulator::fire_timer(TimerEntry& e, EventKey key) {
  settle(key);  // the callback may observe the count
  e.next = kNoEvent;
  e.kind = LinkEntry::Kind::kNone;
  entries_[e.index].next = kNoEvent;
  rescan_ = true;
  count_line(e);
  // Disarmed before invoking, so the callback can re-arm its own timer.
  e.firing = true;
  e.cb();
  e.firing = false;
  if (e.zombie) recycle(e);
}

namespace {

using Emission = Simulator::LinkEntry::Emission;

void sift_down(std::vector<Emission>& h, std::size_t i) {
  const std::size_t n = h.size();
  const Emission e = h[i];
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && h[child + 1].key < h[child].key) ++child;
    if (!(h[child].key < e.key)) break;
    h[i] = h[child];
    i = child;
  }
  h[i] = e;
}

void sift_up(std::vector<Emission>& h, std::size_t i) {
  const Emission e = h[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!(e.key < h[parent].key)) break;
    h[i] = h[parent];
    i = parent;
  }
  h[i] = e;
}

}  // namespace

void Simulator::LinkEntry::push(Emission e) {
  emissions.push_back(e);
  sift_up(emissions, emissions.size() - 1);
}

void Simulator::LinkEntry::remove(const CrossTrafficSource* s) {
  std::size_t i = 0;
  while (emissions[i].source != s) ++i;
  emissions[i] = emissions.back();
  emissions.pop_back();
  if (i < emissions.size()) {
    sift_up(emissions, i);
    sift_down(emissions, i);
  }
}

void Simulator::throw_fast_forward(TimePoint t) const {
  throw std::logic_error{"Simulator::fast_forward: " + std::to_string(pending_events()) +
                         " events queued, t=" + std::to_string(t.nanos()) +
                         "ns, now=" + std::to_string(now_.nanos()) + "ns"};
}

std::vector<Simulator::EventKey> Simulator::pending_keys() const {
  std::vector<EventKey> keys;
  const auto put = [&keys](const Key& k) {
    if (k.slot->gen == k.gen) keys.push_back(event_key(TimePoint::from_nanos(k.at), k.seq));
  };
  const auto put_list = [&](std::uint32_t head) {
    for (std::uint32_t n = head; n != kNil; n = pool_[n].next) put(pool_[n]);
  };
  for (std::size_t i = cur_head_; i < cur_.size(); ++i) put(cur_[i]);
  for (std::size_t b = 0; b < kBucketCount; ++b) {
    if ((occupied_[b >> 6] >> (b & 63) & 1) != 0) put_list(bucket_head_[b]);
  }
  for (std::size_t b = 0; b < kBlockCount; ++b) {
    if ((blocks_occupied_ >> b & 1) != 0) put_list(block_head_[b]);
  }
  for (const Key& k : overflow_) put(k);
  for (const Registered& r : entries_) {
    const LinkEntry& e = *r.entry;
    for (const LinkEntry::Emission& em : e.emissions) keys.push_back(em.key);
    if (e.service != kNoEvent) keys.push_back(e.service);
    if (e.kind == LinkEntry::Kind::kTimer) keys.push_back(e.next);
    for (std::size_t i = 0; i < e.local.size(); ++i) keys.push_back(e.local[i]);
    if (e.link == nullptr) continue;
    const auto& line = e.link->delay_line_;
    for (std::size_t i = 0; i < line.size(); ++i) {
      keys.push_back(event_key(TimePoint::from_nanos(line[i].at), line[i].ticket));
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

void Simulator::run_all() {
  while (run_next()) {
  }
}

}  // namespace pathload::sim
