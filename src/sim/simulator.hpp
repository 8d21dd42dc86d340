#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "util/ring_buffer.hpp"
#include "util/small_function.hpp"
#include "util/time.hpp"

namespace pathload::sim {

class CrossTrafficSource;
class Link;

/// Discrete-event simulation engine.
///
/// This is the substrate standing in for the paper's NS-2 simulations
/// (Section V-A): links, traffic sources, and protocol agents schedule
/// callbacks on a single virtual clock with nanosecond resolution.
///
/// Events with equal timestamps fire in scheduling order (FIFO tie-break),
/// which makes packet arrivals deterministic and runs reproducible for a
/// fixed RNG seed.
///
/// Internally the engine is a two-level calendar queue rather than a binary
/// heap:
///
///  - Callbacks live in a slab of reusable slots; the queue itself orders
///    only 32-byte keys (timestamp, FIFO ticket, slot pointer), so no
///    callable is ever moved by a heap sift or a bucket sort.
///  - A near-future fast lane holds the current 131 us bucket as a run
///    sorted by (timestamp, ticket) and consumed front-to-back; inserting
///    into it is a sorted insert, which for the packet workloads here is
///    almost always a plain append.
///  - The ring: 256 buckets of 131 us (a ~33.6 ms window). Keys are
///    appended unsorted to their bucket and sorted only when it becomes
///    current.
///  - The second level: 64 blocks of 2^24 ns (~16.8 ms, half the ring
///    window) out to a horizon of ~1.07 s. Keys are appended unsorted to
///    their block in O(1); when the ring window first covers a whole
///    block, the block moves into the ring as one unit.
///  - Only keys past the horizon go to a min-heap, and drain into the
///    second level as the horizon moves forward.
///
/// The lanes partition time: with `fine_end_` the ring window's end
/// aligned down to a block,
///
///     fast lane < cur_start_ + 131 us <= ring < fine_end_
///                                     <= second level < horizon() <= heap
///
/// so the earliest key is always in the first non-empty lane, and the
/// ring's "jump to the next occupied bucket" step never skips a key.
///
/// A key whose generation no longer matches its slot's is stale (its timer
/// was re-armed, cancelled or released) and is skipped without counting.
///
/// Every lane pops in the total order by (timestamp, ticket), so the event
/// sequence is bit-identical to the previous heap scheduler. Degenerate
/// workloads degrade gracefully: all-near events turn the fast lane into a
/// sorted vector, events all past the horizon turn the overflow heap into
/// the old binary heap -- but of trivially movable keys instead of fat
/// closures.
///
/// The calendar holds one-shot closures and plain timers (make_timer).
/// Links, the CrossTrafficSources feeding them and counted timers are
/// scheduled outside it, in entries (LinkEntry): each link registers one
/// when it is built, holding its sources' emissions, its service
/// completion and its delay line's front, and each counted timer holds one
/// for its live arm, with its superseded arms in a line of events that run
/// nothing. run_next and run_until fire whichever comes first by (time,
/// ticket), the calendar's top key or the earliest entry, so the event
/// sequence is the one a timer per link event and a key per counted arm
/// would give (docs/ENGINE.md, "Link entries").
///
/// Between probe streams nothing couples the links of a path: each hop's
/// cross traffic leaves after one hop. When no calendar key, no live
/// counted arm, no source feeding no link and no transit packet is due,
/// run_until runs each link alone to the limit on provisional tickets and
/// packet ids, then ranks them back into the global order (docs/ENGINE.md,
/// "Decoupled links"), so every counter and the later event sequence are
/// the merged loop's. Counted timers' stale arms due meanwhile run nothing
/// and are counted.
class Simulator {
 public:
  // 16 B of capture: the largest in src/ is an RttProber reply, its
  // `this` and a sequence number. Packets in flight wait in delay lines
  // (links, TCP ACKs) and probe accounting points in SimProbeChannel's
  // keyed batch, not in closures, so a slot is 64 B. SmallFunction rejects
  // larger captures at compile time rather than silently allocating.
  using Callback = SmallFunction<16>;

  class TimerHandle;
  class CountedTimer;
  struct LinkEntry;
  struct TimerEntry;

  /// An event's (time, ticket) as one integer, time in the high half, so
  /// integer order is the queue's order.
  using EventKey = unsigned __int128;
  static constexpr EventKey kNoEvent = ~EventKey{0};
  static EventKey event_key(TimePoint at, std::uint64_t ticket) {
    return (static_cast<EventKey>(static_cast<std::uint64_t>(at.nanos())) << 64) | ticket;
  }

  Simulator();
  ~Simulator();

  /// Current virtual time.
  TimePoint now() const { return now_; }

  /// Schedule `cb` to run at absolute time `t` (must not be in the past).
  void schedule_at(TimePoint t, Callback cb);

  /// Schedule `cb` to run `d` from now.
  void schedule_in(Duration d, Callback cb) { schedule_at(now_ + d, std::move(cb)); }

  /// Schedule `cb` at the current virtual time, after everything already
  /// scheduled for this instant (normal FIFO tie-break). Fast path: "now"
  /// can never be in the past, so the validity check is skipped.
  void schedule_now(Callback cb);

  /// Create a reusable timer owning `cb`. Periodic sources keep one timer
  /// and re-arm it from inside its own callback, so rescheduling moves no
  /// callable and allocates nothing.
  ///
  /// Lifetime: the handle borrows this Simulator's slab, so every handle
  /// must be destroyed before the Simulator (declare the Simulator first,
  /// as scenario::ScenarioInstance does). A handle outliving its Simulator
  /// is use-after-free.
  TimerHandle make_timer(Callback cb);

  /// Create a counted timer: a timer whose every arm is an event. Re-arming
  /// it, cancelling it, or releasing its handle leaves the pending
  /// occurrence behind, where it still falls due at its (time, ticket),
  /// advances the clock and counts in events_processed() and
  /// pending_events(), but runs nothing. This is exactly what one
  /// generation-checked one-shot event per arm would do, without a closure
  /// or a calendar key per arm: the timer is an entry (LinkEntry) whose key
  /// is the live arm, and the superseded arms wait in its local line, which
  /// run_until counts in bulk. A released timer hands its leftovers to a
  /// line the simulator keeps. TCP's RTO timer and ACK delay line use it,
  /// so that their event counts stay those of one event per arm and per
  /// ACK, also when a connection is torn down mid-run. Lifetime as for
  /// make_timer.
  CountedTimer make_counted_timer(Callback cb);

  /// Reserve `n` consecutive FIFO tie-break tickets, returning the first.
  ///
  /// A sender that knows its whole transmission schedule upfront (e.g. the
  /// K packets of a SLoPS stream) reserves its tickets in one call and
  /// attaches them to later timer re-arms: equal-timestamp ordering against
  /// other events is then exactly as if all occurrences had been scheduled
  /// upfront, which keeps runs bit-identical to the pre-timer engine.
  std::uint64_t reserve_fifo_tickets(std::uint32_t n) {
    seq_ += n;
    return seq_ - n + 1;
  }

  /// Run a single event; returns false if the queue is empty.
  bool run_next();

  /// Process all events with timestamp <= t, then advance the clock to t.
  /// With an empty queue this still advances the clock. Where nothing
  /// couples the links, they run one at a time (decoupled_events()).
  void run_until(TimePoint t);

  /// Fire events in run_until's order while `more()` holds before each
  /// one and an event is left, counting hop-local deliveries in bulk; then
  /// count the deliveries before the last event fired. Every counter, the
  /// clock and every observer `more` reads end as after
  /// `while (more() && run_next()) {}`, provided `more` reads neither the
  /// event counters nor the clock.
  template <typename More>
  void run_while(More more) {
    EventKey last = 0;
    while (more()) {
      const EventKey key = fire_next(kNoEvent);
      if (key == kNoEvent) break;
      last = key;
    }
    settle(last);
  }

  /// Process all events in the next `d` of virtual time.
  void run_for(Duration d) { run_until(now_ + d); }

  /// Run until the event queue is fully drained.
  void run_all();

  /// Account `n` events that a caller resolved in closed form instead of
  /// scheduling them, and move the clock to `t`, the last of them. Only
  /// valid on a quiescent queue: throws std::logic_error if any occurrence
  /// that would count as an event is queued (pending_events() != 0,
  /// counted timers' stale arms and link entries included), or if `t` is
  /// in the past. The caller reserves the FIFO tickets the replaced events
  /// would have taken (reserve_fifo_tickets), so later tie-breaks are
  /// unchanged.
  void fast_forward(TimePoint t, std::uint64_t n) {
    if (pending_events() != 0 || t < now_) [[unlikely]] throw_fast_forward(t);
    now_ = t;
    processed_ += n;
    resolved_ += n;
  }

  /// Events fired, plus events resolved in closed form (fast_forward),
  /// which count what the path their caller replaced would have fired.
  std::uint64_t events_processed() const { return processed_; }
  /// The closed-form share of events_processed(). Exact and a pure observer.
  std::uint64_t events_resolved() const { return resolved_; }
  /// Scheduled occurrences that will count as events: the calendar's live
  /// keys and every entry's (a counted timer's stale arms included).
  std::size_t pending_events() const { return live_ + entry_live_; }

  /// The share of events_processed() fired from link entries: source
  /// emissions, service completions and deliveries. Exact and a pure
  /// observer.
  std::uint64_t link_events() const { return link_events_; }

  /// The share of events_processed() that run_until accounted on its
  /// decoupled path: link events run one link at a time, and the hop-local
  /// deliveries and counted timers' stale arms it counted. Exact and a
  /// pure observer.
  std::uint64_t decoupled_events() const { return decoupled_events_; }

  /// Every pending occurrence that will count as an event, as (time,
  /// ticket) keys in ascending order: the calendar's live keys, each
  /// source's emission, each link's service end and every packet in its
  /// delay line and its local line, and each counted timer's live and stale
  /// arms. A pure observer for tests.
  std::vector<EventKey> pending_keys() const;

  /// Keys scheduled into each lane of the calendar queue, counted where
  /// each key first lands (a later move from heap to second level, or from
  /// second level to ring, is not counted again). Entries are not lanes:
  /// link events and counted arms never enter the calendar. Exact and a
  /// pure observer.
  struct LaneInserts {
    std::uint64_t fast{0};
    std::uint64_t ring{0};
    std::uint64_t coarse{0};  ///< the second level
    std::uint64_t heap{0};
  };
  const LaneInserts& lane_inserts() const { return lane_inserts_; }

  /// Globally unique packet id generator for this simulation.
  std::uint64_t next_packet_id() { return ++packet_ids_; }

  /// Globally unique flow id generator (flow 0 is reserved for cross traffic).
  std::uint32_t next_flow_id() { return ++flow_ids_; }

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

 private:
  static constexpr int kBucketShift = 17;  // 2^17 ns = 131.072 us per bucket
  static constexpr std::int64_t kBucketWidth = std::int64_t{1} << kBucketShift;
  static constexpr std::size_t kBucketCount = 256;
  static constexpr std::int64_t kWindowSpan =  // ring window, ~33.6 ms
      static_cast<std::int64_t>(kBucketCount) * kBucketWidth;
  static constexpr int kBlockShift = 24;  // 2^24 ns = 16.8 ms per block
  static constexpr std::int64_t kBlockWidth = std::int64_t{1} << kBlockShift;
  static constexpr std::size_t kBlockCount = 64;
  static constexpr std::int64_t kHorizonSpan =  // second level, ~1.07 s
      static_cast<std::int64_t>(kBlockCount) * kBlockWidth;
  static constexpr std::size_t kSlabChunk = 256;  // slots per slab block
  static constexpr std::size_t kPoolReserve = 256;  // keys of ring and second level
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};  // end of a pool list
  // The decoupled path runs a gap ~134 ms at a time (see run_decoupled).
  static constexpr std::int64_t kDecoupledChunk = std::int64_t{1} << 27;
  static constexpr std::size_t kLogReserve = 4096;  // events of one chunk

  struct Slot {
    Callback cb;
    Slot* next_free{nullptr};
    std::uint32_t gen{0};  // bumped on disarm and free: older keys are stale
    bool persistent{false};  // timer slot: survives firing
    bool armed{false};       // timer slot: has a live key in the queue
    bool firing{false};      // timer slot: its callback is on the stack
    bool zombie{false};      // released mid-fire: recycle after cb returns
  };
  static_assert(sizeof(Slot) == 64, "a slab slot fills one cache line");

  /// What the queue actually orders: trivially copyable, 32 bytes. The
  /// slot pointer is stable for the life of the occurrence (slab blocks
  /// never move), so firing needs no index arithmetic.
  struct Key {
    std::int64_t at;    // absolute ns
    std::uint64_t seq;  // FIFO tie-break ticket
    Slot* slot;
    std::uint32_t gen;  // matches slot->gen, else the key is stale
    // Ring and second level: pool index of the next key in the same
    // bucket or block. Fills the struct's padding, so keys stay 32 bytes.
    std::uint32_t next{0};
  };
  struct KeyBefore {
    bool operator()(const Key& a, const Key& b) const {
      return a.at < b.at || (a.at == b.at && a.seq < b.seq);
    }
  };
  struct KeyLater {  // for the overflow min-heap
    bool operator()(const Key& a, const Key& b) const {
      return a.at > b.at || (a.at == b.at && a.seq > b.seq);
    }
  };

  Slot* alloc_slot();
  void free_slot(Slot* s);
  Slot* alloc_timer_slot(Callback cb);
  std::int64_t horizon() const { return fine_end_ + kHorizonSpan; }
  bool queue_empty() const {
    return cur_head_ == cur_.size() && ring_count_ == 0 && coarse_count_ == 0 &&
           overflow_.empty();
  }
  void insert(Key k);
  std::uint32_t pool_node(const Key& k);
  void link_into_bucket(std::uint32_t n);
  void admit_to_ring(const Key& k) { link_into_bucket(pool_node(k)); }
  void admit_to_block(const Key& k);
  void drain_overflow_into_blocks();
  void promote_block();
  // Out of line: it runs once per bucket, and inlined it crowds the event
  // handlers out of the run loops.
  [[gnu::noinline]] bool advance_bucket();
  void fire(const Key& k);
  /// The earliest event's key (kNoEvent: none), and its entry (null: the
  /// calendar's top key).
  [[gnu::always_inline]] inline EventKey peek_next(LinkEntry*& entry);
  void fire_calendar(EventKey key);
  /// Fire the earliest event if its key is <= limit; its key, or kNoEvent
  /// if none fired.
  EventKey fire_next(EventKey limit);
  /// Fire the event peek_next found; false if there is none.
  bool fire_at(LinkEntry* e, EventKey key);

  // Entries: the calendar's peer in run_next and run_until.
  void register_entry(LinkEntry& e);
  void unregister_entry(LinkEntry& e);
  // Inlined into every link event: each is a handful of compares.
  [[gnu::always_inline]] inline void refresh(LinkEntry& e);
  [[gnu::always_inline]] inline void count_pending(LinkEntry& e);
  /// A counted line's pending events: its live arm and each stale one.
  void count_line(LinkEntry& e);
  LinkEntry* earliest_entry();
  void fire_entry(LinkEntry& e);
  /// Count the entry's local deliveries before `before` as fired events.
  [[gnu::always_inline]] inline void retire(LinkEntry& e, EventKey before);
  void retire_due(LinkEntry& e, EventKey before);
  void settle(EventKey before);
  LinkEntry& loose_entry();
  /// The line that keeps released counted timers' leftovers.
  LinkEntry& orphan_entry();

  // The decoupled path of run_until (docs/ENGINE.md, "Decoupled links").
  struct LogRecord {  // one event of a link run alone
    std::int64_t at;
    // The ticket of the event's key, provisional if drawn in the chunk.
    // Once merge_logs has ranked the event: the tickets (high half) and
    // packet ids (low half) that all links drew before it in the chunk.
    std::uint64_t ticket;
    std::uint32_t draws;  // the link's tickets drawn in the chunk before it
    std::uint32_t ids;    // the link's packet ids drawn in the chunk before it
  };
  /// A run of ascending values being ranked: the last one's draw index
  /// and drawing event (kNoRun: none yet). Along a run the drawing event
  /// and every other entry's position in the log (LinkEntry::log_head)
  /// only move forward, so a run costs one sweep.
  static constexpr std::size_t kNoRun = ~std::size_t{0};
  struct RankRun {
    std::uint64_t draw{0};
    std::size_t event{kNoRun};
  };
  /// The earliest calendar key, or a lower bound of it; kNoEvent if none.
  EventKey calendar_floor() const;
  /// Run every link alone up to `limit`, or through one chunk of it, and
  /// rank what they drew back into the global order; false, with nothing
  /// run, where that is not exact.
  bool run_decoupled(EventKey limit);
  /// Rewrite a ticket (ids: packet id) that `e` holds, next in `run`, to
  /// its true value: by time, or by the merge once a tie needed it.
  void rank(const LinkEntry& e, std::uint64_t& value, bool ids, RankRun& run);
  /// Rank every event of the log by (time, true key ticket).
  void merge_logs();
  /// Rewrite every ticket and packet id that `e` and its link hold to its
  /// true value.
  void rank_held(LinkEntry& e);
  void count_local() {
    ++processed_;
    ++link_events_;
  }
  friend class Link;
  friend class CrossTrafficSource;

  // TimerHandle backdoor.
  void arm_timer(Slot* slot, TimePoint t);
  void arm_timer(Slot* slot, TimePoint t, std::uint64_t ticket);
  void arm_validated(Slot* slot, TimePoint t, std::uint64_t ticket);
  void disarm_timer(Slot* slot);
  void release_timer(Slot* slot);
  friend class TimerHandle;

  // CountedTimer backdoor: the same operations on a timer entry.
  TimerEntry* alloc_timer_entry(Callback cb);
  void arm_timer(TimerEntry& e, TimePoint t);
  void arm_timer(TimerEntry& e, TimePoint t, std::uint64_t ticket);
  void arm_validated(TimerEntry& e, TimePoint t, std::uint64_t ticket);
  void disarm_timer(TimerEntry& e);
  void release_timer(TimerEntry& e);
  void fire_timer(TimerEntry& e, EventKey key);
  void recycle(TimerEntry& e);
  friend class CountedTimer;

  [[noreturn]] static void throw_past(TimePoint t, TimePoint now);
  [[noreturn]] void throw_fast_forward(TimePoint t) const;

  std::vector<std::unique_ptr<Slot[]>> slab_;
  std::size_t slab_used_{0};  // slots handed out from the newest block
  std::size_t slab_cap_{0};   // size of the newest block
  Slot* free_head_{nullptr};

  std::vector<Key> cur_;  // sorted near-future fast lane
  std::size_t cur_head_{0};
  std::int64_t cur_start_{0};  // bucket-aligned start of the fast lane
  // Ring buckets: like the second level's blocks, singly linked lists in
  // insertion order through pool_, valid where occupied_ has their bit.
  std::uint32_t bucket_head_[kBucketCount]{};
  std::uint32_t bucket_tail_[kBucketCount]{};
  std::size_t ring_count_{0};  // keys currently in ring buckets
  // Occupancy bitmap over the ring: advancing the window is a couple of
  // countr_zero jumps instead of a linear scan over empty buckets.
  std::uint64_t occupied_[kBucketCount / 64]{};
  // Second level: each block is a singly linked list, in insertion order,
  // threaded through the pool of keys it shares with the ring (Key::next).
  // One vector, reserved when the Simulator is built, not one per bucket
  // or block, keeps a short-lived Simulator's allocations and memory at
  // what the old single heap cost.
  std::int64_t fine_end_{kWindowSpan};  // end of the ring's key range
  std::vector<Key> pool_;
  std::uint32_t pool_free_{kNil};  // free list of pool_ entries
  std::uint32_t block_head_[kBlockCount]{};  // valid where occupied
  std::uint32_t block_tail_[kBlockCount]{};
  std::uint64_t blocks_occupied_{0};
  std::size_t coarse_count_{0};  // keys currently in blocks
  std::vector<Key> overflow_;  // min-heap of keys past the horizon
  LaneInserts lane_inserts_;

  std::size_t next_occupied_after(std::size_t slot) const;

  TimePoint now_{TimePoint::origin()};
  std::uint64_t seq_{0};
  std::uint64_t processed_{0};
  std::size_t live_{0};
  std::uint64_t packet_ids_{0};
  std::uint32_t flow_ids_{0};
  std::uint64_t resolved_{0};  // cold: kept behind the per-event counters

  // Every registered entry, with a copy of its next key: the scan for the
  // earliest reads one array.
  struct Registered {
    EventKey next;
    LinkEntry* entry;
  };
  std::vector<Registered> entries_;
  // The entry holding the earliest link event (null: none pending), valid
  // while rescan_ is false; refresh sets it.
  LinkEntry* earliest_{nullptr};
  bool rescan_{false};
  std::size_t entry_live_{0};  // entries' pending events
  std::uint64_t link_events_{0};
  std::uint64_t decoupled_events_{0};
  // While links run alone: a hop-local delivery launched before this key is
  // counted at once, not stored (nothing can observe it before the limit).
  EventKey count_locals_before_{0};
  // The chunk's first ticket and packet id, less one, while links run
  // alone.
  std::uint64_t chunk_seq_{0};
  std::uint64_t chunk_ids_{0};
  bool merged_{false};  // merge_logs ranked the current log
  // Every link's events of the current chunk, one link after another.
  // Reused from chunk to chunk: reserved once, it allocates nothing more
  // unless a chunk outgrows it.
  std::vector<LogRecord> log_;
  // Sources built on a handler that is not a Link share this entry.
  std::unique_ptr<LinkEntry> loose_;
  // Every counted timer's entry, and those released and free for reuse.
  std::vector<std::unique_ptr<TimerEntry>> timer_entries_;
  std::vector<TimerEntry*> free_timers_;
  // Released counted timers' stale arms, until each falls due.
  std::unique_ptr<LinkEntry> orphans_;
};

/// One link's pending events, scheduled outside the calendar queue: the
/// emissions of the renewal sources that feed the link, as a min-heap, the
/// end of the packet it is serializing and its delay line's front. Each
/// key carries the ticket reserved when the event became pending, the
/// point where the timer it replaces took its ticket. Link and
/// CrossTrafficSource edit the keys and then call Simulator::refresh.
///
/// Deliveries of hop-local packets to a receiver that drops them (a
/// Path's junction) run nothing: they wait in `local`, outside `next`.
/// run_next fires one when it is the earliest event; run_until counts
/// each one that precedes the event it fires before anything that can
/// observe the count runs (a calendar event, a delivery handed on, a
/// source feeding no link, a counted timer's callback), and the rest of
/// the link's own before its other events.
///
/// A counted timer's entry (TimerEntry) is a line of the same kind: its
/// live arm is `next` (Kind::kTimer), and each superseded or cancelled arm
/// waits in `local` as an event that runs nothing. So does the line of
/// released timers' leftovers. On such a `counted` line each key is one
/// pending event; a link's delay line and local line are one together.
struct Simulator::LinkEntry {
  struct Emission {
    EventKey key;
    CrossTrafficSource* source;
  };

  /// Add `e` to the heap.
  void push(Emission e);
  /// Remove `s`'s emission from the heap (it must be there).
  void remove(const CrossTrafficSource* s);
  /// Restore the heap after the top's key grew.
  void sift_top() {
    const std::size_t n = emissions.size();
    const Emission top = emissions[0];
    std::size_t i = 0;
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && emissions[child + 1].key < emissions[child].key) ++child;
      if (!(emissions[child].key < top.key)) break;
      emissions[i] = emissions[child];
      i = child;
    }
    emissions[i] = top;
  }

  /// Which of the entry's events `next` is.
  enum class Kind : std::uint8_t { kNone, kService, kDelivery, kEmission, kTimer };

  /// Insert `key` into `local` in order. Keys arrive nearly in order (a
  /// constant delay, or a timer re-armed a timeout out), so this is almost
  /// always an append; but a timeout that shrinks after a backoff puts
  /// each new arm before hundreds of older ones, so the place is found by
  /// bisection and the keys behind it move in blocks.
  void add_local(EventKey key) {
    std::size_t hi = local.size();
    if (hi == 0 || !(key < local[hi - 1])) {
      local.push_back(key);
      return;
    }
    std::size_t lo = 0;
    --hi;  // local[hi] > key
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (key < local[mid]) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    local.insert(lo, key);
  }

  EventKey next{kNoEvent};  // the earliest of the three below
  EventKey service{kNoEvent};
  EventKey delivery{kNoEvent};
  std::vector<Emission> emissions;
  RingBuffer<EventKey> local;  // ascending
  Link* link{nullptr};  // null: the sources that feed no link, or a timer
  std::size_t pending{0};  // events counted in entry_live_
  std::size_t index{0};    // in Simulator::entries_
  Kind kind{Kind::kNone};
  bool counted{false};  // a counted line: each key in `local` is an event
  // The decoupled path's current chunk: the link's events in the log,
  // [log_begin, log_end), the merge's position in them, and the tickets
  // and packet ids the link drew.
  std::size_t log_begin{0};
  std::size_t log_end{0};
  std::size_t log_head{0};
  std::uint32_t chunk_draws{0};
  std::uint32_t chunk_ids{0};
};

/// A counted timer's entry: the callback its live arm runs.
struct Simulator::TimerEntry : LinkEntry {
  Callback cb;
  bool firing{false};  // its callback is on the stack
  bool zombie{false};  // released mid-fire: recycle after cb returns
};

inline void Simulator::count_pending(LinkEntry& e) {
  // A delay line is one pending event however many packets it holds, as
  // the one timer armed for its front was.
  const std::size_t pending =
      e.emissions.size() + (e.service != kNoEvent ? 1 : 0) +
      (e.delivery != kNoEvent || !e.local.empty() ? 1 : 0);
  entry_live_ += pending - e.pending;
  e.pending = pending;
}

inline void Simulator::retire(LinkEntry& e, EventKey before) {
  if (!e.local.empty() && e.local.front() < before) retire_due(e, before);
}

inline void Simulator::refresh(LinkEntry& e) {
  EventKey n = e.service;
  LinkEntry::Kind kind = n != kNoEvent ? LinkEntry::Kind::kService : LinkEntry::Kind::kNone;
  if (e.delivery < n) {
    n = e.delivery;
    kind = LinkEntry::Kind::kDelivery;
  }
  if (!e.emissions.empty() && e.emissions.front().key < n) {
    n = e.emissions.front().key;
    kind = LinkEntry::Kind::kEmission;
  }
  count_pending(e);
  e.next = n;
  e.kind = kind;
  entries_[e.index].next = n;
  rescan_ = true;
}

/// A re-armable handle to one scheduled occurrence of a persistent callback.
///
/// At most one occurrence is pending per timer: arming an armed timer
/// replaces the pending occurrence (reschedule-in-place); `cancel` drops it.
/// The callback stays in its slab slot for the life of the handle, so
/// periodic sources pay zero allocation and zero callable moves per period.
class Simulator::TimerHandle {
 public:
  TimerHandle() = default;
  ~TimerHandle() { release(); }

  TimerHandle(TimerHandle&& o) noexcept : sim_{o.sim_}, slot_{o.slot_} {
    o.sim_ = nullptr;
    o.slot_ = nullptr;
  }
  TimerHandle& operator=(TimerHandle&& o) noexcept {
    if (this != &o) {
      release();
      sim_ = o.sim_;
      slot_ = o.slot_;
      o.sim_ = nullptr;
      o.slot_ = nullptr;
    }
    return *this;
  }
  TimerHandle(const TimerHandle&) = delete;
  TimerHandle& operator=(const TimerHandle&) = delete;

  /// Arm (or re-arm) the timer for absolute time `t` (must not be in the past).
  void schedule_at(TimePoint t) {
    require_bound();
    sim_->arm_timer(slot_, t);
  }
  /// Arm (or re-arm) the timer `d` from now.
  void schedule_in(Duration d) {
    require_bound();
    sim_->arm_timer(slot_, sim_->now() + d);
  }
  /// Arm with a pre-reserved FIFO ticket (see Simulator::reserve_fifo_tickets).
  void schedule_at(TimePoint t, std::uint64_t ticket) {
    require_bound();
    sim_->arm_timer(slot_, t, ticket);
  }

  /// Drop the pending occurrence, if any. The callback is retained.
  void cancel() {
    if (sim_ != nullptr) sim_->disarm_timer(slot_);
  }

  /// True if an occurrence is scheduled and not yet fired.
  bool pending() const { return sim_ != nullptr && slot_->armed; }

  explicit operator bool() const { return sim_ != nullptr; }

 private:
  friend class Simulator;
  TimerHandle(Simulator* sim, Slot* slot) : sim_{sim}, slot_{slot} {}

  // Arming an empty (default-constructed or moved-from) handle is a
  // programming error; fail loudly instead of dereferencing null. cancel()
  // and pending() stay no-ops on empty handles, mirroring their semantics.
  void require_bound() const {
    if (sim_ == nullptr) {
      throw std::logic_error{"TimerHandle: scheduling on an empty handle"};
    }
  }

  void release() {
    if (sim_ != nullptr) {
      sim_->release_timer(slot_);
      sim_ = nullptr;
      slot_ = nullptr;
    }
  }

  Simulator* sim_{nullptr};
  Slot* slot_{nullptr};
};

/// A re-armable handle to a counted timer (Simulator::make_counted_timer):
/// as TimerHandle, except that the occurrence a re-arm replaces, a cancel
/// drops or a release leaves behind is not dropped but becomes an event
/// that runs nothing, at its own (time, ticket).
class Simulator::CountedTimer {
 public:
  CountedTimer() = default;
  ~CountedTimer() { release(); }

  CountedTimer(CountedTimer&& o) noexcept : sim_{o.sim_}, entry_{o.entry_} {
    o.sim_ = nullptr;
    o.entry_ = nullptr;
  }
  CountedTimer& operator=(CountedTimer&& o) noexcept {
    if (this != &o) {
      release();
      sim_ = o.sim_;
      entry_ = o.entry_;
      o.sim_ = nullptr;
      o.entry_ = nullptr;
    }
    return *this;
  }
  CountedTimer(const CountedTimer&) = delete;
  CountedTimer& operator=(const CountedTimer&) = delete;

  /// Arm (or re-arm) the timer for absolute time `t` (must not be in the past).
  void schedule_at(TimePoint t) {
    require_bound();
    sim_->arm_timer(*entry_, t);
  }
  /// Arm (or re-arm) the timer `d` from now.
  void schedule_in(Duration d) {
    require_bound();
    sim_->arm_timer(*entry_, sim_->now() + d);
  }
  /// Arm with a pre-reserved FIFO ticket (see Simulator::reserve_fifo_tickets).
  void schedule_at(TimePoint t, std::uint64_t ticket) {
    require_bound();
    sim_->arm_timer(*entry_, t, ticket);
  }

  /// Turn the pending occurrence, if any, into an event that runs nothing.
  void cancel() {
    if (sim_ != nullptr) sim_->disarm_timer(*entry_);
  }

  /// True if an occurrence is scheduled and not yet fired.
  bool pending() const { return sim_ != nullptr && entry_->kind == LinkEntry::Kind::kTimer; }

  explicit operator bool() const { return sim_ != nullptr; }

 private:
  friend class Simulator;
  CountedTimer(Simulator* sim, TimerEntry* entry) : sim_{sim}, entry_{entry} {}

  void require_bound() const {
    if (sim_ == nullptr) {
      throw std::logic_error{"CountedTimer: scheduling on an empty handle"};
    }
  }

  void release() {
    if (sim_ != nullptr) {
      sim_->release_timer(*entry_);
      sim_ = nullptr;
      entry_ = nullptr;
    }
  }

  Simulator* sim_{nullptr};
  TimerEntry* entry_{nullptr};
};

inline Simulator::TimerHandle Simulator::make_timer(Callback cb) {
  return TimerHandle{this, alloc_timer_slot(std::move(cb))};
}

inline Simulator::CountedTimer Simulator::make_counted_timer(Callback cb) {
  return CountedTimer{this, alloc_timer_entry(std::move(cb))};
}

}  // namespace pathload::sim
