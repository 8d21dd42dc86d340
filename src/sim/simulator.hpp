#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "util/small_function.hpp"
#include "util/time.hpp"

namespace pathload::sim {

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
///    block, the block moves into the ring as one unit. This is where a
///    TCP sender's per-ACK RTO re-arms (200 ms or more out) land, and the
///    key of a receiver's ACK delay line when the line's front is one
///    reverse-path delay out.
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
/// was re-armed, cancelled or released) and is skipped without counting,
/// unless it belongs to a counted timer (make_counted_timer): then it still
/// pops as an event that runs nothing.
///
/// Every lane pops in the total order by (timestamp, ticket), so the event
/// sequence is bit-identical to the previous heap scheduler. Degenerate
/// workloads degrade gracefully: all-near events turn the fast lane into a
/// sorted vector, events all past the horizon turn the overflow heap into
/// the old binary heap -- but of trivially movable keys instead of fat
/// closures.
class Simulator {
 public:
  // Sized for the largest capture left: the keyed-batch record closure of
  // SimProbeChannel (its `this` plus a 24 B ProbeRecord). Packets in flight
  // wait in delay lines (links, TCP ACKs), not in closures, so a slot is
  // 80 B. SmallFunction rejects larger captures at compile time rather than
  // silently allocating.
  using Callback = SmallFunction<32>;

  class TimerHandle;

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
  /// as Testbed does). A handle outliving its Simulator is use-after-free.
  TimerHandle make_timer(Callback cb);

  /// Create a counted timer: a timer whose every arm is an event. Re-arming
  /// it, cancelling it, or releasing its handle leaves the pending
  /// occurrence in the queue, where it still pops at its (time, ticket),
  /// advances the clock and counts in events_processed() and
  /// pending_events(), but runs nothing. This is exactly what one
  /// generation-checked one-shot event per arm would do, without a closure
  /// per arm. TCP's RTO timer and ACK delay line use it, so that their
  /// event counts stay those of one event per arm and per ACK, also when a
  /// connection is torn down mid-run. Lifetime as for make_timer.
  TimerHandle make_counted_timer(Callback cb);

  /// Reserve `n` consecutive FIFO tie-break tickets, returning the first.
  ///
  /// A sender that knows its whole transmission schedule upfront (e.g. the
  /// K packets of a SLoPS stream) reserves its tickets in one call and
  /// attaches them to later timer re-arms: equal-timestamp ordering against
  /// other events is then exactly as if all occurrences had been scheduled
  /// upfront, which keeps runs bit-identical to the pre-timer engine.
  std::uint64_t reserve_fifo_tickets(std::uint32_t n);

  /// One event of a schedule_batch call.
  struct BatchEvent {
    TimePoint at;
    Callback cb;
  };

  /// Bulk-insert `entries` (time-ascending, none in the past) under one
  /// internal reserve_fifo_tickets block, returning the first ticket.
  /// Equal-timestamp ordering within the batch follows entry order; against
  /// foreign events it is exactly as if every entry had been scheduled at
  /// the call instant. Because entries arrive presorted, near keys append
  /// to the fast lane without sorted-insert churn and keys past the horizon
  /// are heapified once at the end instead of sift-up per key — the
  /// fleet-start path of the batched probe bursts (docs/ENGINE.md).
  std::uint64_t schedule_batch(std::vector<BatchEvent> entries);

  /// Run a single event; returns false if the queue is empty.
  bool run_next();

  /// Process all events with timestamp <= t, then advance the clock to t.
  /// With an empty queue this still advances the clock.
  void run_until(TimePoint t);

  /// Process all events in the next `d` of virtual time.
  void run_for(Duration d) { run_until(now_ + d); }

  /// Run until the event queue is fully drained.
  void run_all();

  /// Account `n` events that a caller resolved in closed form instead of
  /// scheduling them, and move the clock to `t`, the last of them. Only
  /// valid on a quiescent queue: throws std::logic_error if any occurrence
  /// that would count as an event is queued (pending_events() != 0,
  /// counted timers' stale keys included), or if `t` is in the past. The
  /// caller reserves the FIFO tickets the replaced events would have taken
  /// (reserve_fifo_tickets), so later tie-breaks are unchanged.
  void fast_forward(TimePoint t, std::uint64_t n);

  /// Events fired, plus events resolved in closed form (fast_forward),
  /// which count what the path their caller replaced would have fired.
  std::uint64_t events_processed() const { return processed_; }
  /// The closed-form share of events_processed(). Exact and a pure observer.
  std::uint64_t events_resolved() const { return resolved_; }
  /// Scheduled occurrences that will count as events: the live ones plus a
  /// counted timer's stale ones.
  std::size_t pending_events() const { return live_; }

  /// Keys scheduled into each lane of the queue, counted where each key
  /// first lands (a later move from heap to second level, or from second
  /// level to ring, is not counted again). Exact and a pure observer.
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
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};  // end of a pool list

  // Slot generations step by two; bit 0 marks a counted timer's slot. Keys
  // copy the slot's generation, so a stale key still knows whether it was
  // counted, and the live-key path never reads the flag.
  static constexpr std::uint32_t kGenStep = 2;
  static constexpr std::uint32_t kCountedGen = 1;

  struct Slot {
    Callback cb;
    Slot* next_free{nullptr};
    std::uint32_t gen{0};  // bit 0: counted timer (kCountedGen)
    bool persistent{false};  // timer slot: survives firing
    bool armed{false};       // timer slot: has a live key in the queue
    bool firing{false};      // timer slot: its callback is on the stack
    bool zombie{false};      // released mid-fire: recycle after cb returns
  };

  /// What the queue actually orders: trivially copyable, 32 bytes. The
  /// slot pointer is stable for the life of the occurrence (slab blocks
  /// never move), so firing needs no index arithmetic.
  struct Key {
    std::int64_t at;    // absolute ns
    std::uint64_t seq;  // FIFO tie-break ticket
    Slot* slot;
    std::uint32_t gen;  // matches slot->gen, else the key is stale
    // Second level only: pool index of the next key in the same block.
    // Fills the struct's padding, so keys stay 32 bytes.
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
  Slot* alloc_timer_slot(Callback cb, bool counted);
  std::int64_t horizon() const { return fine_end_ + kHorizonSpan; }
  bool queue_empty() const {
    return cur_head_ == cur_.size() && ring_count_ == 0 && coarse_count_ == 0 &&
           overflow_.empty();
  }
  void insert(Key k);
  void admit_to_ring(const Key& k);
  void admit_to_block(const Key& k);
  void drain_overflow_into_blocks();
  void promote_block();
  bool pop_live(Key& out);
  bool advance_bucket();
  void fire(const Key& k);

  // TimerHandle backdoor.
  void arm_timer(Slot* slot, TimePoint t);
  void arm_timer(Slot* slot, TimePoint t, std::uint64_t ticket);
  void arm_validated(Slot* slot, TimePoint t, std::uint64_t ticket);
  void disarm_timer(Slot* slot);
  void release_timer(Slot* slot);
  friend class TimerHandle;

  [[noreturn]] static void throw_past(TimePoint t, TimePoint now);

  std::vector<std::unique_ptr<Slot[]>> slab_;
  std::size_t slab_used_{0};  // slots handed out from the newest block
  std::size_t slab_cap_{0};   // size of the newest block
  Slot* free_head_{nullptr};
  // What a counted timer's stale key fires: a persistent no-op.
  Slot noop_;

  std::vector<Key> cur_;  // sorted near-future fast lane
  std::size_t cur_head_{0};
  std::int64_t cur_start_{0};  // bucket-aligned start of the fast lane
  std::vector<std::vector<Key>> buckets_;  // ring, unsorted
  std::size_t ring_count_{0};              // keys currently in ring buckets
  // Occupancy bitmap over the ring: advancing the window is a couple of
  // countr_zero jumps instead of a linear scan over empty buckets.
  std::uint64_t occupied_[kBucketCount / 64]{};
  // Second level: each block is a singly linked list, in insertion order,
  // threaded through one pool of keys (Key::next). One growing vector, not
  // one per block, keeps a short-lived Simulator's allocations and memory
  // at what the old single heap cost.
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
};

/// A re-armable handle to one scheduled occurrence of a persistent callback.
///
/// At most one occurrence is pending per timer: arming an armed timer
/// replaces the pending occurrence (reschedule-in-place); `cancel` drops it.
/// On a counted timer (Simulator::make_counted_timer) the replaced or
/// dropped occurrence stays queued as an event that runs nothing.
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

inline Simulator::TimerHandle Simulator::make_timer(Callback cb) {
  return TimerHandle{this, alloc_timer_slot(std::move(cb), false)};
}

inline Simulator::TimerHandle Simulator::make_counted_timer(Callback cb) {
  return TimerHandle{this, alloc_timer_slot(std::move(cb), true)};
}

}  // namespace pathload::sim
