// Semantics of the calendar-queue scheduler that the rest of the system
// leans on: FIFO tie-break, clock advance on an empty queue, timer
// cancel/reschedule-in-place, reserved FIFO tickets, and -- via a replay
// and a differential run against a reference binary-heap scheduler -- that
// the calendar queue pops the exact event order the old heap engine
// produced.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/link.hpp"
#include "sim/simulator.hpp"
#include "sim/traffic.hpp"

namespace pathload::sim {
namespace {

TEST(SchedulerSemantics, RunUntilOnEmptyQueueAdvancesClock) {
  Simulator sim;
  sim.run_until(TimePoint::origin() + Duration::seconds(5));
  EXPECT_EQ(sim.now(), TimePoint::origin() + Duration::seconds(5));
  EXPECT_EQ(sim.events_processed(), 0u);
  // Scheduling still works after the clock outran the bucket window.
  int fired = 0;
  sim.schedule_in(Duration::milliseconds(1), [&] { ++fired; });
  sim.schedule_now([&] { fired += 10; });
  sim.run_all();
  EXPECT_EQ(fired, 11);
  EXPECT_EQ(sim.now(), TimePoint::origin() + Duration::seconds(5) + Duration::milliseconds(1));
}

TEST(SchedulerSemantics, ScheduleNowRunsAfterEverythingAlreadyDueNow) {
  Simulator sim;
  std::vector<int> order;
  const TimePoint t = sim.now() + Duration::milliseconds(1);
  sim.schedule_at(t, [&] {
    order.push_back(1);
    // "now" events queue behind the other event already scheduled for t.
    sim.schedule_now([&] { order.push_back(3); });
  });
  sim.schedule_at(t, [&] { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), t);  // schedule_now never advanced the clock
}

TEST(SchedulerSemantics, PastSchedulingErrorNamesBothTimestamps) {
  Simulator sim;
  sim.run_until(TimePoint::origin() + Duration::milliseconds(2));
  try {
    sim.schedule_at(TimePoint::origin() + Duration::milliseconds(1), [] {});
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("1000000"), std::string::npos) << msg;  // t
    EXPECT_NE(msg.find("2000000"), std::string::npos) << msg;  // now
  }
}

TEST(SchedulerSemantics, TimerCancelDropsPendingOccurrence) {
  Simulator sim;
  int fired = 0;
  auto timer = sim.make_timer([&] { ++fired; });
  timer.schedule_in(Duration::milliseconds(1));
  EXPECT_TRUE(timer.pending());
  EXPECT_EQ(sim.pending_events(), 1u);
  timer.cancel();
  EXPECT_FALSE(timer.pending());
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.run_all();
  EXPECT_EQ(fired, 0);
  // The callback is retained: the timer can be armed again after a cancel.
  timer.schedule_in(Duration::milliseconds(1));
  sim.run_all();
  EXPECT_EQ(fired, 1);
}

TEST(SchedulerSemantics, TimerRescheduleInPlaceReplacesOccurrence) {
  Simulator sim;
  std::vector<std::int64_t> fired_at;
  auto timer = sim.make_timer([&] { fired_at.push_back(sim.now().nanos()); });
  timer.schedule_in(Duration::milliseconds(5));
  timer.schedule_in(Duration::milliseconds(1));  // replaces the 5 ms occurrence
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_all();
  ASSERT_EQ(fired_at.size(), 1u);
  EXPECT_EQ(fired_at[0], Duration::milliseconds(1).nanos());
}

TEST(SchedulerSemantics, TimerReArmsFromInsideItsOwnCallback) {
  Simulator sim;
  int fires = 0;
  Simulator::TimerHandle timer = sim.make_timer([&] {
    if (++fires < 5) timer.schedule_in(Duration::milliseconds(1));
  });
  timer.schedule_in(Duration::milliseconds(1));
  sim.run_all();
  EXPECT_EQ(fires, 5);
  EXPECT_EQ(sim.events_processed(), 5u);
  EXPECT_FALSE(timer.pending());
}

TEST(SchedulerSemantics, TimerDestroyedInsideOwnCallbackIsSafe) {
  // The callback releases its own handle mid-fire, then keeps scheduling --
  // the slot must not be recycled under the running lambda.
  Simulator sim;
  int fired = 0;
  int oneshots = 0;
  auto timer = std::make_unique<Simulator::TimerHandle>();
  *timer = sim.make_timer([&] {
    ++fired;
    timer.reset();  // ~TimerHandle from inside the callback
    // Nested allocations that would reuse a prematurely freed slot.
    for (int i = 0; i < 4; ++i) {
      sim.schedule_now([&] { ++oneshots; });
    }
  });
  timer->schedule_in(Duration::milliseconds(1));
  sim.run_all();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(oneshots, 4);
}

TEST(SchedulerSemantics, DestroyedTimerNeverFires) {
  Simulator sim;
  int fired = 0;
  {
    auto timer = sim.make_timer([&] { ++fired; });
    timer.schedule_in(Duration::milliseconds(1));
  }  // handle destroyed with an occurrence pending
  sim.run_all();
  EXPECT_EQ(fired, 0);
}

TEST(SchedulerSemantics, CountedTimerKeepsEveryArmAsAnEvent) {
  Simulator sim;
  int fired = 0;
  auto timer = std::make_unique<Simulator::TimerHandle>(
      sim.make_counted_timer([&] { ++fired; }));
  timer->schedule_in(Duration::milliseconds(5));
  timer->schedule_in(Duration::milliseconds(1));  // the 5 ms arm stays queued
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.run_until(TimePoint::origin() + Duration::milliseconds(2));
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(timer->pending());

  timer->schedule_in(Duration::milliseconds(10));  // due at 12 ms
  timer->cancel();                                 // still an event
  timer->schedule_in(Duration::milliseconds(20));  // due at 22 ms
  timer.reset();                                   // still an event
  EXPECT_EQ(sim.pending_events(), 3u);
  sim.run_all();
  EXPECT_EQ(fired, 1);  // the stale arms ran nothing...
  EXPECT_EQ(sim.events_processed(), 4u);  // ...but each one counted
  EXPECT_EQ(sim.now(), TimePoint::origin() + Duration::milliseconds(22));
}

TEST(SchedulerSemantics, ReservedTicketsKeepUpfrontTieBreakOrder) {
  Simulator sim;
  std::vector<int> order;
  const TimePoint t = sim.now() + Duration::milliseconds(10);

  // A periodic sender reserves its tickets first (as if it had scheduled
  // everything upfront)...
  const std::uint64_t base = sim.reserve_fifo_tickets(2);
  // ...then a competitor schedules for the same instant...
  sim.schedule_at(t, [&] { order.push_back(99); });
  // ...and the sender arms with its reserved ticket afterwards. The
  // reserved (earlier) ticket must win the equal-timestamp tie.
  Simulator::TimerHandle timer = sim.make_timer([&] { order.push_back(1); });
  timer.schedule_at(t, base);
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 99}));
}

// ---------------------------------------------------------------------------
// Cross-scheduler determinism: replay a stress workload through the real
// engine and through a reference implementation of the old binary-heap
// scheduler; both must report the exact same firing order.

/// The old engine, reduced to its ordering contract: a binary heap over
/// (timestamp, insertion seq), exactly as src/sim/simulator.cpp had before
/// the calendar queue. Timers are modelled the way the engine models them:
/// a re-arm or cancel bumps the timer's generation, and a popped key whose
/// generation is stale is skipped without firing. Counted timers are
/// modelled the way TCP's RTO was written before they existed: one closure
/// per arm that checks the timer's generation when it runs, and does
/// nothing -- but is still an event -- when the timer was re-armed or
/// released since.
class ReferenceHeap {
 public:
  /// The tag run_next reports for a counted timer's stale closure.
  static constexpr int kNoopTag = -3;

  void schedule_at(std::int64_t at, int tag) {
    push(Ev{at, ++seq_, tag, kNoTimer, 0});
    ++live_;
  }
  void arm(std::size_t timer, std::int64_t at, int tag) {
    Timer& tm = timer_at(timer);
    if (tm.armed) --live_;
    tm.armed = true;
    push(Ev{at, ++seq_, tag, timer, ++tm.gen});
    ++live_;
  }
  /// Arm with a reserved ticket (see reserve).
  void arm_ticket(std::size_t timer, std::int64_t at, std::uint64_t ticket, int tag) {
    Timer& tm = timer_at(timer);
    if (tm.armed) --live_;
    tm.armed = true;
    push(Ev{at, ticket, tag, timer, ++tm.gen});
    ++live_;
  }
  void arm_counted(std::size_t timer, std::int64_t at, int tag) {
    if (counted_.size() <= timer) counted_.resize(timer + 1);
    push(Ev{at, ++seq_, tag, timer, ++counted_[timer], true});
    ++live_;
  }
  void release_counted(std::size_t timer) {
    if (counted_.size() <= timer) counted_.resize(timer + 1);
    ++counted_[timer];
  }
  void cancel(std::size_t timer) {
    Timer& tm = timer_at(timer);
    if (tm.armed) {
      ++tm.gen;
      tm.armed = false;
      --live_;
    }
  }
  /// Reserve `n` FIFO tickets without scheduling anything; the first.
  std::uint64_t reserve(std::uint64_t n) {
    seq_ += n;
    return seq_ - n + 1;
  }
  /// Pops the earliest live event with timestamp <= `limit`.
  bool run_next(std::int64_t& now, int& tag,
                std::int64_t limit = std::numeric_limits<std::int64_t>::max()) {
    while (!heap_.empty() && heap_.front().at <= limit) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      const Ev ev = heap_.back();
      heap_.pop_back();
      if (ev.counted) {
        --live_;
        now = ev.at;
        tag = ev.gen == counted_[ev.timer] ? ev.tag : kNoopTag;
        return true;
      }
      if (ev.timer != kNoTimer) {
        Timer& tm = timers_[ev.timer];
        if (ev.gen != tm.gen) continue;  // re-armed or cancelled since
        tm.armed = false;
      }
      --live_;
      now = ev.at;
      tag = ev.tag;
      return true;
    }
    return false;
  }
  std::size_t live() const { return live_; }

 private:
  static constexpr std::size_t kNoTimer = ~std::size_t{0};
  struct Ev {
    std::int64_t at;
    std::uint64_t seq;
    int tag;
    std::size_t timer;
    std::uint64_t gen;
    bool counted{false};  // a counted timer's closure; timer indexes counted_
  };
  struct Later {
    bool operator()(const Ev& a, const Ev& b) const {
      return a.at > b.at || (a.at == b.at && a.seq > b.seq);
    }
  };
  struct Timer {
    std::uint64_t gen{0};
    bool armed{false};
  };
  void push(Ev ev) {
    heap_.push_back(ev);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }
  Timer& timer_at(std::size_t i) {
    if (timers_.size() <= i) timers_.resize(i + 1);
    return timers_[i];
  }
  std::vector<Ev> heap_;
  std::vector<Timer> timers_;
  std::vector<std::uint64_t> counted_;  // generation per counted timer
  std::uint64_t seq_{0};
  std::size_t live_{0};
};

/// Deterministic pseudo-random gaps: mixes sub-bucket, cross-bucket,
/// beyond-window (overflow heap), and exactly-equal timestamps.
std::int64_t replay_gap(std::uint64_t& lcg) {
  lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
  const std::uint64_t r = lcg >> 33;
  switch (r % 5) {
    case 0: return static_cast<std::int64_t>(r % 1000);            // same bucket
    case 1: return static_cast<std::int64_t>(r % 500'000);         // near buckets
    case 2: return static_cast<std::int64_t>(r % 40'000'000);      // ring edge
    case 3: return static_cast<std::int64_t>(r % 2'000'000'000);   // overflow
    default: return 0;                                             // exact tie
  }
}

TEST(SchedulerSemantics, ReplayMatchesReferenceHeapOrder) {
  constexpr int kInitial = 64;
  constexpr int kTotal = 20000;

  // Reference run: every fired event schedules a successor with the same
  // deterministic gap stream, keyed by the fired tag.
  std::vector<std::pair<std::int64_t, int>> ref_trace;
  {
    ReferenceHeap ref;
    std::uint64_t lcg = 12345;
    std::uint64_t gap_lcg = 999;
    for (int i = 0; i < kInitial; ++i) ref.schedule_at(replay_gap(lcg), i);
    int next_tag = kInitial;
    std::int64_t now = 0;
    int tag = 0;
    while (static_cast<int>(ref_trace.size()) < kTotal && ref.run_next(now, tag)) {
      ref_trace.emplace_back(now, tag);
      if (next_tag < kTotal) ref.schedule_at(now + replay_gap(gap_lcg), next_tag++);
    }
  }

  // Real engine, same workload as one-shot closures.
  std::vector<std::pair<std::int64_t, int>> trace;
  {
    Simulator sim;
    std::uint64_t lcg = 12345;
    std::uint64_t gap_lcg = 999;
    int next_tag = kInitial;
    std::function<void(int)> fire = [&](int tag) {
      trace.emplace_back(sim.now().nanos(), tag);
      if (next_tag < kTotal) {
        const int t = next_tag++;
        sim.schedule_in(Duration::nanoseconds(replay_gap(gap_lcg)),
                        [&fire, t] { fire(t); });
      }
    };
    for (int i = 0; i < kInitial; ++i) {
      sim.schedule_at(TimePoint::from_nanos(replay_gap(lcg)), [&fire, i] { fire(i); });
    }
    while (static_cast<int>(trace.size()) < kTotal && sim.run_next()) {
    }
  }

  ASSERT_EQ(trace.size(), ref_trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    ASSERT_EQ(trace[i], ref_trace[i]) << "divergence at event " << i;
  }
}

// ---------------------------------------------------------------------------
// Differential test of the whole scheduling surface against ReferenceHeap:
// one-shot events, timer re-arm and cancel, counted-timer re-arm and
// release, keyed batches (including entries at `now` while the queue is
// non-empty), run_until slices that stop short of a key and advance the
// clock across idle gaps, and (optionally) fast_forward on a quiescent
// queue. Gaps cover every lane: the current bucket, the ring, the second
// level, and past the horizon out to ~20 s.
//
// With link owners, two Links and their constant-rate CrossTrafficSources,
// plus a source feeding a handler that is no link, schedule through link
// entries beside the calendar: sources started (armed) and stopped
// (cancelled), re-armed by every emission, packets injected into a link,
// deliveries handed on and deliveries that run nothing, single run_next
// steps, and emissions, service ends and deliveries tied to the
// nanosecond with each other and with calendar keys. The reference models
// them the way the engine ran them before link entries: a timer per
// source, per link service and per delay-line front, armed with the
// ticket reserved where the link or source reserves it.
//
// A keyed batch is SimProbeChannel's: a block of tickets reserved at once,
// entry i taking ticket base + i, and one timer that fires the entries in
// order, re-arming itself from its own callback. The reference arms every
// entry upfront, each on a timer of its own with its reserved ticket. The
// engine then holds one key per open batch where the reference holds one
// per entry left, so pending() is compared only where no batch is open.

/// The queue operations of an OpStream, over the engine or the reference.
class Backend {
 public:
  virtual ~Backend() = default;
  virtual std::int64_t now() const = 0;
  virtual void schedule_at(std::int64_t at, int tag) = 0;
  virtual void arm(std::size_t timer, std::int64_t at) = 0;
  virtual void cancel(std::size_t timer) = 0;
  virtual void arm_counted(std::size_t timer, std::int64_t at) = 0;
  /// Release the counted timer's handle, then make a fresh one in its place.
  virtual void release_counted(std::size_t timer) = 0;
  /// A keyed batch: entry i at `ats[i]` (ascending) fires tag first_tag + i.
  virtual void batch(const std::vector<std::int64_t>& ats, int first_tag) = 0;
  /// Whether an entry of a keyed batch is still to fire.
  virtual bool batch_open() const = 0;
  virtual void run_until(std::int64_t t) = 0;
  /// reserve_fifo_tickets(n), then fast_forward(t, n).
  virtual void fast_forward(std::int64_t t, std::uint64_t n) = 0;
  virtual std::size_t pending() const = 0;
  virtual std::uint64_t processed() const = 0;
  // Link owners.
  /// A transit packet with id `id` into link `link`, now.
  virtual void inject(std::size_t link, int id) = 0;
  /// Start a stopped source, stop a running one.
  virtual void toggle(std::size_t source) = 0;
  virtual void stop_sources() = 0;
  /// One run_next.
  virtual void step() = 0;
};

constexpr std::size_t kDiffTimers = 6;
constexpr std::size_t kDiffCounted = 4;
constexpr int kTimerTag = -1000;    // timer i fires with tag kTimerTag - i
constexpr int kCountedTag = -2000;  // counted timer i: tag kCountedTag - i
constexpr int kSliceMark = -1;      // trace entry: a run_until slice ended
constexpr int kForwardMark = -2;    // trace entry: a fast_forward ended
constexpr int kStepMark = -4;       // trace entry: a run_next returned
constexpr int kLooseTag = -3000;    // the source that feeds no link emitted
constexpr int kDeliverTag = -100000;  // link l handed on packet id: - 10000 l - id

// Link owners: link 0 hands everything on after 300 us of propagation;
// link 1 has none, and drops hop-local packets (a Path's junction), so
// their deliveries run nothing and tie with the service end. Sources send
// 1000 B packets at constant rates; 8 Mb/s links serialize them in 1 ms.
constexpr std::size_t kDiffLinks = 2;
constexpr std::int64_t kLinkProp[kDiffLinks] = {300'000, 0};
constexpr double kSourceMbps[] = {4.0, 2.0, 4.0, 2.0, 8.0 / 3.0};  // last: no link
constexpr std::size_t kDiffSources = 5;
constexpr std::int32_t kCrossBytes = 1000;
constexpr std::int32_t kTransitBytes = 500;

Rate link_rate() { return Rate::mbps(8); }
/// Source i's link; kDiffLinks for the one that feeds no link.
std::size_t source_link(std::size_t i) { return i / 2; }
/// The gap a constant source draws, as CrossTrafficSource computes it.
std::int64_t source_gap(std::size_t i) {
  return Duration::seconds(PacketSizeMix::fixed(kCrossBytes).mean_bytes() * 8.0 /
                           Rate::mbps(kSourceMbps[i]).bits_per_sec())
      .nanos();
}
int deliver_tag(std::size_t link, int id) {
  return kDeliverTag - 10000 * static_cast<int>(link) - id;
}

/// One trace entry: the clock, the tag that fired, and the events processed
/// so far -- which also counts the counted timers' no-op events before it.
using TraceEntry = std::tuple<std::int64_t, int, std::uint64_t>;
/// pending() at the end of a slice with no keyed batch open, and the trace
/// entry it follows.
using PendingSample = std::pair<std::size_t, std::size_t>;

/// Runs a deterministic pseudo-random operation stream against a
/// Backend. Each operation's draws depend only on the trace so far, so two
/// backends that pop the same order receive the same operations.
class OpStream {
 public:
  OpStream(std::uint64_t seed, int budget, bool fast_forwards = false, bool links = false)
      : lcg_{seed}, budget_{budget}, fast_forwards_{fast_forwards}, links_{links} {}

  void attach(Backend& q) { q_ = &q; }
  const std::vector<TraceEntry>& trace() const { return trace_; }
  const std::vector<PendingSample>& pendings() const { return pendings_; }

  /// A gap sized for one lane, drawn at random. The lane a key lands in
  /// also depends on the window's position, so the sizes are approximate.
  std::int64_t gap() {
    const std::uint64_t r = draw();
    switch (r % 9) {
      case 0: return 0;                                              // exact tie
      case 1: return static_cast<std::int64_t>(r % 1'000);           // same bucket
      case 2: return static_cast<std::int64_t>(r % 2'000'000);       // near ring
      case 3: return static_cast<std::int64_t>(r % 40'000'000);      // ring edge
      case 4: return 100'000'000;                                    // an ACK out
      case 5: return 200'000'000 + static_cast<std::int64_t>(r % 50'000'000);  // an RTO
      case 6: return static_cast<std::int64_t>(r % 1'100'000'000);   // second level
      case 7: return static_cast<std::int64_t>(r % 1'200'000'000);   // horizon edge
      default: return static_cast<std::int64_t>(r % 20'000'000'000); // past horizon
    }
  }

  void on_fire(int tag) {
    trace_.emplace_back(q_->now(), tag, q_->processed());
    act();
  }

  /// One slice: an outside operation, then run_until over a gap of any
  /// lane's size (long ones drain the queue and idle the clock).
  bool slice() {
    if (links_ && next_tag_ >= budget_) q_->stop_sources();
    if (next_tag_ >= budget_ && q_->pending() == 0) return false;
    if (links_ && draw() % 3 == 0) {
      // Single events: run_next fires one, also one that runs nothing.
      for (int n = 1 + static_cast<int>(draw() % 5); n > 0; --n) {
        q_->step();
        trace_.emplace_back(q_->now(), kStepMark, q_->processed());
      }
    }
    if (fast_forwards_ && draw() % 4 == 0) {
      // Let every chain end, then resolve a burst on the quiescent queue as
      // SimProbeChannel does. Re-armed plain timers may leave stale keys.
      quiet_ = true;
      while (q_->pending() != 0) q_->run_until(q_->now() + 25'000'000'000);
      quiet_ = false;
      q_->fast_forward(q_->now() + gap(), 1 + draw() % 300);
      trace_.emplace_back(q_->now(), kForwardMark, q_->processed());
    }
    act();
    // Refill an idle queue so it re-anchors after the gap.
    if (q_->pending() == 0 && next_tag_ < budget_) {
      q_->schedule_at(q_->now() + gap(), next_tag_++);
    }
    q_->run_until(q_->now() + gap());
    trace_.emplace_back(q_->now(), kSliceMark, q_->processed());
    if (!q_->batch_open()) pendings_.emplace_back(trace_.size(), q_->pending());
    return true;
  }

 private:
  std::uint64_t draw() {
    lcg_ = lcg_ * 6364136223846793005ull + 1442695040888963407ull;
    return lcg_ >> 33;
  }

  void act() {
    if (quiet_ || next_tag_ >= budget_) return;
    const std::int64_t now = q_->now();
    if (links_ && draw() % 4 == 0) {
      if (draw() % 3 != 0) {
        q_->inject(static_cast<std::size_t>(draw() % kDiffLinks), next_tag_++);
      } else {
        q_->toggle(static_cast<std::size_t>(draw() % kDiffSources));
      }
      return;
    }
    const std::uint64_t r = draw();
    switch (r % 14) {
      case 0:
      case 1: {  // a timer re-armed in place (or armed fresh)
        q_->arm(static_cast<std::size_t>(draw() % kDiffTimers), now + gap());
        break;
      }
      case 2:
        q_->cancel(static_cast<std::size_t>(draw() % kDiffTimers));
        q_->schedule_at(now + gap(), next_tag_++);
        break;
      case 3: {  // a batch, half of them starting at `now`
        const int n = 1 + static_cast<int>(draw() % 8);
        std::vector<std::int64_t> ats;
        std::int64_t at = now + (draw() % 2 == 0 ? 0 : gap());
        for (int i = 0; i < n; ++i) {
          ats.push_back(at);
          at += draw() % 3 == 0 ? 0 : gap() / (1 + static_cast<std::int64_t>(draw() % 64));
        }
        q_->batch(ats, next_tag_);
        next_tag_ += n;
        break;
      }
      case 4:  // the ACK + RTO pattern of a TCP sender
        q_->schedule_at(now + 100'000'000, next_tag_++);
        q_->arm_counted(static_cast<std::size_t>(draw() % kDiffCounted), now + 250'000'000);
        break;
      case 5:
        break;  // this chain ends
      case 12:  // a counted timer re-armed (or armed fresh)
        q_->arm_counted(static_cast<std::size_t>(draw() % kDiffCounted), now + gap());
        break;
      case 13:
        q_->release_counted(static_cast<std::size_t>(draw() % kDiffCounted));
        q_->schedule_at(now + gap(), next_tag_++);
        break;
      default:
        q_->schedule_at(now + gap(), next_tag_++);
        break;
    }
  }

  Backend* q_{nullptr};
  std::uint64_t lcg_;
  int budget_;
  bool fast_forwards_;
  bool links_;
  bool quiet_{false};  // chains end instead of scheduling their successor
  int next_tag_{0};
  std::vector<TraceEntry> trace_;
  std::vector<PendingSample> pendings_;
};

class ReferenceBackend final : public Backend {
 public:
  explicit ReferenceBackend(OpStream& d, bool links = false) : ops_{d} {
    if (links) {
      for (std::size_t i = 0; i < kDiffSources; ++i) toggle(i);
    }
  }
  std::int64_t now() const override { return now_; }
  void schedule_at(std::int64_t at, int tag) override { ref_.schedule_at(at, tag); }
  void arm(std::size_t timer, std::int64_t at) override {
    ref_.arm(timer, at, kTimerTag - static_cast<int>(timer));
  }
  void cancel(std::size_t timer) override { ref_.cancel(timer); }
  void arm_counted(std::size_t timer, std::int64_t at) override {
    ref_.arm_counted(timer, at, kCountedTag - static_cast<int>(timer));
  }
  void release_counted(std::size_t timer) override { ref_.release_counted(timer); }
  void batch(const std::vector<std::int64_t>& ats, int first_tag) override {
    const std::uint64_t base = ref_.reserve(ats.size());
    for (std::size_t i = 0; i < ats.size(); ++i) {
      const int tag = first_tag + static_cast<int>(i);
      ref_.arm_ticket(kBatchTimer + batch_entries_++, ats[i], base + i, tag);
      batch_tags_.insert(tag);
    }
  }
  bool batch_open() const override { return !batch_tags_.empty(); }
  void run_until(std::int64_t t) override {
    int tag = 0;
    while (ref_.run_next(now_, tag, t)) {
      ++processed_;
      dispatch(tag);
    }
    now_ = std::max(now_, t);
  }
  void fast_forward(std::int64_t t, std::uint64_t n) override {
    ref_.reserve(n);
    now_ = t;
    processed_ += n;
  }
  std::size_t pending() const override { return ref_.live(); }
  std::uint64_t processed() const override { return processed_; }
  std::uint64_t noops() const { return noops_; }

  void inject(std::size_t link, int id) override { accept(link, Pkt{true, id, kTransitBytes}); }
  void toggle(std::size_t i) override {
    if (running_[i]) {
      running_[i] = false;
      ref_.cancel(kSourceTimer + i);
    } else {
      running_[i] = true;
      plan(i);
    }
  }
  void stop_sources() override {
    for (std::size_t i = 0; i < kDiffSources; ++i) {
      if (running_[i]) toggle(i);
    }
  }
  void step() override {
    int tag = 0;
    if (ref_.run_next(now_, tag)) {
      ++processed_;
      dispatch(tag);
    }
  }

 private:
  // Timer ids and tags of the link owners' timers.
  static constexpr std::size_t kServiceTimer = 100;
  static constexpr std::size_t kDeliveryTimer = 110;
  static constexpr std::size_t kSourceTimer = 120;
  static constexpr std::size_t kBatchTimer = 1000;  // one per batch entry
  static constexpr int kServiceTag = -5000;
  static constexpr int kDeliveryTag = -6000;
  static constexpr int kSourceTag = -7000;

  struct Pkt {
    bool transit;
    int id;
    std::int32_t bytes;
  };
  struct InFlight {
    std::int64_t at;
    std::uint64_t ticket;
    Pkt pkt;
  };
  struct RefLink {
    bool busy{false};
    Pkt in_service{};
    std::deque<Pkt> queue;
    std::deque<InFlight> line;  // by (at, ticket)
  };

  void dispatch(int tag) {
    if (tag == ReferenceHeap::kNoopTag) {
      ++noops_;
    } else if (tag <= kSourceTag && tag > kSourceTag - 100) {
      emit(static_cast<std::size_t>(kSourceTag - tag));
    } else if (tag <= kDeliveryTag && tag > kDeliveryTag - 100) {
      deliver(static_cast<std::size_t>(kDeliveryTag - tag));
    } else if (tag <= kServiceTag && tag > kServiceTag - 100) {
      finish_service(static_cast<std::size_t>(kServiceTag - tag));
    } else {
      batch_tags_.erase(tag);
      ops_.on_fire(tag);
    }
  }
  void accept(std::size_t l, const Pkt& p) {
    RefLink& link = links_[l];
    if (link.busy) {
      link.queue.push_back(p);
      return;
    }
    link.in_service = p;
    start_service(l);
  }
  void start_service(std::size_t l) {
    RefLink& link = links_[l];
    link.busy = true;
    const std::int64_t at =
        now_ + link_rate().transmission_time(DataSize::bytes(link.in_service.bytes)).nanos();
    ref_.arm_ticket(kServiceTimer + l, at, ref_.reserve(1), kServiceTag - static_cast<int>(l));
  }
  void finish_service(std::size_t l) {
    RefLink& link = links_[l];
    // Propagation: into the delay line, whose front the delivery timer holds.
    const InFlight e{now_ + kLinkProp[l], ref_.reserve(1), link.in_service};
    auto pos = link.line.end();
    while (pos != link.line.begin() && e.at < std::prev(pos)->at) --pos;
    const bool front = pos == link.line.begin();
    link.line.insert(pos, e);
    if (front) arm_delivery(l);
    if (!link.queue.empty()) {
      link.in_service = link.queue.front();
      link.queue.pop_front();
      start_service(l);
    } else {
      link.busy = false;
    }
  }
  void arm_delivery(std::size_t l) {
    const InFlight& f = links_[l].line.front();
    ref_.arm_ticket(kDeliveryTimer + l, f.at, f.ticket, kDeliveryTag - static_cast<int>(l));
  }
  void deliver(std::size_t l) {
    RefLink& link = links_[l];
    const InFlight head = link.line.front();
    link.line.pop_front();
    if (!link.line.empty()) arm_delivery(l);
    if (l == 1 && !head.pkt.transit) return;  // dropped by its receiver
    ops_.on_fire(deliver_tag(l, head.pkt.id));
  }
  void plan(std::size_t i) {
    ref_.arm_ticket(kSourceTimer + i, now_ + source_gap(i), ref_.reserve(1),
                    kSourceTag - static_cast<int>(i));
  }
  void emit(std::size_t i) {
    const std::size_t l = source_link(i);
    if (l < kDiffLinks) {
      accept(l, Pkt{false, 0, kCrossBytes});
      plan(i);
      return;
    }
    // The handler may stop or start the source; the next gap's ticket is
    // reserved either way.
    ops_.on_fire(kLooseTag);
    const std::uint64_t ticket = ref_.reserve(1);
    if (running_[i]) {
      ref_.arm_ticket(kSourceTimer + i, now_ + source_gap(i), ticket,
                      kSourceTag - static_cast<int>(i));
    }
  }

  OpStream& ops_;
  ReferenceHeap ref_;
  std::int64_t now_{0};
  std::uint64_t processed_{0};
  std::uint64_t noops_{0};
  RefLink links_[kDiffLinks];
  bool running_[kDiffSources]{};
  std::size_t batch_entries_{0};
  std::set<int> batch_tags_;  // of the batch entries still to fire
};

class EngineBackend final : public Backend {
 public:
  explicit EngineBackend(OpStream& d, bool links = false) : ops_{d} {
    for (std::size_t i = 0; i < kDiffTimers; ++i) {
      const int tag = kTimerTag - static_cast<int>(i);
      timers_.push_back(sim_.make_timer([this, tag] { ops_.on_fire(tag); }));
    }
    for (std::size_t i = 0; i < kDiffCounted; ++i) counted_.push_back(make_counted(i));
    if (!links) return;
    for (std::size_t l = 0; l < kDiffLinks; ++l) {
      receivers_[l] = Receiver{&ops_, l};
      links_.push_back(std::make_unique<Link>(sim_, "l" + std::to_string(l), link_rate(),
                                              Duration::nanoseconds(kLinkProp[l]),
                                              DataSize::bytes(1'000'000)));
      links_.back()->set_downstream(&receivers_[l], /*drops_hop_local=*/l == 1);
    }
    loose_receiver_ = Receiver{&ops_, kDiffLinks};
    for (std::size_t i = 0; i < kDiffSources; ++i) {
      const std::size_t l = source_link(i);
      const Rate rate = Rate::mbps(kSourceMbps[i]);
      const PacketSizeMix mix = PacketSizeMix::fixed(kCrossBytes);
      sources_.push_back(
          l < kDiffLinks
              ? std::make_unique<CrossTrafficSource>(sim_, *links_[l], rate,
                                                     Interarrival::kConstant, mix, Rng{i})
              : std::make_unique<CrossTrafficSource>(sim_, loose_receiver_, rate,
                                                     Interarrival::kConstant, mix, Rng{i}));
      toggle(i);
    }
  }
  std::int64_t now() const override { return sim_.now().nanos(); }
  void schedule_at(std::int64_t at, int tag) override {
    sim_.schedule_at(TimePoint::from_nanos(at), [this, tag] { ops_.on_fire(tag); });
  }
  void arm(std::size_t timer, std::int64_t at) override {
    timers_[timer].schedule_at(TimePoint::from_nanos(at));
  }
  void cancel(std::size_t timer) override { timers_[timer].cancel(); }
  void arm_counted(std::size_t timer, std::int64_t at) override {
    counted_[timer].schedule_at(TimePoint::from_nanos(at));
  }
  void release_counted(std::size_t timer) override { counted_[timer] = make_counted(timer); }
  void batch(const std::vector<std::int64_t>& ats, int first_tag) override {
    auto it = std::find_if(chains_.begin(), chains_.end(),
                           [](const std::unique_ptr<Chain>& c) { return !c->open(); });
    if (it == chains_.end()) {
      chains_.push_back(std::make_unique<Chain>());
      Chain* c = chains_.back().get();
      c->timer = sim_.make_timer([this, c] { fire(*c); });
      it = chains_.end() - 1;
    }
    Chain& c = **it;
    c.ats = ats;
    c.first_tag = first_tag;
    c.next = 0;
    c.base = sim_.reserve_fifo_tickets(static_cast<std::uint32_t>(ats.size()));
    c.timer.schedule_at(TimePoint::from_nanos(ats[0]), c.base);
  }
  bool batch_open() const override {
    return std::any_of(chains_.begin(), chains_.end(),
                       [](const std::unique_ptr<Chain>& c) { return c->open(); });
  }
  void run_until(std::int64_t t) override { sim_.run_until(TimePoint::from_nanos(t)); }
  void fast_forward(std::int64_t t, std::uint64_t n) override {
    sim_.reserve_fifo_tickets(static_cast<std::uint32_t>(n));
    sim_.fast_forward(TimePoint::from_nanos(t), n);
  }
  std::size_t pending() const override { return sim_.pending_events(); }
  std::uint64_t processed() const override { return sim_.events_processed(); }
  const Simulator& sim() const { return sim_; }

  void inject(std::size_t link, int id) override {
    Packet p;
    p.flow = 1;
    p.kind = PacketKind::kProbe;
    p.size_bytes = kTransitBytes;
    p.transit = true;
    p.seq = static_cast<std::uint32_t>(id);
    links_[link]->handle(p);
  }
  void toggle(std::size_t i) override {
    running_[i] = !running_[i];
    if (running_[i]) {
      sources_[i]->start();
    } else {
      sources_[i]->stop();
    }
  }
  void stop_sources() override {
    for (std::size_t i = 0; i < sources_.size(); ++i) {
      if (running_[i]) toggle(i);
    }
  }
  void step() override { sim_.run_next(); }

 private:
  Simulator::TimerHandle make_counted(std::size_t timer) {
    const int tag = kCountedTag - static_cast<int>(timer);
    return sim_.make_counted_timer([this, tag] { ops_.on_fire(tag); });
  }

  /// One keyed batch: its entries, its ticket block and the next to fire.
  struct Chain {
    Simulator::TimerHandle timer;
    std::vector<std::int64_t> ats;
    int first_tag{0};
    std::uint64_t base{0};
    std::size_t next{0};
    bool open() const { return next < ats.size(); }
  };
  void fire(Chain& c) {
    const int tag = c.first_tag + static_cast<int>(c.next);
    if (++c.next < c.ats.size()) {
      c.timer.schedule_at(TimePoint::from_nanos(c.ats[c.next]), c.base + c.next);
    }
    ops_.on_fire(tag);
  }

  /// Traces what a link hands it (or, as kDiffLinks, the loose source's
  /// emissions).
  struct Receiver final : PacketHandler {
    Receiver() = default;
    Receiver(OpStream* o, std::size_t l) : ops{o}, link{l} {}
    Receiver& operator=(const Receiver& r) {
      ops = r.ops;
      link = r.link;
      return *this;
    }
    void handle(const Packet& p) override {
      ops->on_fire(link < kDiffLinks ? deliver_tag(link, static_cast<int>(p.seq)) : kLooseTag);
    }
    OpStream* ops{nullptr};
    std::size_t link{0};
  };

  OpStream& ops_;
  Simulator sim_;  // declared before the handles, links and sources
  std::vector<Simulator::TimerHandle> timers_;
  std::vector<Simulator::TimerHandle> counted_;
  Receiver receivers_[kDiffLinks];
  Receiver loose_receiver_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<std::unique_ptr<CrossTrafficSource>> sources_;
  bool running_[kDiffSources]{};
  std::vector<std::unique_ptr<Chain>> chains_;  // keyed batches, reused once closed
};

void expect_matches_reference(bool fast_forwards, bool links = false) {
  constexpr int kBudget = 4000;  // one-shot events per seed
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    OpStream ref_ops{seed, kBudget, fast_forwards, links};
    ReferenceBackend ref{ref_ops, links};
    ref_ops.attach(ref);
    while (ref_ops.slice()) {
    }

    OpStream ops{seed, kBudget, fast_forwards, links};
    EngineBackend engine{ops, links};
    ops.attach(engine);
    while (ops.slice()) {
    }

    const auto& want = ref_ops.trace();
    const auto& got = ops.trace();
    const std::size_t n = std::min(want.size(), got.size());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(got[i], want[i]) << "seed " << seed << ": divergence at trace entry " << i;
    }
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    EXPECT_EQ(engine.sim().events_processed(), ref.processed()) << "seed " << seed;
    EXPECT_EQ(ops.pendings(), ref_ops.pendings()) << "seed " << seed;
    EXPECT_FALSE(ops.pendings().empty()) << "seed " << seed;
    // Counted timers left stale occurrences behind, and each one counted.
    EXPECT_GT(ref.noops(), 0u) << "seed " << seed;
    // Every lane was exercised, so a bug in any of them shows in the trace.
    const Simulator::LaneInserts& lanes = engine.sim().lane_inserts();
    EXPECT_GT(lanes.fast, 0u) << "seed " << seed;
    EXPECT_GT(lanes.ring, 0u) << "seed " << seed;
    EXPECT_GT(lanes.coarse, 0u) << "seed " << seed;
    EXPECT_GT(lanes.heap, 0u) << "seed " << seed;
    if (links) {
      // Link entries fired events, among them deliveries that ran nothing
      // and deliveries tied with a calendar key.
      EXPECT_GT(engine.sim().link_events(), 0u) << "seed " << seed;
      const auto has = [&got](int tag) {
        return std::any_of(got.begin(), got.end(),
                           [tag](const TraceEntry& e) { return std::get<1>(e) == tag; });
      };
      EXPECT_TRUE(has(kLooseTag)) << "seed " << seed;
      EXPECT_TRUE(has(deliver_tag(0, 0))) << "seed " << seed;
    }
    if (fast_forwards) {
      EXPECT_GT(engine.sim().events_resolved(), 0u) << "seed " << seed;
      const bool forwarded = std::any_of(got.begin(), got.end(), [](const TraceEntry& e) {
        return std::get<1>(e) == kForwardMark;
      });
      EXPECT_TRUE(forwarded) << "seed " << seed;
    }
  }
}

TEST(SchedulerSemantics, DifferentialAgainstReferenceHeapAcrossLanes) {
  expect_matches_reference(false);
}

TEST(SchedulerSemantics, LinkEntriesDifferentialAgainstReferenceHeap) {
  expect_matches_reference(false, /*links=*/true);
}

TEST(SchedulerSemantics, FastForwardDifferentialAgainstReferenceHeap) {
  // fast_forward moves the clock past the calendar window with the queue
  // quiescent (stale keys of re-armed plain timers may still sit in it);
  // every later schedule must re-anchor or land in the right lane, and pop
  // in (time, ticket) order with the reserved tickets accounted.
  expect_matches_reference(true);
}

}  // namespace
}  // namespace pathload::sim
