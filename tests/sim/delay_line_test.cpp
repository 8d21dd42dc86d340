// Delay-line exactness: a link's in-flight packets wait in one time-ordered
// buffer served by one re-armed timer. These tests pin that this is
// indistinguishable from one scheduled delivery per packet: the delivery
// times and order match an oracle built from the link's own RNG draws, the
// event count is one per delivery, a packet reaches the receiver bound when
// it left the link, and a link destroyed mid-flight leaves nothing behind.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/link.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace pathload::sim {
namespace {

class Collector final : public PacketHandler {
 public:
  explicit Collector(Simulator& sim) : sim_{sim} {}
  void handle(const Packet& p) override {
    seqs.push_back(p.seq);
    arrivals.push_back(sim_.now());
  }
  std::vector<std::uint32_t> seqs;
  std::vector<TimePoint> arrivals;

 private:
  Simulator& sim_;
};

Packet make_packet(Simulator& sim, std::uint32_t seq, std::int32_t size) {
  Packet p;
  p.id = sim.next_packet_id();
  p.flow = 1;
  p.seq = seq;
  p.size_bytes = size;
  p.transit = true;
  return p;
}

// Varied sizes, so serialization times differ from packet to packet.
std::int32_t size_of(std::uint32_t seq) {
  return 100 + static_cast<std::int32_t>((seq * 37) % 1400);
}

struct Expected {
  TimePoint at;
  std::uint32_t order;  // enqueue order: the FIFO tie-break
  std::uint32_t seq;
};

// The oracle sorts by (delivery time, enqueue order), which is the order a
// scheduler with one event per packet and FIFO tie-break would deliver in.
std::vector<Expected> sorted(std::vector<Expected> v) {
  std::sort(v.begin(), v.end(), [](const Expected& a, const Expected& b) {
    return a.at < b.at || (a.at == b.at && a.order < b.order);
  });
  return v;
}

constexpr std::uint32_t kPackets = 300;
constexpr std::uint64_t kImpairSeed = 4242;

LinkImpairments dup_and_jitter() {
  LinkImpairments imp;
  imp.dup = 0.3;
  imp.reorder = Duration::milliseconds(5);
  imp.seed = kImpairSeed;
  return imp;
}

TEST(DelayLine, PacketModeJitterAndDupMatchOracle) {
  // Every packet arrives at t = 0, so the link's RNG draws all duplication
  // coins first (one per arrival), then one jitter draw per forwarded copy
  // in service order. Copies serialize back to back.
  Simulator sim;
  const Rate cap = Rate::mbps(10);
  const Duration prop = Duration::milliseconds(2);
  const LinkImpairments imp = dup_and_jitter();
  Link link{sim, "l", cap, prop, DataSize::bytes(10'000'000)};
  link.set_impairments(imp);
  Collector out{sim};
  link.set_downstream(&out);
  for (std::uint32_t i = 0; i < kPackets; ++i) link.handle(make_packet(sim, i, size_of(i)));
  sim.run_all();

  Rng rng{kImpairSeed};
  std::vector<std::uint32_t> copies;  // seq of each accepted copy, in service order
  for (std::uint32_t i = 0; i < kPackets; ++i) {
    if (rng.uniform() < imp.dup) copies.push_back(i);
    copies.push_back(i);
  }
  std::vector<Expected> expected;
  TimePoint finish = TimePoint::origin();
  for (std::uint32_t k = 0; k < copies.size(); ++k) {
    finish = finish + cap.transmission_time(DataSize::bytes(size_of(copies[k])));
    Duration delay = prop;
    delay += imp.reorder * rng.uniform();
    expected.push_back({finish + delay, k, copies[k]});
  }
  expected = sorted(std::move(expected));

  ASSERT_EQ(out.seqs.size(), expected.size());
  EXPECT_GT(link.duplicates(), 0u);
  std::size_t overtaken = 0;
  for (std::size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(out.seqs[k], expected[k].seq) << "delivery " << k;
    EXPECT_EQ(out.arrivals[k], expected[k].at) << "delivery " << k;
    if (expected[k].order != k) ++overtaken;
  }
  EXPECT_GT(overtaken, 0u) << "the jitter should reorder some deliveries";
  // One service completion and one delivery per copy. A front re-armed by
  // an overtaking entry leaves a stale key, which is skipped, not counted.
  EXPECT_EQ(sim.events_processed(), 2 * copies.size());
  EXPECT_EQ(link.in_flight(), 0u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(DelayLine, FluidModeJitterAndDupMatchOracle) {
  // In fluid mode a copy enters the delay line the moment it arrives, so
  // the draws interleave per original: duplication coin, then one jitter
  // draw per accepted copy (the duplicate first). The un-jittered delivery
  // times come from an unimpaired twin link fed the same copies.
  Simulator sim;
  const Rate cap = Rate::mbps(10);
  const Duration prop = Duration::milliseconds(2);
  const LinkImpairments imp = dup_and_jitter();
  Link link{sim, "l", cap, prop, DataSize::bytes(10'000'000)};
  link.enable_fluid_mode();
  link.set_impairments(imp);
  Collector out{sim};
  link.set_downstream(&out);
  for (std::uint32_t i = 0; i < kPackets; ++i) link.handle(make_packet(sim, i, size_of(i)));
  sim.run_all();

  Simulator twin_sim;
  Link twin{twin_sim, "twin", cap, prop, DataSize::bytes(10'000'000)};
  twin.enable_fluid_mode();
  Rng rng{kImpairSeed};
  std::vector<Expected> expected;
  std::uint32_t order = 0;
  const auto copy = [&](std::uint32_t seq) {
    const auto t = twin.fluid_transit(make_packet(twin_sim, seq, size_of(seq)),
                                      TimePoint::origin());
    ASSERT_TRUE(t.has_value());
    Duration delay = *t - TimePoint::origin();
    delay += imp.reorder * rng.uniform();
    expected.push_back({TimePoint::origin() + delay, order++, seq});
  };
  for (std::uint32_t i = 0; i < kPackets; ++i) {
    if (rng.uniform() < imp.dup) copy(i);
    copy(i);
  }
  expected = sorted(std::move(expected));

  ASSERT_EQ(out.seqs.size(), expected.size());
  for (std::size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(out.seqs[k], expected[k].seq) << "delivery " << k;
    EXPECT_EQ(out.arrivals[k], expected[k].at) << "delivery " << k;
  }
  // Fluid service schedules nothing: one event per delivery.
  EXPECT_EQ(sim.events_processed(), expected.size());
}

TEST(DelayLine, EqualTimesDeliverInEnqueueOrderAgainstForeignEvents) {
  // Zero-size packets serialize instantly, so back-to-back packets share a
  // delivery time; they and foreign events scheduled around them must fire
  // in the order their tickets were taken. The second packet's key is armed
  // only when the first is delivered, after both foreign events were
  // scheduled: it must still carry the ticket it took on entry.
  Simulator sim;
  Link link{sim, "l", Rate::mbps(10), Duration::milliseconds(1), DataSize::bytes(1000)};
  std::vector<int> order;
  class Tag final : public PacketHandler {
   public:
    explicit Tag(std::vector<int>& o) : o_{o} {}
    void handle(const Packet& p) override { o_.push_back(static_cast<int>(p.seq)); }

   private:
    std::vector<int>& o_;
  } tag{order};
  link.set_downstream(&tag);
  link.enable_fluid_mode();
  link.handle(make_packet(sim, 1, 0));
  sim.schedule_in(Duration::milliseconds(1), [&order] { order.push_back(-1); });
  link.handle(make_packet(sim, 2, 0));
  sim.schedule_in(Duration::milliseconds(1), [&order] { order.push_back(-2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, -1, 2, -2}));
}

TEST(DelayLine, InFlightPacketsReachTheReceiverBoundWhenTheyLeft) {
  Simulator sim;
  // 1000 B at 10 Mb/s = 0.8 ms serialization, 10 ms propagation.
  Link link{sim, "l", Rate::mbps(10), Duration::milliseconds(10), DataSize::bytes(100'000)};
  Collector a{sim};
  Collector b{sim};
  link.set_downstream(&a);
  for (std::uint32_t i = 0; i < 4; ++i) link.handle(make_packet(sim, i, 1000));
  // By 2 ms packets 0 and 1 have left the link; 2 is on the wire, 3 queued.
  sim.run_until(TimePoint::origin() + Duration::milliseconds(2));
  EXPECT_EQ(link.in_flight(), 2u);
  link.set_downstream(&b);
  sim.run_until(TimePoint::origin() + Duration::milliseconds(3));
  // Packet 2 left at 2.4 ms, bound to b; now blackhole the rest.
  link.set_downstream(nullptr);
  sim.run_all();
  EXPECT_EQ(a.seqs, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(b.seqs, (std::vector<std::uint32_t>{2}));
  EXPECT_EQ(link.packets_forwarded(), 4u);
  EXPECT_EQ(link.in_flight(), 0u);
}

TEST(DelayLine, DestroyingALinkDiscardsItsInFlightPackets) {
  Simulator sim;
  Collector out{sim};
  auto link = std::make_unique<Link>(sim, "l", Rate::mbps(10), Duration::milliseconds(10),
                                     DataSize::bytes(100'000));
  link->set_downstream(&out);
  for (std::uint32_t i = 0; i < 8; ++i) link->handle(make_packet(sim, i, 1000));
  sim.run_until(TimePoint::origin() + Duration::milliseconds(11));
  ASSERT_EQ(out.seqs.size(), 1u);  // packet 0 arrived at 10.8 ms
  ASSERT_GT(link->in_flight(), 0u);
  link.reset();
  // The link's timers went with it: nothing of it is left to fire.
  EXPECT_EQ(sim.pending_events(), 0u);
  const std::uint64_t before = sim.events_processed();
  bool ran = false;
  sim.schedule_in(Duration::milliseconds(50), [&ran] { ran = true; });
  sim.run_all();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.events_processed(), before + 1);
  EXPECT_EQ(out.seqs.size(), 1u);
}

}  // namespace
}  // namespace pathload::sim
