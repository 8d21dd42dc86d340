// The fluid workload formulation of Link's engine-v2 mode, checked against
// the paper's closed-form fluid FIFO model (fluid::FluidPath) and against
// the v1 packet link where the two must agree exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "fluid/fluid_model.hpp"
#include "sim/fluid_traffic.hpp"
#include "sim/link.hpp"
#include "sim/monitor.hpp"
#include "sim/simulator.hpp"
#include "util/counter_rng.hpp"

namespace pathload::sim {
namespace {

class Collector final : public PacketHandler {
 public:
  explicit Collector(Simulator& sim) : sim_{sim} {}
  void handle(const Packet& p) override {
    packets.push_back(p);
    arrivals.push_back(sim_.now());
  }
  std::vector<Packet> packets;
  std::vector<TimePoint> arrivals;

 private:
  Simulator& sim_;
};

Packet make_packet(Simulator& sim, std::int32_t size, std::uint32_t flow = 1) {
  Packet p;
  p.id = sim.next_packet_id();
  p.flow = flow;
  p.size_bytes = size;
  p.transit = true;
  return p;
}

TEST(FluidLink, UnloadedDeliveryMatchesPacketLink) {
  // With zero fluid rate the workload variable reproduces the packet
  // link's FIFO schedule exactly: a burst of equal packets departs spaced
  // by one serialization time each.
  Simulator sim;
  Link link{sim, "l", Rate::mbps(10), Duration::milliseconds(5),
            DataSize::bytes(100000)};
  link.enable_fluid_mode();
  Collector out{sim};
  link.set_downstream(&out);
  for (int i = 0; i < 3; ++i) link.handle(make_packet(sim, 1500));
  sim.run_all();
  ASSERT_EQ(out.arrivals.size(), 3u);
  // 1500 B at 10 Mb/s = 1.2 ms serialization; +5 ms propagation.
  EXPECT_EQ(out.arrivals[0] - TimePoint::origin(), Duration::milliseconds(6.2));
  EXPECT_EQ(out.arrivals[1] - out.arrivals[0], Duration::milliseconds(1.2));
  EXPECT_EQ(out.arrivals[2] - out.arrivals[1], Duration::milliseconds(1.2));
}

TEST(FluidLink, OwdSlopeMatchesFluidModel) {
  // A periodic stream offered above the avail-bw through one fluid-loaded
  // link must see one-way delays growing at exactly the Appendix Eq. (22)
  // rate, which FluidPath::owd_delta_per_packet computes in closed form.
  const Rate capacity = Rate::mbps(10);
  const Rate cross = Rate::mbps(6);
  const Rate input = Rate::mbps(5);  // avail-bw is 4 Mb/s, so 5 overloads
  const DataSize size = DataSize::bytes(1000);

  Simulator sim;
  Link link{sim, "l", capacity, Duration::milliseconds(5),
            DataSize::bytes(10'000'000)};
  link.enable_fluid_mode();
  link.add_fluid_rate(cross);
  Collector out{sim};
  link.set_downstream(&out);

  const Duration period = Duration::seconds(size.bits() / input.bits_per_sec());
  const int packets = 50;
  const auto send = [&sim, &link, size] {
    link.handle(make_packet(sim, static_cast<std::int32_t>(size.byte_count())));
  };
  for (int i = 0; i < packets; ++i) {
    sim.schedule_at(TimePoint::origin() + period * static_cast<double>(i), [&send] { send(); });
  }
  sim.run_all();
  ASSERT_EQ(out.arrivals.size(), static_cast<std::size_t>(packets));

  fluid::FluidPath model{{fluid::FluidLink{capacity, cross}}};
  const Duration predicted = model.owd_delta_per_packet(input, size);
  ASSERT_GT(predicted, Duration::zero());
  // Send times are i*period, so consecutive OWD deltas are
  // (arrival[i+1]-arrival[i]) - period. Skip the first few packets (the
  // queue is still filling from empty).
  for (int i = 10; i + 1 < packets; ++i) {
    const Duration delta = (out.arrivals[static_cast<std::size_t>(i + 1)] -
                            out.arrivals[static_cast<std::size_t>(i)]) -
                           period;
    EXPECT_NEAR(delta.secs(), predicted.secs(), 5e-9) << "packet " << i;
  }
}

TEST(FluidLink, BytesForwardedIntegratesTheFluid) {
  Simulator sim;
  Link link{sim, "l", Rate::mbps(10), Duration::zero(), DataSize::bytes(100000)};
  link.enable_fluid_mode();
  link.add_fluid_rate(Rate::mbps(6));
  sim.run_for(Duration::seconds(2));
  // 6 Mb/s for 2 s = 1.5 MB.
  EXPECT_NEAR(static_cast<double>(link.bytes_forwarded().byte_count()),
              1.5e6, 1.0);
  // A packet adds its own bytes on top.
  link.set_downstream(nullptr);
  link.handle(make_packet(sim, 1000));
  EXPECT_NEAR(static_cast<double>(link.bytes_forwarded().byte_count()),
              1.5e6 + 1000.0, 1.0);
}

TEST(FluidLink, UtilizationMonitorReadsTheFluidLoad) {
  Simulator sim;
  Link link{sim, "l", Rate::mbps(10), Duration::zero(), DataSize::bytes(100000)};
  link.enable_fluid_mode();
  link.add_fluid_rate(Rate::mbps(6));
  UtilizationMonitor mon{sim, link, Duration::milliseconds(100)};
  mon.start();
  sim.run_for(Duration::seconds(1));
  EXPECT_NEAR(mon.average_utilization(), 0.6, 0.01);
  EXPECT_NEAR(mon.average_avail_bw().mbits_per_sec(), 4.0, 0.1);
}

TEST(FluidLink, OverloadedFluidClampsAtBufferAndDropsPackets) {
  Simulator sim;
  // Tiny buffer: 10000 B at 10 Mb/s drains in 8 ms.
  Link link{sim, "l", Rate::mbps(10), Duration::zero(), DataSize::bytes(10000)};
  link.enable_fluid_mode();
  link.add_fluid_rate(Rate::mbps(20));  // 2x overload: workload grows
  Collector out{sim};
  link.set_downstream(&out);
  sim.run_for(Duration::seconds(1));
  // The workload is pinned at the buffer limit, so a full-size packet no
  // longer fits and is drop-tailed.
  link.handle(make_packet(sim, 1500));
  EXPECT_EQ(link.drops(), 1u);
  EXPECT_EQ(link.drops_for_flow(1), 1u);
  sim.run_all();
  EXPECT_TRUE(out.packets.empty());
  // Forwarded fluid saturates at capacity, not at the offered 20 Mb/s.
  EXPECT_NEAR(static_cast<double>(link.bytes_forwarded().byte_count()),
              10e6 / 8.0, 2000.0);
}

TEST(FluidLink, BacklogDelayTracksTheWorkload) {
  Simulator sim;
  Link link{sim, "l", Rate::mbps(10), Duration::zero(),
            DataSize::bytes(1'000'000)};
  link.enable_fluid_mode();
  link.set_downstream(nullptr);
  EXPECT_EQ(link.backlog_delay(), Duration::zero());
  // One 1250 B packet = 1 ms of workload, draining at full rate.
  link.handle(make_packet(sim, 1250));
  EXPECT_NEAR(link.backlog_delay().secs(), 1e-3, 1e-9);
  sim.run_for(Duration::milliseconds(0.5));
  EXPECT_NEAR(link.backlog_delay().secs(), 0.5e-3, 1e-9);
  sim.run_for(Duration::milliseconds(10));
  EXPECT_EQ(link.backlog_delay(), Duration::zero());
}

/// The fluid recursion Link documents, with every quotient computed afresh
/// at every step: the reference for the quotients Link keeps (W's drift,
/// its ceiling, the last packet size's transmission time).
class FluidReference {
 public:
  FluidReference(Rate capacity, Duration prop, DataSize buffer)
      : capacity_{capacity}, prop_{prop}, buffer_{buffer} {}

  void add_rate(TimePoint now, Rate delta) {
    settle(now);
    rate_ = std::max(0.0, rate_ + delta.bits_per_sec());
  }
  std::optional<TimePoint> transit(TimePoint at, DataSize size) {
    settle(at);
    const Duration tx = capacity_.transmission_time(size);
    if (capacity_.bytes_in(Duration::seconds(work_)) + size > buffer_) {
      ++drops_;
      return std::nullopt;
    }
    const Duration wait = Duration::seconds(work_) + tx;
    work_ += tx.secs();
    packet_bytes_ += size;
    return at + (wait + prop_);
  }
  std::int64_t bytes_forwarded(TimePoint now) const {
    const double dt = std::max(0.0, (now - last_).secs());
    const double fluid = bytes_ + std::min(rate_, capacity_.bits_per_sec()) * dt / 8.0;
    return packet_bytes_.byte_count() + static_cast<std::int64_t>(fluid);
  }
  Duration backlog_delay(TimePoint now) const {
    const double dt = std::max(0.0, (now - last_).secs());
    return Duration::seconds(
        std::max(0.0, work_ + dt * (rate_ / capacity_.bits_per_sec() - 1.0)));
  }
  std::uint64_t drops() const { return drops_; }

 private:
  void settle(TimePoint now) {
    const double dt = (now - last_).secs();
    if (dt <= 0.0) return;
    const double cap = capacity_.bits_per_sec();
    bytes_ += std::min(rate_, cap) * dt / 8.0;
    work_ += dt * (rate_ / cap - 1.0);
    work_ = std::max(0.0, work_);
    work_ = std::min(work_, capacity_.transmission_time(buffer_).secs());
    last_ = now;
  }

  Rate capacity_;
  Duration prop_;
  DataSize buffer_;
  double rate_{0.0};
  double work_{0.0};
  double bytes_{0.0};
  TimePoint last_{};
  DataSize packet_bytes_{};
  std::uint64_t drops_{0};
};

/// Records each delivered packet's time by its seq.
class SeqCollector final : public PacketHandler {
 public:
  explicit SeqCollector(Simulator& sim) : sim_{sim} {}
  void handle(const Packet& p) override { at[p.seq] = sim_.now(); }
  std::map<std::uint32_t, TimePoint> at;

 private:
  Simulator& sim_;
};

TEST(FluidLink, BurstKernelMatchesPacketAtATimeAndTheReference) {
  // One packet sequence fed to twin fluid links: one packet at a time
  // through handle() on one, as serve_fluid_burst bursts on the other,
  // and to the recursion recomputed from scratch. Rates change between
  // bursts (the fluid once oversubscribes the link, so the workload pins
  // at the buffer and packets are drop-tailed), and the packet size
  // changes in the middle of two bursts (the burst twin serves such a
  // burst as two back to back).
  const Rate capacity = Rate::mbps(10);
  const Duration prop = Duration::milliseconds(3);
  const DataSize buffer = DataSize::bytes(20'000);
  struct Burst {
    double rate_at_ms;
    double delta_mbps;
    double first_ms;
    double gap_ms;
    int count;
    std::int32_t size;
    std::int32_t size_after;  // from packet count / 2 on
  };
  const Burst bursts[] = {
      {0.0, 4.0, 1.0, 0.5, 12, 1000, 400},
      {20.0, 16.0, 60.0, 0.2, 8, 1500, 1500},
      {100.0, -18.0, 100.5, 1.0, 10, 700, 1200},
      {150.0, 3.0, 160.0, 0.3, 6, 1200, 1200},
  };
  const TimePoint end = TimePoint::origin() + Duration::milliseconds(250);

  Simulator sim_a;
  Link a{sim_a, "a", capacity, prop, buffer};
  a.enable_fluid_mode();
  SeqCollector out_a{sim_a};
  a.set_downstream(&out_a);
  Simulator sim_b;
  Link b{sim_b, "b", capacity, prop, buffer};
  b.enable_fluid_mode();
  SeqCollector out_b{sim_b};
  b.set_downstream(&out_b);
  FluidReference ref{capacity, prop, buffer};

  std::vector<Packet> packets_a;  // handle()'s twin's, by seq
  const auto handle_a = [&a, &packets_a](std::uint32_t s) { a.handle(packets_a[s]); };
  std::map<std::uint32_t, TimePoint> want;  // the reference's deliveries
  std::map<std::uint32_t, TimePoint> burst_at;
  std::uint32_t seq = 0;
  for (std::size_t k = 0; k < std::size(bursts); ++k) {
    const Burst& u = bursts[k];
    const TimePoint change = TimePoint::origin() + Duration::milliseconds(u.rate_at_ms);
    const Rate delta = Rate::mbps(u.delta_mbps);
    sim_a.schedule_at(change, [&a, delta] { a.add_fluid_rate(delta); });
    sim_b.run_until(change);
    b.add_fluid_rate(delta);
    ref.add_rate(change, delta);

    std::vector<Link::BurstHop> arrivals;
    std::int32_t size = u.size;
    const auto serve = [&] {
      Packet proto = make_packet(sim_b, size);
      std::vector<Link::BurstHop> launched;
      b.serve_fluid_burst(proto, arrivals, launched);
      for (const Link::BurstHop& l : launched) burst_at[l.seq] = l.at;
      arrivals.clear();
    };
    for (int i = 0; i < u.count; ++i, ++seq) {
      if (i == u.count / 2 && u.size_after != size) {
        serve();
        size = u.size_after;
      }
      const TimePoint at =
          TimePoint::origin() + Duration::milliseconds(u.first_ms + i * u.gap_ms);
      packets_a.push_back(make_packet(sim_a, size));
      packets_a.back().seq = seq;
      sim_a.schedule_at(at, [&handle_a, seq] { handle_a(seq); });
      arrivals.push_back(Link::BurstHop{at, seq});
      if (const auto delivery = ref.transit(at, DataSize::bytes(size))) want[seq] = *delivery;
    }
    serve();

    // Both twins and the reference at one instant past the burst.
    const TimePoint probe = k + 1 < std::size(bursts)
                                ? TimePoint::origin() +
                                      Duration::milliseconds(bursts[k + 1].rate_at_ms - 0.001)
                                : end;
    sim_a.run_until(probe);
    sim_b.run_until(probe);
    SCOPED_TRACE("after burst " + std::to_string(k));
    EXPECT_EQ(a.bytes_forwarded().byte_count(), ref.bytes_forwarded(probe));
    EXPECT_EQ(b.bytes_forwarded().byte_count(), ref.bytes_forwarded(probe));
    EXPECT_EQ(a.backlog_delay(), ref.backlog_delay(probe));
    EXPECT_EQ(b.backlog_delay(), ref.backlog_delay(probe));
  }

  EXPECT_EQ(out_a.at, want);
  EXPECT_EQ(burst_at, want);
  EXPECT_TRUE(out_b.at.empty());  // a burst hands nothing on
  EXPECT_EQ(ref.drops(), 9u);  // the whole second burst, the third one's first
  EXPECT_EQ(a.drops(), ref.drops());
  EXPECT_EQ(b.drops(), ref.drops());
  EXPECT_EQ(a.drops_for_flow(1), ref.drops());
  EXPECT_EQ(b.drops_for_flow(1), ref.drops());
  EXPECT_EQ(a.packets_forwarded(), want.size());
  EXPECT_EQ(b.packets_forwarded(), want.size());
}

TEST(FluidTraffic, ConstantSourceAccountsOfferedBytes) {
  Simulator sim;
  Link link{sim, "l", Rate::mbps(10), Duration::zero(), DataSize::bytes(100000)};
  link.enable_fluid_mode();
  FluidConstantSource src{sim, link, Rate::mbps(4)};
  src.start();
  sim.run_for(Duration::seconds(3));
  EXPECT_NEAR(static_cast<double>(src.bytes_sent().byte_count()), 1.5e6, 1.0);
  src.stop();
  EXPECT_EQ(link.fluid_rate(), Rate::zero());
  sim.run_for(Duration::seconds(1));
  EXPECT_NEAR(static_cast<double>(src.bytes_sent().byte_count()), 1.5e6, 1.0);
}

TEST(FluidTraffic, OnOffSourceHitsItsMeanLoad) {
  Simulator sim;
  Link link{sim, "l", Rate::mbps(10), Duration::zero(),
            DataSize::bytes(1'000'000)};
  link.enable_fluid_mode();
  OnOffParams params;
  params.peak_rate = Rate::mbps(9.5);
  params.mean_burst = DataSize::bytes(30'000);
  params.burst_alpha = 1.5;
  FluidOnOffSource src{sim, link, Rate::mbps(4), params, CounterRng{7, 0}};
  src.start();
  sim.run_for(Duration::seconds(200));
  const double offered_rate =
      static_cast<double>(src.bytes_sent().byte_count()) * 8.0 / 200.0;
  // Pareto burst sizes with alpha 1.5 converge slowly; 25% is enough to
  // catch a structural bookkeeping error without being flaky.
  EXPECT_NEAR(offered_rate, 4e6, 1e6);
  EXPECT_GT(src.bursts_started(), 100u);
}

TEST(FluidTraffic, RampSourceFollowsTheProfile) {
  Simulator sim;
  Link link{sim, "l", Rate::mbps(10), Duration::zero(),
            DataSize::bytes(1'000'000)};
  link.enable_fluid_mode();
  RampParams params;
  params.start_rate = Rate::mbps(2);
  params.end_rate = Rate::mbps(8);
  params.ramp_start = Duration::seconds(1);
  params.ramp_end = Duration::seconds(3);
  FluidRampSource src{sim, link, params};
  src.start();
  sim.run_for(Duration::milliseconds(500));
  EXPECT_NEAR(link.fluid_rate().mbits_per_sec(), 2.0, 1e-9);
  sim.run_for(Duration::milliseconds(1500));  // t = 2 s: mid-ramp
  EXPECT_NEAR(link.fluid_rate().mbits_per_sec(), 5.0, 0.35);
  sim.run_for(Duration::seconds(2));  // t = 4 s: held at the end rate
  EXPECT_NEAR(link.fluid_rate().mbits_per_sec(), 8.0, 1e-9);
  // Offered bytes integrate the trapezoid: 2*1 + (2+8)/2*2 + 8*1 = 20 Mb.
  EXPECT_NEAR(static_cast<double>(src.bytes_sent().byte_count()) * 8.0, 20e6,
              0.5e6);
}

TEST(FluidTraffic, RampStepAndWaveProfile) {
  Simulator sim;
  Link link{sim, "l", Rate::mbps(10), Duration::zero(),
            DataSize::bytes(1'000'000)};
  link.enable_fluid_mode();
  RampParams params;
  params.start_rate = Rate::mbps(3);
  params.end_rate = Rate::mbps(7);
  params.ramp_start = Duration::seconds(1);
  params.ramp_end = Duration::seconds(1);  // instantaneous step
  params.back_rate = Rate::mbps(3);
  params.back_start = Duration::seconds(2);
  params.back_end = Duration::seconds(2);  // instantaneous return
  FluidRampSource src{sim, link, params};
  src.start();
  sim.run_for(Duration::milliseconds(999));
  EXPECT_NEAR(link.fluid_rate().mbits_per_sec(), 3.0, 1e-9);
  sim.run_for(Duration::milliseconds(501));  // t = 1.5 s
  EXPECT_NEAR(link.fluid_rate().mbits_per_sec(), 7.0, 1e-9);
  sim.run_for(Duration::seconds(1));  // t = 2.5 s: back down
  EXPECT_NEAR(link.fluid_rate().mbits_per_sec(), 3.0, 1e-9);
}

}  // namespace
}  // namespace pathload::sim
