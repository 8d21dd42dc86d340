#include <gtest/gtest.h>

#include <memory>

#include "sim/link.hpp"
#include "sim/simulator.hpp"
#include "sim/traffic.hpp"
#include "util/stats.hpp"

namespace pathload::sim {
namespace {

/// Swallows packets and counts them.
class Sink final : public PacketHandler {
 public:
  void handle(const Packet& p) override {
    ++count;
    bytes += p.size();
  }
  std::uint64_t count{0};
  DataSize bytes{};
};

TEST(PacketSizeMix, PaperMixMeanMatchesHandComputation) {
  // 0.4*40 + 0.5*550 + 0.1*1500 = 441 B.
  EXPECT_DOUBLE_EQ(PacketSizeMix::paper_mix().mean_bytes(), 441.0);
}

TEST(PacketSizeMix, FixedMixAlwaysSameSize) {
  Rng rng{3};
  const auto mix = PacketSizeMix::fixed(1000);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(mix.sample(rng), 1000);
  EXPECT_DOUBLE_EQ(mix.mean_bytes(), 1000.0);
}

TEST(PacketSizeMix, SamplesFollowWeights) {
  Rng rng{5};
  const auto mix = PacketSizeMix::paper_mix();
  int small = 0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) {
    if (mix.sample(rng) == 40) ++small;
  }
  EXPECT_NEAR(small / static_cast<double>(n), 0.4, 0.01);
}

class CrossTrafficRateTest
    : public ::testing::TestWithParam<Interarrival> {};

TEST_P(CrossTrafficRateTest, LongRunRateMatchesConfigured) {
  Simulator sim;
  Sink sink;
  CrossTrafficSource src{sim,
                         sink,
                         Rate::mbps(6),
                         GetParam(),
                         PacketSizeMix::paper_mix(),
                         Rng{42}};
  src.start();
  const Duration window = Duration::seconds(60);
  sim.run_for(window);
  const Rate achieved = rate_of(sink.bytes, window);
  // Pareto converges slowest; 10% tolerance over 60 s covers all models.
  EXPECT_NEAR(achieved.mbits_per_sec(), 6.0, 0.6) << "model " << static_cast<int>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllModels, CrossTrafficRateTest,
                         ::testing::Values(Interarrival::kExponential,
                                           Interarrival::kPareto,
                                           Interarrival::kConstant));

TEST(CrossTrafficSource, HandlerStoppingItsSourceEndsEmission) {
  // A source that feeds no link is off its entry while it hands a packet
  // over, as a fired timer was disarmed: the handler sees it not pending
  // and may stop it, and the source then stays stopped.
  Simulator sim;
  struct Stopper final : PacketHandler {
    void handle(const Packet&) override {
      ++count;
      pending_seen = sim->pending_events();
      if (count == 3) src->stop();
    }
    Simulator* sim{nullptr};
    CrossTrafficSource* src{nullptr};
    int count{0};
    std::size_t pending_seen{99};
  } stopper;
  CrossTrafficSource src{sim,    stopper, Rate::mbps(8), Interarrival::kConstant,
                         PacketSizeMix::fixed(1000), Rng{1}};
  stopper.sim = &sim;
  stopper.src = &src;
  src.start();
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_for(Duration::seconds(1));
  EXPECT_EQ(stopper.count, 3);
  EXPECT_EQ(stopper.pending_seen, 0u);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.link_events(), 3u);
}

TEST(CrossTrafficSource, LinkDestroyedFirstDropsItsSourcesEvents) {
  // The sources' pending emissions live in the link's entry: destroying
  // the link drops them, with its service and delivery events, and the
  // sources outlive it harmlessly.
  Simulator sim;
  Sink sink;
  auto link = std::make_unique<Link>(sim, "l", Rate::mbps(10), Duration::milliseconds(5),
                                     DataSize::bytes(1'000'000));
  link->set_downstream(&sink);
  TrafficAggregate agg{sim,  *link, Rate::mbps(6), 4, Interarrival::kExponential,
                       PacketSizeMix::paper_mix(), Rng{9}};
  agg.start();
  sim.run_for(Duration::milliseconds(100));
  EXPECT_GE(sim.pending_events(), 4u);
  link.reset();
  EXPECT_EQ(sim.pending_events(), 0u);
  const std::uint64_t events = sim.events_processed();
  sim.run_for(Duration::milliseconds(100));
  EXPECT_EQ(sim.events_processed(), events);
  agg.stop();
  agg.start();  // nothing to schedule into
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(CrossTrafficSource, StopHaltsEmission) {
  Simulator sim;
  Sink sink;
  CrossTrafficSource src{sim,    sink, Rate::mbps(6), Interarrival::kConstant,
                         PacketSizeMix::fixed(500), Rng{1}};
  src.start();
  sim.run_for(Duration::seconds(1));
  const auto count_at_stop = sink.count;
  EXPECT_GT(count_at_stop, 0u);
  src.stop();
  sim.run_for(Duration::seconds(1));
  EXPECT_EQ(sink.count, count_at_stop);
}

TEST(CrossTrafficSource, ConstantModelIsPeriodic) {
  Simulator sim;
  Sink sink;
  // 500 B at 4 Mb/s -> one packet per ms.
  CrossTrafficSource src{sim,    sink, Rate::mbps(4), Interarrival::kConstant,
                         PacketSizeMix::fixed(500), Rng{1}};
  src.start();
  sim.run_for(Duration::milliseconds(10.5));
  EXPECT_EQ(sink.count, 10u);
}

TEST(CrossTrafficSource, RejectsZeroRate) {
  Simulator sim;
  Sink sink;
  EXPECT_THROW(CrossTrafficSource(sim, sink, Rate::zero(), Interarrival::kConstant,
                                  PacketSizeMix::fixed(500), Rng{1}),
               std::invalid_argument);
}

TEST(CrossTrafficSource, RejectsParetoAlphaAtOrBelowOne) {
  // An infinite-mean Pareto must fail loudly at construction, not livelock
  // on zero interarrivals.
  Simulator sim;
  Sink sink;
  EXPECT_THROW(CrossTrafficSource(sim, sink, Rate::mbps(1), Interarrival::kPareto,
                                  PacketSizeMix::fixed(500), Rng{1},
                                  /*pareto_alpha=*/1.0),
               std::invalid_argument);
  // Alpha is irrelevant to non-Pareto models (matching the old lazy check).
  EXPECT_NO_THROW(CrossTrafficSource(sim, sink, Rate::mbps(1), Interarrival::kConstant,
                                     PacketSizeMix::fixed(500), Rng{1},
                                     /*pareto_alpha=*/1.0));
}

TEST(CrossTrafficSource, PacketsAreHopLocal) {
  Simulator sim;
  Sink sink;
  CrossTrafficSource src{sim,    sink, Rate::mbps(1), Interarrival::kConstant,
                         PacketSizeMix::fixed(500), Rng{1}};
  src.start();
  sim.run_for(Duration::milliseconds(50));
  EXPECT_GT(sink.count, 0u);
  // Verified via the handler: every cross packet must be non-transit.
  // (Sink only sees what the source emitted.)
  class Checker final : public PacketHandler {
   public:
    void handle(const Packet& p) override {
      EXPECT_FALSE(p.transit);
      EXPECT_EQ(p.kind, PacketKind::kCrossTraffic);
      EXPECT_EQ(p.flow, kCrossTrafficFlow);
    }
  } checker;
  CrossTrafficSource src2{sim,    checker, Rate::mbps(1), Interarrival::kConstant,
                          PacketSizeMix::fixed(500), Rng{2}};
  src2.start();
  sim.run_for(Duration::milliseconds(50));
}

TEST(TrafficAggregate, SplitsRateAcrossSources) {
  Simulator sim;
  Sink sink;
  TrafficAggregate agg{sim,  sink, Rate::mbps(8), 10, Interarrival::kExponential,
                       PacketSizeMix::paper_mix(), Rng{7}};
  EXPECT_EQ(agg.source_count(), 10);
  agg.start();
  const Duration window = Duration::seconds(30);
  sim.run_for(window);
  const Rate achieved = rate_of(agg.bytes_sent(), window);
  EXPECT_NEAR(achieved.mbits_per_sec(), 8.0, 0.8);
}

TEST(TrafficAggregate, MoreSourcesSmoothTraffic) {
  // The Fig. 12 mechanism: at equal aggregate rate, more independent Pareto
  // sources produce a smoother per-interval byte process.
  auto burstiness = [](int sources) {
    Simulator sim;
    Sink sink;
    TrafficAggregate agg{sim,  sink, Rate::mbps(8), sources, Interarrival::kPareto,
                         PacketSizeMix::fixed(500), Rng{11}};
    agg.start();
    OnlineStats per_window;
    DataSize last{};
    for (int w = 0; w < 400; ++w) {
      sim.run_for(Duration::milliseconds(50));
      per_window.add((agg.bytes_sent() - last).bits());
      last = agg.bytes_sent();
    }
    return per_window.cv();
  };
  EXPECT_GT(burstiness(2), burstiness(50));
}

TEST(TrafficAggregate, RejectsNonPositiveSourceCount) {
  Simulator sim;
  Sink sink;
  EXPECT_THROW(TrafficAggregate(sim, sink, Rate::mbps(1), 0,
                                Interarrival::kExponential,
                                PacketSizeMix::paper_mix(), Rng{1}),
               std::invalid_argument);
}

}  // namespace
}  // namespace pathload::sim
