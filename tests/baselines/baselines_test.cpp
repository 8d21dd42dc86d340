#include <gtest/gtest.h>

#include "baselines/btc.hpp"
#include "baselines/delphi.hpp"
#include "baselines/dispersion.hpp"
#include "baselines/topp.hpp"
#include "scenario/paper_path.hpp"
#include "scenario/sim_channel.hpp"
#include "scenario/spec.hpp"

namespace pathload::baselines {
namespace {

/// The paper path `cfg` describes, built the way every scenario is built.
scenario::ScenarioInstance paper_instance(const scenario::PaperPathConfig& cfg) {
  return scenario::ScenarioInstance{scenario::ScenarioSpec::from_paper("paper", "", cfg)};
}

scenario::PaperPathConfig single_tight_path(double utilization,
                                            Rate capacity = Rate::mbps(10)) {
  scenario::PaperPathConfig cfg;
  cfg.hops = 1;
  cfg.tight_capacity = capacity;
  cfg.tight_utilization = utilization;
  cfg.model = sim::Interarrival::kExponential;
  cfg.warmup = Duration::seconds(1);
  return cfg;
}

TEST(Cprobe, DispersionRateBetweenAvailBwAndCapacity) {
  auto bed = paper_instance(single_tight_path(0.6));  // A = 4, C = 10
  bed.start();
  scenario::SimProbeChannel ch{bed.simulator(), bed.path()};
  const Rate adr = CprobeEstimator{}.measure(ch);
  EXPECT_GT(adr.mbits_per_sec(), 4.0);
  EXPECT_LT(adr.mbits_per_sec(), 10.5);
}

TEST(Cprobe, OverestimatesAvailBwUnderLoad) {
  // The paper's central critique of cprobe (Section II): train dispersion
  // measures the ADR, not the avail-bw; under load ADR sits well above A.
  auto bed = paper_instance(single_tight_path(0.75));  // A = 2.5
  bed.start();
  scenario::SimProbeChannel ch{bed.simulator(), bed.path()};
  const Rate adr = CprobeEstimator{}.measure(ch);
  EXPECT_GT(adr.mbits_per_sec(), 2.5 * 1.3);
}

TEST(Cprobe, MatchesFluidAdrOnCbrTraffic) {
  // With smooth (CBR) cross traffic the packet simulator's dispersion rate
  // should approach the fluid-model prediction R*C/(R+lambda) with R = C
  // (the train saturates the first and only link).
  auto cfg = single_tight_path(0.5);
  cfg.model = sim::Interarrival::kConstant;
  auto bed = paper_instance(cfg);
  bed.start();
  scenario::SimProbeChannel ch{bed.simulator(), bed.path()};
  CprobeConfig cp;
  cp.trains = 2;
  const Rate adr = CprobeEstimator{cp}.measure(ch);
  // Train arrives at ~120 Mb/s >> C: exit rate ~ C/(1 + lambda/R_in) ~ C *
  // R/(R + lambda) with R = 120: 10*120/125 = 9.6 Mb/s.
  EXPECT_NEAR(adr.mbits_per_sec(), 9.6, 0.8);
}

TEST(Cprobe, EmptyOutcomeYieldsZero) {
  core::StreamOutcome empty;
  EXPECT_EQ(CprobeEstimator::train_dispersion_rate(empty, 1500), Rate::zero());
}

TEST(PacketPair, EstimatesNarrowLinkCapacity) {
  auto bed = paper_instance(single_tight_path(0.3));  // C = 10
  bed.start();
  scenario::SimProbeChannel ch{bed.simulator(), bed.path()};
  const Rate cap = PacketPairEstimator{}.measure(ch);
  EXPECT_NEAR(cap.mbits_per_sec(), 10.0, 1.5);
}

TEST(PacketPair, CapacityNotAvailBw) {
  // Packet pairs measure C regardless of load — another "what dispersion
  // really measures" data point.
  auto bed = paper_instance(single_tight_path(0.7));  // A = 3, C = 10
  bed.start();
  scenario::SimProbeChannel ch{bed.simulator(), bed.path()};
  const Rate cap = PacketPairEstimator{}.measure(ch);
  EXPECT_GT(cap.mbits_per_sec(), 7.0);
}

TEST(Topp, EstimatesAvailBwAndCapacityOnSmoothTraffic) {
  auto cfg = single_tight_path(0.5);  // A = 5, C = 10
  cfg.model = sim::Interarrival::kConstant;
  auto bed = paper_instance(cfg);
  bed.start();
  scenario::SimProbeChannel ch{bed.simulator(), bed.path()};
  ToppConfig tc;
  tc.min_rate = Rate::mbps(2);
  tc.max_rate = Rate::mbps(16);
  tc.step = Rate::mbps(0.5);
  tc.packets_per_train = 50;
  tc.trains_per_rate = 8;  // averages out CBR phase-alignment noise
  const auto est = ToppEstimator{tc}.measure(ch);
  ASSERT_TRUE(est.valid);
  EXPECT_NEAR(est.avail_bw.mbits_per_sec(), 5.0, 1.5);
  // The capacity comes from the regression slope and is the noisier of the
  // two estimates for finite trains.
  EXPECT_NEAR(est.capacity.mbits_per_sec(), 10.0, 3.5);
}

TEST(Topp, SweepShowsKneeAtAvailBw) {
  auto cfg = single_tight_path(0.5);
  cfg.model = sim::Interarrival::kConstant;
  auto bed = paper_instance(cfg);
  bed.start();
  scenario::SimProbeChannel ch{bed.simulator(), bed.path()};
  ToppConfig tc;
  tc.min_rate = Rate::mbps(2);
  tc.max_rate = Rate::mbps(14);
  tc.step = Rate::mbps(1);
  tc.packets_per_train = 50;
  const auto est = ToppEstimator{tc}.measure(ch);
  // Below A: Ro/Rm ~ 1 (within the transient expansion a finite train sees
  // as its own load pushes the queue toward a new steady state). Well
  // above A: Ro/Rm clearly > 1, and growing with Ro.
  double below_worst = 0.0;
  double above_best = 0.0;
  for (const auto& [ro, rm] : est.sweep) {
    const double ratio = ro / rm;
    if (ro < Rate::mbps(4)) below_worst = std::max(below_worst, ratio);
    if (ro > Rate::mbps(8)) above_best = std::max(above_best, ratio);
  }
  EXPECT_LT(below_worst, 1.15);
  EXPECT_GT(above_best, 1.2);
  EXPECT_GT(above_best, below_worst + 0.1);
}

TEST(Topp, InvalidWhenSweepNeverExceedsAvailBw) {
  auto cfg = single_tight_path(0.2);  // A = 8
  cfg.model = sim::Interarrival::kConstant;
  auto bed = paper_instance(cfg);
  bed.start();
  scenario::SimProbeChannel ch{bed.simulator(), bed.path()};
  ToppConfig tc;
  tc.min_rate = Rate::mbps(1);
  tc.max_rate = Rate::mbps(4);  // all below A
  tc.step = Rate::mbps(1);
  const auto est = ToppEstimator{tc}.measure(ch);
  EXPECT_FALSE(est.valid);
}

TEST(Delphi, TracksCrossTrafficOnSingleQueuePath) {
  // Delphi's assumed world: one queue of known capacity. On that topology
  // the pair identity recovers the cross-traffic rate reasonably well —
  // helped, at this operating point, by the drained-queue anchor
  // (C - L/din = 6 Mb/s) sitting near the true lambda = 5 Mb/s; the
  // baselines_table bench shows the bias once load moves away from it.
  auto cfg = single_tight_path(0.5);  // C = 10, lambda = 5, A = 5
  auto bed = paper_instance(cfg);
  bed.start();
  scenario::SimProbeChannel ch{bed.simulator(), bed.path()};
  DelphiConfig dc;
  dc.capacity = Rate::mbps(10);
  const auto est = DelphiEstimator{dc}.measure(ch);
  ASSERT_TRUE(est.valid);
  EXPECT_GT(est.usable_pairs, 30);
  EXPECT_NEAR(est.cross_traffic.mbits_per_sec(), 5.0, 1.7);
  EXPECT_NEAR(est.avail_bw.mbits_per_sec(), 5.0, 1.7);
}

TEST(Delphi, MisattributesQueueingWhenTightAndNarrowDiffer) {
  // The paper's Section II critique: with the tight link (10 Mb/s, 60%
  // used -> A = 4) upstream of an idle narrow link (5 Mb/s), Delphi's
  // single-queue model (capacity = the narrow 5 Mb/s a packet-pair tool
  // would report) misreads the tight link's queueing.
  sim::Simulator sim;
  sim::Path path{sim,
                 {{Rate::mbps(10), Duration::milliseconds(10),
                   DataSize::bytes(1'000'000)},
                  {Rate::mbps(5), Duration::milliseconds(10),
                   DataSize::bytes(1'000'000)}}};
  sim::TrafficAggregate cross{sim,  path.link(0), Rate::mbps(6), 10,
                              sim::Interarrival::kExponential,
                              sim::PacketSizeMix::paper_mix(), Rng{5}};
  cross.start();
  sim.run_for(Duration::seconds(1));
  scenario::SimProbeChannel ch{sim, path};
  DelphiConfig dc;
  dc.capacity = Rate::mbps(5);  // what packet-pair would hand it
  dc.packet_size = 400;         // probe rate L/din = 1.6 Mb/s, far from A
  const auto est = DelphiEstimator{dc}.measure(ch);
  // True path avail-bw is 4 Mb/s; the single-queue estimate lands far
  // away: the tight link's queueing is scaled by the wrong capacity and
  // the pairs that saw no expansion anchor the estimate near L/din.
  ASSERT_GT(est.usable_pairs, 0);
  EXPECT_GT(std::abs(est.avail_bw.mbits_per_sec() - 4.0), 1.0);
}

TEST(Delphi, NoUsablePairsIsInvalid) {
  // A channel that loses every second packet leaves no usable pairs.
  class HalfLossChannel final : public core::ProbeChannel {
   public:
    core::StreamOutcome run_stream(const core::StreamSpec& spec) override {
      core::StreamOutcome o;
      o.sent_count = spec.packet_count;
      core::ProbeRecord r;
      r.seq = 0;
      r.sent = now_;
      r.received = now_ + Duration::milliseconds(1);
      o.records.push_back(r);  // only the first packet survives
      now_ += spec.duration();
      return o;
    }
    void idle(Duration d) override { now_ += d; }
    TimePoint now() override { return now_; }
    Duration rtt() const override { return Duration::milliseconds(10); }

   private:
    TimePoint now_{};
  } channel;
  const auto est = DelphiEstimator{}.measure(channel);
  EXPECT_FALSE(est.valid);
  EXPECT_EQ(est.usable_pairs, 0);
}

TEST(Btc, SaturatesQuietPath) {
  scenario::PaperPathConfig cfg = single_tight_path(0.0);
  cfg.tight_capacity = Rate::mbps(8);
  auto bed = paper_instance(cfg);
  bed.start();
  BtcConfig bc;
  bc.duration = Duration::seconds(30);
  const auto result = BtcMeasurement{bc}.run(bed.simulator(), bed.path());
  EXPECT_GT(result.average_throughput.mbits_per_sec(), 6.5);
  EXPECT_FALSE(result.per_bucket.empty());
}

TEST(Btc, PerSecondThroughputIsVariable) {
  // Fig. 15's observation: 1-s BTC throughput varies widely even when the
  // 5-min average saturates the path.
  scenario::PaperPathConfig cfg = single_tight_path(0.4, Rate::mbps(8));
  cfg.buffer_drain = Duration::milliseconds(150);
  auto bed = paper_instance(cfg);
  bed.start();
  BtcConfig bc;
  bc.duration = Duration::seconds(60);
  const auto result = BtcMeasurement{bc}.run(bed.simulator(), bed.path());
  OnlineStats buckets;
  for (const auto& r : result.per_bucket) buckets.add(r.mbits_per_sec());
  EXPECT_GT(buckets.max() - buckets.min(), 1.0);
}

}  // namespace
}  // namespace pathload::baselines
