#include <gtest/gtest.h>

#include "scenario/experiment.hpp"
#include "scenario/paper_path.hpp"
#include "scenario/spec.hpp"
#include "sim/monitor.hpp"

namespace pathload::scenario {
namespace {

TEST(PaperPathConfig, DerivedQuantities) {
  PaperPathConfig cfg;
  cfg.tight_capacity = Rate::mbps(10);
  cfg.tight_utilization = 0.6;
  cfg.beta = 2.0;
  cfg.nontight_utilization = 0.6;
  EXPECT_EQ(cfg.tight_avail_bw(), Rate::mbps(4));
  // Cx = beta * At / (1 - ux) = 2*4/0.4 = 20.
  EXPECT_EQ(cfg.nontight_capacity(), Rate::mbps(20));
}

TEST(PaperPathInstance, TightLinkIsMiddleHop) {
  PaperPathConfig cfg;
  cfg.hops = 5;
  ScenarioInstance bed{ScenarioSpec::from_paper("paper", "", cfg)};
  EXPECT_EQ(bed.tight_index(), 2u);
  EXPECT_EQ(bed.path().hop_count(), 5u);
  EXPECT_EQ(bed.tight_link().capacity(), cfg.tight_capacity);
  for (std::size_t i = 0; i < bed.path().hop_count(); ++i) {
    if (i != bed.tight_index()) {
      EXPECT_EQ(bed.path().link(i).capacity(), cfg.nontight_capacity());
    }
  }
}

TEST(PaperPathInstance, RejectsBadConfig) {
  PaperPathConfig no_hops;
  no_hops.hops = 0;
  EXPECT_THROW(ScenarioSpec::from_paper("paper", "", no_hops), SpecError);
  PaperPathConfig overloaded;
  overloaded.tight_utilization = 1.0;
  EXPECT_THROW(ScenarioSpec::from_paper("paper", "", overloaded), SpecError);
  PaperPathConfig unbuffered;
  unbuffered.buffer_drain = Duration::zero();
  EXPECT_THROW(ScenarioInstance{ScenarioSpec::from_paper("paper", "", unbuffered)},
               SpecError);
}

TEST(PaperPathInstance, WarmupProducesConfiguredUtilization) {
  PaperPathConfig cfg;
  cfg.hops = 1;
  cfg.tight_capacity = Rate::mbps(10);
  cfg.tight_utilization = 0.6;
  cfg.model = sim::Interarrival::kExponential;
  cfg.warmup = Duration::seconds(1);
  ScenarioInstance bed{ScenarioSpec::from_paper("paper", "", cfg)};
  bed.start();
  sim::UtilizationMonitor monitor{bed.simulator(), bed.tight_link(),
                                  Duration::seconds(20)};
  monitor.start();
  bed.simulator().run_for(Duration::seconds(21));
  ASSERT_FALSE(monitor.readings().empty());
  EXPECT_NEAR(monitor.readings().front().utilization, 0.6, 0.04);
}

TEST(PaperPathInstance, BetaOneMakesAllLinksEquallyTight) {
  PaperPathConfig cfg;
  cfg.hops = 3;
  cfg.beta = 1.0;
  cfg.tight_utilization = 0.6;
  cfg.nontight_utilization = 0.6;
  const ScenarioSpec spec = ScenarioSpec::from_paper("paper", "", cfg);
  ASSERT_EQ(spec.hops.size(), 3u);
  for (const HopDecl& hop : spec.hops) {
    const Rate avail = hop.capacity * (1.0 - hop.traffic.utilization);
    EXPECT_DOUBLE_EQ(avail.bits_per_sec(), spec.avail_bw().bits_per_sec());
  }
}

TEST(PaperPathInstance, ZeroUtilizationMeansNoTraffic) {
  PaperPathConfig cfg;
  cfg.hops = 1;
  cfg.tight_utilization = 0.0;
  ScenarioInstance bed{ScenarioSpec::from_paper("paper", "", cfg)};
  bed.start();
  bed.simulator().run_for(Duration::seconds(2));
  EXPECT_EQ(bed.tight_link().bytes_forwarded(), DataSize::bytes(0));
}

TEST(PaperPathInstance, SeedsGiveReproducibleTraffic) {
  auto run = [](std::uint64_t seed) {
    PaperPathConfig cfg;
    cfg.hops = 1;
    cfg.seed = seed;
    cfg.warmup = Duration::seconds(2);
    ScenarioInstance bed{ScenarioSpec::from_paper("paper", "", cfg)};
    bed.start();
    return bed.tight_link().bytes_forwarded();
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST(RepeatedRuns, StatisticsAggregateCorrectly) {
  RepeatedRuns rr;
  for (double low : {2.0, 3.0, 4.0}) {
    core::PathloadResult r;
    r.range = {Rate::mbps(low), Rate::mbps(low + 2.0)};
    r.fleets = 5;
    r.elapsed = Duration::seconds(10);
    rr.results.push_back(r);
  }
  EXPECT_EQ(rr.mean_low(), Rate::mbps(3.0));
  EXPECT_EQ(rr.mean_high(), Rate::mbps(5.0));
  EXPECT_DOUBLE_EQ(rr.mean_fleets(), 5.0);
  EXPECT_EQ(rr.mean_elapsed(), Duration::seconds(10));
  // truth = 4.2: contained in [3,5] and [4,6] but not [2,4].
  EXPECT_NEAR(rr.coverage(Rate::mbps(4.2)), 2.0 / 3.0, 1e-12);
  EXPECT_EQ(rr.relative_variations().size(), 3u);
}

TEST(RepeatedRuns, EmptyIsSafe) {
  RepeatedRuns rr;
  EXPECT_EQ(rr.coverage(Rate::mbps(1)), 0.0);
  EXPECT_EQ(rr.mean_fleets(), 0.0);
  EXPECT_EQ(rr.mean_elapsed(), Duration::zero());
}

}  // namespace
}  // namespace pathload::scenario
