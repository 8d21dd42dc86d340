#include <gtest/gtest.h>

#include "core/tracker.hpp"
#include "scenario/paper_path.hpp"
#include "scenario/sim_channel.hpp"
#include "scenario/spec.hpp"

namespace pathload::scenario {
namespace {

/// The paper path `cfg` describes, built the way every scenario is built.
ScenarioInstance paper_instance(const PaperPathConfig& cfg) {
  return ScenarioInstance{ScenarioSpec::from_paper("paper", "", cfg)};
}

TEST(TrackerOverSim, TracksSimulatedPath) {
  PaperPathConfig cfg;
  cfg.hops = 1;
  cfg.tight_capacity = Rate::mbps(10);
  cfg.tight_utilization = 0.6;
  cfg.model = sim::Interarrival::kExponential;
  cfg.warmup = Duration::seconds(1);
  ScenarioInstance bed = paper_instance(cfg);
  bed.start();
  SimProbeChannel channel{bed.simulator(), bed.path()};

  core::AvailBwTracker::Config tcfg;
  tcfg.tool.initial_rmax = Rate::mbps(12);
  core::AvailBwTracker tracker{channel, tcfg};
  const int runs = tracker.run_for(Duration::seconds(60));
  EXPECT_GE(runs, 2);
  ASSERT_TRUE(tracker.weighted_center().has_value());
  EXPECT_NEAR(tracker.weighted_center()->mbits_per_sec(), 4.0, 1.3);
  ASSERT_TRUE(tracker.overall_band().has_value());
  EXPECT_TRUE(tracker.overall_band()->contains(Rate::mbps(4.0)));
}

TEST(TrackerOverSim, DetectsLoadIncrease) {
  // Start at 30% load, then raise it mid-tracking by adding traffic:
  // the smoothed center must come down.
  PaperPathConfig cfg;
  cfg.hops = 1;
  cfg.tight_capacity = Rate::mbps(10);
  cfg.tight_utilization = 0.3;
  cfg.model = sim::Interarrival::kExponential;
  cfg.warmup = Duration::seconds(1);
  ScenarioInstance bed = paper_instance(cfg);
  bed.start();
  SimProbeChannel channel{bed.simulator(), bed.path()};

  core::AvailBwTracker::Config tcfg;
  tcfg.tool.initial_rmax = Rate::mbps(12);
  tcfg.ewma_alpha = 0.6;
  core::AvailBwTracker tracker{channel, tcfg};
  for (int i = 0; i < 3; ++i) tracker.measure_once();
  const double before = tracker.smoothed_center()->mbits_per_sec();

  // Extra 4 Mb/s of cross traffic: avail-bw drops from 7 to ~3 Mb/s.
  sim::TrafficAggregate extra{bed.simulator(),  bed.tight_link(), Rate::mbps(4), 10,
                              sim::Interarrival::kExponential,
                              sim::PacketSizeMix::paper_mix(), Rng{77}};
  extra.start();
  bed.simulator().run_for(Duration::seconds(1));
  for (int i = 0; i < 5; ++i) tracker.measure_once();
  const double after = tracker.smoothed_center()->mbits_per_sec();

  EXPECT_GT(before, after + 2.0);
  EXPECT_NEAR(before, 7.0, 1.5);
  EXPECT_NEAR(after, 3.0, 1.5);
}

}  // namespace
}  // namespace pathload::scenario
