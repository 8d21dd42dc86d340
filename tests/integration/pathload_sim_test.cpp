#include <gtest/gtest.h>

#include "core/session.hpp"
#include "scenario/experiment.hpp"
#include "scenario/paper_path.hpp"
#include "scenario/sim_channel.hpp"
#include "scenario/spec.hpp"

namespace pathload::scenario {
namespace {

ScenarioSpec paper_path(double utilization, sim::Interarrival model) {
  PaperPathConfig cfg;
  cfg.hops = 3;
  cfg.tight_capacity = Rate::mbps(10);
  cfg.tight_utilization = utilization;
  cfg.beta = 2.0;
  cfg.nontight_utilization = 0.6;
  cfg.model = model;
  cfg.warmup = Duration::seconds(1);
  return ScenarioSpec::from_paper("paper", "", cfg);
}

core::PathloadConfig fast_tool() {
  core::PathloadConfig tool;
  tool.omega = Rate::mbps(1);
  tool.chi = Rate::mbps(1.5);
  return tool;
}

TEST(PathloadOverSim, BracketsAvailBwOnPoissonPath) {
  const auto result =
      run_scenario_once(paper_path(0.6, sim::Interarrival::kExponential),
                        fast_tool(), 7);
  EXPECT_TRUE(result.converged);
  // A = 4 Mb/s; allow the tool's resolution (omega) of slack per side.
  EXPECT_LE(result.range.low, Rate::mbps(5.0));
  EXPECT_GE(result.range.high, Rate::mbps(3.0));
  EXPECT_GT(result.fleets, 0);
  EXPECT_GT(result.streams_sent, 0);
}

TEST(PathloadOverSim, BracketsAvailBwOnParetoPath) {
  const auto result = run_scenario_once(paper_path(0.6, sim::Interarrival::kPareto),
                                        fast_tool(), 11);
  EXPECT_TRUE(result.converged);
  EXPECT_LE(result.range.low, Rate::mbps(5.5));
  EXPECT_GE(result.range.high, Rate::mbps(2.5));
}

TEST(PathloadOverSim, LightLoadHighAvailBw) {
  const auto result =
      run_scenario_once(paper_path(0.2, sim::Interarrival::kExponential),
                        fast_tool(), 23);
  // A = 8 Mb/s.
  EXPECT_TRUE(result.range.contains(Rate::mbps(8)) ||
              result.range.center().mbits_per_sec() > 6.5);
}

TEST(PathloadOverSim, RepeatedRunsMostlyCoverTruth) {
  const auto runs = run_scenario_repeated(
      paper_path(0.6, sim::Interarrival::kExponential), fast_tool(), 10, 100);
  ASSERT_EQ(runs.results.size(), 10u);
  // The paper's Fig. 5 claim: the (averaged) range includes the average
  // avail-bw. Individual runs can miss due to short-term variability, so
  // require a clear majority plus a correct mean range.
  EXPECT_GE(runs.coverage(Rate::mbps(4)), 0.6);
  EXPECT_LE(runs.mean_low(), Rate::mbps(4.6));
  EXPECT_GE(runs.mean_high(), Rate::mbps(3.4));
}

TEST(PathloadOverSim, TracksUtilizationChanges) {
  // Higher utilization -> lower reported center (monotone response).
  const auto light = run_scenario_repeated(
      paper_path(0.25, sim::Interarrival::kExponential), fast_tool(), 4, 7);
  const auto heavy = run_scenario_repeated(
      paper_path(0.75, sim::Interarrival::kExponential), fast_tool(), 4, 7);
  const double light_center =
      (light.mean_low() + light.mean_high()).mbits_per_sec() / 2.0;
  const double heavy_center =
      (heavy.mean_low() + heavy.mean_high()).mbits_per_sec() / 2.0;
  EXPECT_GT(light_center, heavy_center + 2.0);
}

TEST(PathloadOverSim, SessionIsReentrant) {
  ScenarioInstance bed{paper_path(0.6, sim::Interarrival::kExponential)};
  bed.start();
  SimProbeChannel ch{bed.simulator(), bed.path()};
  core::PathloadSession session{fast_tool()};
  const auto r1 = session.run(ch);
  const auto r2 = session.run(ch);
  EXPECT_TRUE(r1.converged);
  EXPECT_TRUE(r2.converged);
  // Same path, so the two measurements must roughly agree.
  EXPECT_NEAR(r1.range.center().mbits_per_sec(), r2.range.center().mbits_per_sec(),
              2.5);
}

TEST(PathloadOverSim, ExplicitInitialRmaxSkipsDispersionProbe) {
  ScenarioInstance bed{paper_path(0.6, sim::Interarrival::kExponential)};
  bed.start();
  SimProbeChannel ch{bed.simulator(), bed.path()};
  auto tool = fast_tool();
  tool.initial_rmax = Rate::mbps(12);
  core::PathloadSession session{tool};
  const auto result = session.run(ch);
  EXPECT_TRUE(result.converged);
  EXPECT_LE(result.range.high, Rate::mbps(12));
  // First fleet probes at (0 + 12)/2 = 6 Mb/s.
  ASSERT_FALSE(result.trace.empty());
  EXPECT_NEAR(result.trace.front().rate.mbits_per_sec(), 6.0, 0.1);
}

TEST(PathloadOverSim, ResultAccountingConsistent) {
  const auto result = run_scenario_once(
      paper_path(0.6, sim::Interarrival::kExponential), fast_tool(), 3);
  EXPECT_EQ(result.fleets, static_cast<int>(result.trace.size()));
  std::int64_t streams_in_trace = 0;
  for (const auto& f : result.trace) {
    streams_in_trace += static_cast<std::int64_t>(f.streams.size());
  }
  // +1: the initial dispersion probe is charged to the footprint but has
  // no fleet trace entry.
  EXPECT_EQ(result.streams_sent, streams_in_trace + 1);
  EXPECT_GT(result.bytes_sent.byte_count(), 0);
  EXPECT_GT(result.elapsed, Duration::zero());
}

TEST(PathloadOverSim, MeasurementLatencyIsReasonable) {
  // Section IV: "for a path with A <= 100 Mb/s and RTT <= 100 ms the tool
  // needs less than 15 s" (default resolutions). Our virtual path has
  // RTT ~100 ms.
  const auto result = run_scenario_once(
      paper_path(0.6, sim::Interarrival::kExponential), fast_tool(), 31);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.elapsed, Duration::seconds(60));
}

TEST(PathloadOverSim, SendAnomaliesGetRetriedNotCounted) {
  ScenarioInstance bed{paper_path(0.6, sim::Interarrival::kExponential)};
  bed.start();
  SimProbeChannel ch{bed.simulator(), bed.path()};
  // Every stream suffers periodic 5 ms stalls -> screened invalid; the
  // session burns its retry budget and judges on what remains.
  ch.set_send_gap_injector([](std::uint32_t seq) {
    return (seq % 10 == 9) ? Duration::milliseconds(5) : Duration::zero();
  });
  auto tool = fast_tool();
  tool.initial_rmax = Rate::mbps(12);
  tool.max_fleets = 3;
  core::PathloadSession session{tool};
  const auto result = session.run(ch);
  for (const auto& fleet : result.trace) {
    for (const auto& s : fleet.streams) EXPECT_FALSE(s.valid);
    EXPECT_EQ(fleet.verdict, core::FleetVerdict::kGrey);
  }
}

}  // namespace
}  // namespace pathload::scenario
