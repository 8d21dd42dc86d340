#include <gtest/gtest.h>

#include "core/session.hpp"
#include "scenario/paper_path.hpp"
#include "scenario/sim_channel.hpp"
#include "scenario/spec.hpp"

namespace pathload::scenario {
namespace {

/// The paper path `cfg` describes, built the way every scenario is built.
ScenarioInstance paper_instance(const PaperPathConfig& cfg) {
  return ScenarioInstance{ScenarioSpec::from_paper("paper", "", cfg)};
}

// End-to-end sanity of the verdict *directions*: on a smooth (CBR) path,
// every fleet whose rate is clearly below the avail-bw must come back
// "below", and every fleet clearly above it "above" — no crossed wires
// anywhere in the sender/receiver/analysis pipeline.

TEST(VerdictDirection, FleetVerdictsConsistentWithRates) {
  PaperPathConfig cfg;
  cfg.hops = 3;
  cfg.tight_capacity = Rate::mbps(10);
  cfg.tight_utilization = 0.6;  // A = 4
  cfg.beta = 2.0;
  cfg.model = sim::Interarrival::kConstant;
  cfg.warmup = Duration::seconds(1);
  ScenarioInstance bed = paper_instance(cfg);
  bed.start();
  SimProbeChannel channel{bed.simulator(), bed.path()};
  core::PathloadConfig tool;
  core::PathloadSession session{tool};
  const auto result = session.run(channel);

  ASSERT_GT(result.fleets, 1);
  for (const auto& fleet : result.trace) {
    const double rate = fleet.rate.mbits_per_sec();
    if (rate < 4.0 * 0.7) {
      EXPECT_EQ(fleet.verdict, core::FleetVerdict::kBelow)
          << "fleet at " << rate << " Mb/s";
    }
    if (rate > 4.0 * 1.4) {
      EXPECT_EQ(fleet.verdict, core::FleetVerdict::kAbove)
          << "fleet at " << rate << " Mb/s";
    }
  }
  EXPECT_TRUE(result.range.contains(Rate::mbps(4.0)));
}

TEST(VerdictDirection, StreamVotesLeanWithTheRate) {
  // Individual stream votes must lean decisively in the fleet's direction
  // once the rate is clearly away from A. (Not unanimously: short streams
  // legitimately sample avail-bw excursions, and that residue is exactly
  // what the fleet fraction f and the grey region absorb. Note CBR cross
  // traffic is *worse* here, not better — phase-locked probe/cross periods
  // produce slow OWD beat oscillations — so this uses Poisson.)
  PaperPathConfig cfg;
  cfg.hops = 1;
  cfg.tight_capacity = Rate::mbps(10);
  cfg.tight_utilization = 0.5;  // A = 5
  cfg.model = sim::Interarrival::kExponential;
  cfg.warmup = Duration::seconds(1);
  ScenarioInstance bed = paper_instance(cfg);
  bed.start();
  SimProbeChannel channel{bed.simulator(), bed.path()};
  core::PathloadConfig tool;

  auto run_streams_at = [&](double mbps, int count) {
    auto spec = core::make_stream_spec(Rate::mbps(mbps), tool);
    int type_i = 0;
    int type_n = 0;
    for (int s = 0; s < count; ++s) {
      spec.stream_id = static_cast<std::uint32_t>(1000 * mbps + s);
      const auto outcome = channel.run_stream(spec);
      const auto cls = core::classify_owds(core::relative_owds(outcome), tool.trend);
      if (cls == core::StreamClass::kIncreasing) ++type_i;
      if (cls == core::StreamClass::kNonIncreasing) ++type_n;
      channel.idle(spec.duration() * 9.0);
    }
    return std::make_pair(type_i, type_n);
  };

  const int streams = 24;
  const auto [i_low, n_low] = run_streams_at(2.5, streams);  // R = A/2
  EXPECT_GE(n_low, streams / 2);
  EXPECT_GT(n_low, 2 * i_low);
  const auto [i_high, n_high] = run_streams_at(8.0, streams);  // R = 1.6 A
  EXPECT_GE(i_high, (3 * streams) / 4);
  EXPECT_GT(i_high, 2 * n_high);
}

}  // namespace
}  // namespace pathload::scenario
