// Engine-v2 determinism anchors and the cross-engine equivalence suite.
//
// v2 has its own golden anchors (its RNG and floating-point sequences are
// deliberately different from v1's — that freedom is the point of the
// versioned contract), the same run-to-run / thread-count / shard-merge
// determinism guarantees as v1, and its accuracy must agree with v1 within
// the stated tolerance: per (preset, load) cell the two engines' mean
// estimate centers differ by at most max(25% of the configured avail-bw,
// 1.5 Mb/s) — the error-bar scale of pathload itself at these settings.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ostream>
#include <string>
#include <vector>

#include "baselines/estimators.hpp"
#include "core/estimator.hpp"
#include "scenario/experiment.hpp"
#include "scenario/registry.hpp"
#include "scenario/shard.hpp"
#include "scenario/sim_channel.hpp"
#include "scenario/spec.hpp"
#include "scenario/sweep_runner.hpp"
#include "sim/monitor.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace pathload::scenario {
namespace {

ScenarioSpec v2_preset(std::string_view name) {
  ScenarioSpec spec = Registry::builtin().at(name);
  spec.engine = EngineVersion::kV2;
  return spec;
}

// ------------------------------------------------------------- v2 anchors

TEST(EngineV2Determinism, GoldenAnchorPaperPathSeed77) {
  // Captured on the toolchain that introduced engine v2. A diff here means
  // the v2 event order, RNG mapping, or fluid arithmetic changed — which
  // requires a new engine version, not a silent re-capture (docs/ENGINE.md).
  core::PathloadConfig tool;
  const auto res = run_scenario_once(v2_preset("paper-path"), tool, 77);
  EXPECT_EQ(res.range.low.bits_per_sec(), 3524446.4416307611);
  EXPECT_EQ(res.range.high.bits_per_sec(), 4111863.2394286562);
  EXPECT_EQ(res.fleets, 4);
  EXPECT_EQ(res.elapsed.nanos(), 24983809069);
}

TEST(EngineV2Determinism, BtcOnTcpBgGreedyLaneCountsPinned) {
  // A bulk-TCP run sends every ACK one reverse-path delay (100 ms) out and
  // re-arms its RTO (200 ms or more out) per ACK. The event count is the
  // one the single-level calendar queue produced (the stale RTO arms still
  // fire and count, as counted no-ops); the lane counts pin where the keys
  // land, so a change that sends far keys back through the overflow heap
  // shows here. The single-level queue pushed 53518 keys onto its heap on
  // this run. Link events never enter the calendar (link entries); the
  // receiver's ACK line arms a key only when an entry reaches the front of
  // its delay line, and the RTO re-arms are what the second level holds.
  ScenarioSpec spec = v2_preset("tcp-bg-greedy");
  spec.seed = 77;
  ScenarioInstance inst{std::move(spec)};
  inst.start();
  SimProbeChannel channel{inst.simulator(), inst.path()};
  const auto est = baselines::builtin_estimators().make("btc");
  Rng rng{77};
  const core::EstimateReport report = core::run_guarded(*est, channel, rng);
  ASSERT_EQ(report.outcome, core::EstimateReport::Outcome::kOk) << report.outcome_note;

  const sim::Simulator& sim = inst.simulator();
  EXPECT_EQ(sim.events_processed(), 89978u);
  const sim::Simulator::LaneInserts& lanes = sim.lane_inserts();
  EXPECT_EQ(lanes.fast, 1722u);
  EXPECT_EQ(lanes.ring, 16065u);
  EXPECT_EQ(lanes.coarse, 13971u);
  EXPECT_EQ(lanes.heap, 3521u);
}

TEST(EngineV2Determinism, BatchedMatchesUnbatchedByteIdentical) {
  // The closed-form burst pass (SimProbeChannel::transit_burst) is a pure
  // reordering of the same floating-point work: on a quiescent fluid path
  // it must reproduce the event-driven v2 results bit for bit, not
  // approximately. Built as the perfbench workloads build a run, so the
  // path cap stays on this channel.
  core::PathloadConfig tool;
  const auto run = [&](std::uint64_t seed, SimProbeChannel::BurstPath fastest) {
    ScenarioSpec spec = v2_preset("paper-path");
    spec.seed = seed;
    ScenarioInstance inst{std::move(spec)};
    inst.start();
    SimProbeChannel channel{inst.simulator(), inst.path()};
    channel.set_fastest_burst_path(fastest);
    return core::PathloadSession{tool}.run(channel);
  };
  for (const std::uint64_t seed : {77ULL, 123ULL, 9001ULL}) {
    const auto off = run(seed, SimProbeChannel::BurstPath::kEventDriven);
    const auto on = run(seed, SimProbeChannel::BurstPath::kClosedForm);
    EXPECT_EQ(off.range.low.bits_per_sec(), on.range.low.bits_per_sec())
        << "seed " << seed;
    EXPECT_EQ(off.range.high.bits_per_sec(), on.range.high.bits_per_sec())
        << "seed " << seed;
    EXPECT_EQ(off.elapsed.nanos(), on.elapsed.nanos()) << "seed " << seed;
    EXPECT_EQ(off.fleets, on.fleets) << "seed " << seed;
  }
}

TEST(EngineV2Variability, SeedInvariantPresetsPinned) {
  // Under v2, poisson, pareto and constant cross traffic is a constant
  // fluid rate, ramps step deterministically and fluid TCP draws nothing.
  // Only on/off sources and link impairments draw from the seed, so on
  // every other preset pathload's range is the same for every seed: the
  // variability the paper measures (Section VI) is gone. This pins which
  // builtin presets are seed-invariant in that sense (seeds 1, 2, 3), so a
  // change that brings variability back, or loses it elsewhere, shows here.
  core::PathloadConfig tool;
  std::vector<std::string> invariant;
  for (const ScenarioSpec& preset : Registry::builtin().entries()) {
    ScenarioSpec spec = preset;
    spec.engine = EngineVersion::kV2;
    const auto first = run_scenario_once(spec, tool, 1);
    bool same = true;
    for (const std::uint64_t seed : {2ULL, 3ULL}) {
      const auto other = run_scenario_once(spec, tool, seed);
      same = same && other.range.low.bits_per_sec() == first.range.low.bits_per_sec() &&
             other.range.high.bits_per_sec() == first.range.high.bits_per_sec();
    }
    if (same) invariant.push_back(preset.name);
  }
  EXPECT_EQ(invariant, (std::vector<std::string>{
                           "paper-path", "paper-path-poisson", "fig11-access",
                           "fig12-abilene", "fig12-crete", "fig12-pireaus",
                           "tight-not-narrow", "hetero-5hop", "load-step", "asym-buffers",
                           "tight-ladder-8hop", "wave-load", "tcp-bg-greedy",
                           "tcp-bg-rwnd-capped", "tcp-vs-probe-duel", "bbr-vs-probe-duel",
                           "btc-path"}));
}

TEST(EngineV2Determinism, FluidTcpRunToRunIdenticalPerSeed) {
  // The fluid TCP backend is RNG-free, but its epoch timers interleave
  // with batched probe bursts; the interleaving must still be a pure
  // function of the seed.
  core::PathloadConfig tool;
  const auto a = run_scenario_once(v2_preset("tcp-vs-probe-duel"), tool, 42);
  const auto b = run_scenario_once(v2_preset("tcp-vs-probe-duel"), tool, 42);
  EXPECT_EQ(a.range.low.bits_per_sec(), b.range.low.bits_per_sec());
  EXPECT_EQ(a.range.high.bits_per_sec(), b.range.high.bits_per_sec());
  EXPECT_EQ(a.elapsed.nanos(), b.elapsed.nanos());
  EXPECT_EQ(a.fleets, b.fleets);
}

TEST(EngineV2Determinism, RunToRunIdenticalPerSeed) {
  core::PathloadConfig tool;
  const auto a = run_scenario_once(v2_preset("paper-path"), tool, 123);
  const auto b = run_scenario_once(v2_preset("paper-path"), tool, 123);
  EXPECT_EQ(a.range.low.bits_per_sec(), b.range.low.bits_per_sec());
  EXPECT_EQ(a.range.high.bits_per_sec(), b.range.high.bits_per_sec());
  EXPECT_EQ(a.elapsed.nanos(), b.elapsed.nanos());
  EXPECT_EQ(a.fleets, b.fleets);
}

TEST(EngineV2Determinism, ThreadCountDoesNotChangeResults) {
  core::PathloadConfig tool;
  const ScenarioSpec spec = v2_preset("paper-path");
  SweepRunner one{1};
  SweepRunner four{4};
  const RepeatedRuns a = sweep_scenario_repeated(spec, tool, 6, 500, one);
  const RepeatedRuns b = sweep_scenario_repeated(spec, tool, 6, 500, four);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].range.low.bits_per_sec(),
              b.results[i].range.low.bits_per_sec());
    EXPECT_EQ(a.results[i].range.high.bits_per_sec(),
              b.results[i].range.high.bits_per_sec());
    EXPECT_EQ(a.results[i].elapsed.nanos(), b.results[i].elapsed.nanos());
  }
}

TEST(EngineV2Determinism, ThreadCountInvariantWithFluidTcpAndBatching) {
  // The batched probe path plus a fluid TCP competitor, swept across
  // thread counts: per-seed results must not depend on how the runs are
  // sharded across workers (burst batching is on by default here).
  core::PathloadConfig tool;
  const ScenarioSpec spec = v2_preset("tcp-vs-probe-duel");
  SweepRunner one{1};
  SweepRunner four{4};
  const RepeatedRuns a = sweep_scenario_repeated(spec, tool, 4, 700, one);
  const RepeatedRuns b = sweep_scenario_repeated(spec, tool, 4, 700, four);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].range.low.bits_per_sec(),
              b.results[i].range.low.bits_per_sec());
    EXPECT_EQ(a.results[i].range.high.bits_per_sec(),
              b.results[i].range.high.bits_per_sec());
    EXPECT_EQ(a.results[i].elapsed.nanos(), b.results[i].elapsed.nanos());
  }
}

TEST(EngineV2Determinism, ShardMergeIsByteIdentical) {
  // The sharded matrix contract must hold under engine v2: shard streams
  // merged back reproduce the in-process matrix byte-for-byte.
  std::vector<MatrixEstimator> ests;
  ests.push_back(MatrixEstimator::from_registry(
      baselines::builtin_estimators(), "pathload", "max_fleets=3"));
  ScenarioSpec spec = v2_preset("paper-path");
  spec.warmup = Duration::milliseconds(300);
  // A flow-bearing spec rides along so the batched probe path and the
  // fluid TCP backend are both under the shard contract.
  ScenarioSpec tcp = v2_preset("tcp-bg-greedy");
  tcp.warmup = Duration::milliseconds(300);
  const std::vector<ScenarioSpec> scenarios{spec, tcp};
  const std::vector<double> loads{0.3, 0.7};
  SweepRunner runner{2};

  const auto direct = run_matrix(ests, scenarios, loads, 2, 900, runner);
  for (const int shards : {1, 2}) {
    std::vector<std::string> texts;
    for (int i = 0; i < shards; ++i) {
      texts.push_back(
          run_matrix_shard(ests, scenarios, loads, 2, 900, i, shards, runner));
    }
    const auto merged = merge_cell_texts(texts);
    EXPECT_EQ(cells_to_text(merged), cells_to_text(direct))
        << "shard count " << shards;
  }
}

TEST(EngineV2Determinism, SpecTextRoundTripCarriesTheEngine) {
  const ScenarioSpec spec = v2_preset("paper-path");
  const ScenarioSpec back = ScenarioSpec::parse(spec.to_text());
  EXPECT_EQ(back.engine, EngineVersion::kV2);
  EXPECT_EQ(back.to_text(), spec.to_text());
  // v1 text stays byte-free of the directive (anchored elsewhere, but the
  // asymmetry is the contract: pre-v2 texts never change).
  EXPECT_EQ(Registry::builtin().at("paper-path").to_text().find("engine"),
            std::string::npos);
}

// ------------------------------------------------- fluid ground truth e2e

TEST(EngineV2Fluid, TightLinkUtilizationMatchesConfiguration) {
  // Under v2 the renewal cross traffic is *exactly* its long-run mean, so
  // the MRTG-style monitor must read the configured utilization almost
  // noiselessly — tighter than any packet engine could.
  ScenarioInstance inst{v2_preset("paper-path")};
  sim::UtilizationMonitor mon{inst.simulator(), inst.tight_link(),
                              Duration::milliseconds(500)};
  inst.start();
  mon.start();
  inst.simulator().run_for(Duration::seconds(5));
  EXPECT_NEAR(mon.average_utilization(), 0.6, 0.01);
}

// --------------------------------------------------- cross-engine accord

struct EquivalenceCase {
  const char* preset;
  double load;
};

// Without a PrintTo gtest prints the parameter as its raw bytes, and ctest
// builds the test names from that: the bytes of a `const char*` are a
// runtime address, so any rebuild could rename the tests.
void PrintTo(const EquivalenceCase& c, std::ostream* os) {
  *os << c.preset << " load " << c.load;
}

class EngineEquivalence : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(EngineEquivalence, V1AndV2AgreeWithinTolerance) {
  const EquivalenceCase& c = GetParam();
  ScenarioSpec v1 = Registry::builtin().at(c.preset).with_load(c.load);
  ScenarioSpec v2 = v1;
  v2.engine = EngineVersion::kV2;

  core::PathloadConfig tool;
  SweepRunner runner;
  const int kRuns = 3;
  const RepeatedRuns r1 = sweep_scenario_repeated(v1, tool, kRuns, 3000, runner);
  const RepeatedRuns r2 = sweep_scenario_repeated(v2, tool, kRuns, 3000, runner);

  const double truth = v1.avail_bw().bits_per_sec();
  const double c1 =
      (r1.mean_low().bits_per_sec() + r1.mean_high().bits_per_sec()) / 2.0;
  const double c2 =
      (r2.mean_low().bits_per_sec() + r2.mean_high().bits_per_sec()) / 2.0;
  const double tolerance = std::max(0.25 * truth, 1.5e6);
  EXPECT_NEAR(c1, c2, tolerance)
      << c.preset << " at load " << c.load << ": v1 center " << c1 * 1e-6
      << " Mb/s, v2 center " << c2 * 1e-6 << " Mb/s, truth " << truth * 1e-6
      << " Mb/s";
}

INSTANTIATE_TEST_SUITE_P(
    PresetsTimesLoads, EngineEquivalence,
    ::testing::Values(EquivalenceCase{"paper-path", 0.3},
                      EquivalenceCase{"paper-path", 0.5},
                      EquivalenceCase{"paper-path", 0.8},
                      EquivalenceCase{"paper-path-poisson", 0.3},
                      EquivalenceCase{"paper-path-poisson", 0.5},
                      EquivalenceCase{"paper-path-poisson", 0.8},
                      EquivalenceCase{"tight-not-narrow", 0.3},
                      EquivalenceCase{"tight-not-narrow", 0.5},
                      EquivalenceCase{"tight-not-narrow", 0.8},
                      // Responsive presets: under v2 these run the fluid
                      // TCP backend against v1's packet Reno, at their
                      // native open-loop load. The "truth" here is the
                      // open-loop avail-bw the flows compete for, so the
                      // tolerance is the bound on how differently the two
                      // TCP models bend the estimate, not an accuracy
                      // claim.
                      EquivalenceCase{"tcp-bg-greedy", 0.3},
                      EquivalenceCase{"tcp-bg-rwnd-capped", 0.3},
                      EquivalenceCase{"tcp-vs-probe-duel", 0.3}),
    [](const ::testing::TestParamInfo<EquivalenceCase>& info) {
      std::string name = info.param.preset;
      std::replace(name.begin(), name.end(), '-', '_');
      return name + "_u" + std::to_string(static_cast<int>(info.param.load * 100));
    });

}  // namespace
}  // namespace pathload::scenario
