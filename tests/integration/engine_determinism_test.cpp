// Golden determinism anchors for the event engine.
//
// The expected values below were captured from the original binary-heap
// scheduler (pre-calendar-queue) on the same toolchain. The calendar-queue
// engine must reproduce them exactly: same events processed, same packet-id
// consumption, and the same pathload verdict to the last bit. Any diff here
// means the scheduler changed event order -- a correctness bug, not noise.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "baselines/estimators.hpp"
#include "core/estimator.hpp"
#include "scenario/experiment.hpp"
#include "scenario/paper_path.hpp"
#include "scenario/registry.hpp"
#include "scenario/spec.hpp"
#include "scenario/sim_channel.hpp"
#include "tests/integration/referee.hpp"
#include "util/rng.hpp"

namespace pathload::scenario {
namespace {

PaperPathConfig golden_config() {
  PaperPathConfig cfg;
  cfg.hops = 3;
  cfg.tight_capacity = Rate::mbps(10);
  cfg.tight_utilization = 0.6;
  cfg.seed = 77;
  cfg.warmup = Duration::seconds(2);
  return cfg;
}

TEST(EngineDeterminism, WarmupReplaysHeapSchedulerEventAndPacketCounts) {
  ScenarioInstance bed{ScenarioSpec::from_paper("golden", "", golden_config())};
  bed.start();
  EXPECT_EQ(bed.simulator().events_processed(), 52560u);
  EXPECT_EQ(bed.simulator().next_packet_id() - 1, 17561u);
}

TEST(EngineDeterminism, PathloadRunReplaysHeapSchedulerVerdictBitExact) {
  core::PathloadConfig tool;
  const auto res = run_pathload_once(golden_config(), tool, 77);
  EXPECT_EQ(res.range.low.bits_per_sec(), 3397806.7157649733);
  EXPECT_EQ(res.range.high.bits_per_sec(), 3964114.850317501);
  EXPECT_EQ(res.fleets, 4);
  EXPECT_EQ(res.elapsed.nanos(), 25971036628);
}

TEST(EngineDeterminism, PaperPathPathloadRunEventAndForwardCountsPinned) {
  // The exact work of a v1 pathload session on the paper-path preset,
  // seed 77, run the way the estimator registry runs it. The counts were
  // captured with one scheduled event per packet delivery, before links had
  // delay lines: they pin that a delay line fires exactly one event per
  // delivery and forwards every packet. Every event of a v1 session is
  // fired, none resolved in closed form, and the link entries fire all but
  // the probe sends and the session's own timers: a link event that went
  // back through the calendar would show in link_events(). The warmup and
  // the idle gaps between streams run each link alone (run_until's
  // decoupled path): a gap that stopped taking it would show in
  // decoupled_events().
  ScenarioSpec spec = Registry::builtin().at("paper-path");
  spec.seed = 77;
  ScenarioInstance inst{std::move(spec)};
  inst.start();
  SimProbeChannel channel{inst.simulator(), inst.path()};
  const auto est = baselines::builtin_estimators().make("pathload");
  Rng rng{77};
  const core::EstimateReport report = core::run_guarded(*est, channel, rng);
  ASSERT_EQ(report.outcome, core::EstimateReport::Outcome::kOk) << report.outcome_note;

  EXPECT_EQ(inst.simulator().events_processed(), 577717u);
  EXPECT_EQ(inst.simulator().events_resolved(), 0u);
  EXPECT_EQ(inst.simulator().link_events(), 574097u);
  EXPECT_EQ(inst.simulator().decoupled_events(), 453475u);
  ASSERT_EQ(inst.path().hop_count(), 3u);
  EXPECT_EQ(inst.path().link(0).packets_forwarded(), 76852u);
  EXPECT_EQ(inst.path().link(1).packets_forwarded(), 40497u);
  EXPECT_EQ(inst.path().link(2).packets_forwarded(), 77681u);
}

/// What a pathload session on tcp-vs-probe-duel, seed 77, run the way the
/// estimator registry runs it, costs: events processed, and packets
/// forwarded per link. The preset's TCP flow restarts every 10 s, so
/// connections are torn down mid-run with ACKs in flight and the RTO armed.
struct SessionCounts {
  std::uint64_t events{0};
  std::vector<std::uint64_t> forwarded;
};

SessionCounts duel_session_counts(ScenarioSpec spec) {
  spec.seed = 77;
  ScenarioInstance inst{std::move(spec)};
  inst.start();
  SimProbeChannel channel{inst.simulator(), inst.path()};
  const auto est = baselines::builtin_estimators().make("pathload");
  Rng rng{77};
  const core::EstimateReport report = core::run_guarded(*est, channel, rng);
  EXPECT_EQ(report.outcome, core::EstimateReport::Outcome::kOk) << report.outcome_note;
  SessionCounts counts{inst.simulator().events_processed(), {}};
  for (std::size_t i = 0; i < inst.path().hop_count(); ++i) {
    counts.forwarded.push_back(inst.path().link(i).packets_forwarded());
  }
  return counts;
}

TEST(EngineDeterminism, TcpDuelTeardownEventAndForwardCountsPinned) {
  // The counts were captured with one scheduled event per ACK and per RTO
  // arm, whose stale and orphaned occurrences still counted as events. They
  // pin that a torn-down connection leaves each ACK in flight, and its
  // pending RTO, as exactly one event: dropping the ACK events alone loses
  // over a hundred from the count.
  const SessionCounts c = duel_session_counts(Registry::builtin().at("tcp-vs-probe-duel"));
  EXPECT_EQ(c.events, 605062u);
  EXPECT_EQ(c.forwarded, (std::vector<std::uint64_t>{72461, 50258, 83215}));
}

TEST(EngineDeterminism, TcpDuelTeardownCountsPinnedUnderV2PacketTcp) {
  // The same session under engine v2 with the flow on the packet TCP
  // backend (mode=packet): fluid cross traffic, packet probes and segments.
  ScenarioSpec spec = Registry::builtin().at("tcp-vs-probe-duel");
  spec.engine = EngineVersion::kV2;
  ASSERT_EQ(spec.flows.size(), 1u);
  spec.flows[0].mode = FlowSpec::Mode::kPacket;
  const SessionCounts c = duel_session_counts(std::move(spec));
  EXPECT_EQ(c.events, 25562u);
  EXPECT_EQ(c.forwarded, (std::vector<std::uint64_t>{4820, 10111, 10111}));
}

/// A `tool` run on fuzz tuning case `index`, as the estimator registry runs
/// it: its counts, and its estimate's rates bit for bit.
struct FuzzRun {
  SessionCounts counts;
  double low_bps{0.0};
  double high_bps{0.0};
};

FuzzRun fuzz_run(int index, const char* tool) {
  ScenarioSpec spec = referee::fuzz_tuning_spec(index);
  EXPECT_EQ(spec.engine, EngineVersion::kV1);
  const std::uint64_t seed = spec.seed;
  ScenarioInstance inst{std::move(spec)};
  inst.start();
  SimProbeChannel channel{inst.simulator(), inst.path()};
  const auto est = baselines::builtin_estimators().make(tool);
  Rng rng{seed};
  const core::EstimateReport report = core::run_guarded(*est, channel, rng);
  EXPECT_EQ(report.outcome, core::EstimateReport::Outcome::kOk) << report.outcome_note;
  FuzzRun run{{inst.simulator().events_processed(), {}},
              report.low.bits_per_sec(),
              report.high.bits_per_sec()};
  for (std::size_t i = 0; i < inst.path().hop_count(); ++i) {
    run.counts.forwarded.push_back(inst.path().link(i).packets_forwarded());
  }
  return run;
}

TEST(EngineDeterminism, FuzzTuningCasesPathloadAndBtcCountsPinned) {
  // Fuzz tuning cases 3 (a v1 TCP flow) and 4 (on/off and ramp
  // neighbours), whose btc runs are most of a fuzz-mixed pass. Captured
  // with every link event and source emission a timer of its own.
  const FuzzRun p3 = fuzz_run(3, "pathload");
  EXPECT_EQ(p3.counts.events, 1275305u);
  EXPECT_EQ(p3.counts.forwarded, (std::vector<std::uint64_t>{81547, 274038, 72191}));
  EXPECT_EQ(p3.high_bps, 0x1.ac3b014cc968bp+20);
  const FuzzRun b3 = fuzz_run(3, "btc");
  EXPECT_EQ(b3.counts.events, 9635394u);
  EXPECT_EQ(b3.counts.forwarded, (std::vector<std::uint64_t>{610427, 2020403, 614352}));
  EXPECT_EQ(b3.low_bps, 0x1.babe3bbbbbbbcp+21);
  const FuzzRun p4 = fuzz_run(4, "pathload");
  EXPECT_EQ(p4.counts.events, 739267u);
  EXPECT_EQ(p4.counts.forwarded, (std::vector<std::uint64_t>{136216, 39984, 73453}));
  EXPECT_EQ(p4.high_bps, 0x1.0cfc479ce8db3p+22);
  const FuzzRun b4 = fuzz_run(4, "btc");
  EXPECT_EQ(b4.counts.events, 6389086u);
  EXPECT_EQ(b4.counts.forwarded, (std::vector<std::uint64_t>{1143033, 393419, 633872}));
  EXPECT_EQ(b4.low_bps, 0x1.1c15088888889p+22);
}

TEST(EngineDeterminism, RepeatedRunsAreRunToRunIdentical) {
  core::PathloadConfig tool;
  const auto a = run_pathload_once(golden_config(), tool, 123);
  const auto b = run_pathload_once(golden_config(), tool, 123);
  EXPECT_EQ(a.range.low.bits_per_sec(), b.range.low.bits_per_sec());
  EXPECT_EQ(a.range.high.bits_per_sec(), b.range.high.bits_per_sec());
  EXPECT_EQ(a.elapsed.nanos(), b.elapsed.nanos());
  EXPECT_EQ(a.fleets, b.fleets);
}

}  // namespace
}  // namespace pathload::scenario
