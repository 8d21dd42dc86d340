// Tests for the deterministic fault injector (core::FaultChannel) and the
// degradation contract around it: run_guarded's exception policy, the
// shared classify_outcome ladder, and the universal deadline_s override.

#include <gtest/gtest.h>

#include "baselines/estimators.hpp"
#include "core/estimator.hpp"
#include "core/fault_channel.hpp"
#include "scenario/paper_path.hpp"
#include "scenario/sim_channel.hpp"
#include "scenario/spec.hpp"

namespace pathload::core {
namespace {

scenario::ScenarioInstance make_bed(double utilization = 0.5) {
  scenario::PaperPathConfig cfg;
  cfg.hops = 1;
  cfg.tight_capacity = Rate::mbps(10);
  cfg.tight_utilization = utilization;
  cfg.model = sim::Interarrival::kExponential;
  cfg.warmup = Duration::milliseconds(300);
  return scenario::ScenarioInstance{scenario::ScenarioSpec::from_paper("paper", "", cfg)};
}

StreamSpec probe_stream(std::uint32_t id) {
  StreamSpec spec;
  spec.stream_id = id;
  spec.packet_count = 20;
  spec.packet_size = 300;
  spec.period = Duration::microseconds(400);
  return spec;
}

TEST(FaultChannel, BlackoutEveryNthStreamIsExactAndRepeatable) {
  scenario::ScenarioInstance bed = make_bed();
  bed.start();
  scenario::SimProbeChannel inner{bed.simulator(), bed.path()};
  FaultChannel ch{inner, FaultPlan{.drop_every = 2}};
  for (std::uint32_t i = 1; i <= 6; ++i) {
    const StreamOutcome out = ch.run_stream(probe_stream(i));
    EXPECT_EQ(out.sent_count, 20);
    if (i % 2 == 0) {
      EXPECT_TRUE(out.records.empty()) << "stream " << i;
    } else {
      EXPECT_FALSE(out.records.empty()) << "stream " << i;
    }
  }
  EXPECT_EQ(ch.streams_seen(), 6);
  EXPECT_EQ(ch.streams_blacked_out(), 3);
}

TEST(FaultChannel, TruncationDiscardsTheTail) {
  scenario::ScenarioInstance bed = make_bed();
  bed.start();
  scenario::SimProbeChannel inner{bed.simulator(), bed.path()};
  // Baseline: how many records an untouched stream yields.
  const std::size_t full = inner.run_stream(probe_stream(1)).records.size();
  ASSERT_GT(full, 0u);

  FaultChannel ch{inner, FaultPlan{.truncate_every = 1, .truncate_fraction = 0.5}};
  const StreamOutcome out = ch.run_stream(probe_stream(2));
  EXPECT_EQ(out.records.size(), full / 2);  // keep = floor(size * (1 - fraction))
  EXPECT_EQ(ch.streams_truncated(), 1);
  // The kept records are the head of the stream, in seq order.
  for (std::size_t i = 1; i < out.records.size(); ++i) {
    EXPECT_LT(out.records[i - 1].seq, out.records[i].seq);
  }
}

TEST(FaultChannel, BlackoutWinsOverTruncationOnTheSameStream) {
  scenario::ScenarioInstance bed = make_bed();
  bed.start();
  scenario::SimProbeChannel inner{bed.simulator(), bed.path()};
  FaultChannel ch{inner, FaultPlan{.drop_every = 1, .truncate_every = 1}};
  const StreamOutcome out = ch.run_stream(probe_stream(1));
  EXPECT_TRUE(out.records.empty());
  EXPECT_EQ(ch.streams_blacked_out(), 1);
  EXPECT_EQ(ch.streams_truncated(), 0);
}

TEST(FaultChannel, FailAfterStreamsBreaksStreamsAndControlOps) {
  scenario::ScenarioInstance bed = make_bed();
  bed.start();
  scenario::SimProbeChannel inner{bed.simulator(), bed.path()};
  FaultChannel ch{inner, FaultPlan{.fail_after_streams = 2}};
  EXPECT_NO_THROW(ch.run_stream(probe_stream(1)));
  EXPECT_NO_THROW(ch.rtt());
  EXPECT_NO_THROW(ch.run_stream(probe_stream(2)));
  EXPECT_THROW(ch.run_stream(probe_stream(3)), ChannelFault);
  EXPECT_THROW(ch.rtt(), ChannelFault);
  EXPECT_EQ(ch.streams_seen(), 2);
}

TEST(FaultChannel, StallConsumesChannelTime) {
  scenario::ScenarioInstance bed = make_bed();
  bed.start();
  scenario::SimProbeChannel inner{bed.simulator(), bed.path()};
  FaultChannel ch{inner, FaultPlan{.stall = Duration::milliseconds(50)}};
  const TimePoint before = ch.now();
  ch.run_stream(probe_stream(1));
  EXPECT_GE(ch.now() - before, Duration::milliseconds(50));
}

TEST(RunGuarded, ChannelFaultBecomesAFailedReportNotAnException) {
  scenario::ScenarioInstance bed = make_bed();
  bed.start();
  scenario::SimProbeChannel inner{bed.simulator(), bed.path()};
  FaultChannel ch{inner, FaultPlan{.fail_after_streams = 1}};
  const auto est = baselines::builtin_estimators().make("cprobe", "trains=3");
  Rng rng{1};
  const EstimateReport report = run_guarded(*est, ch, rng);
  EXPECT_EQ(report.outcome, EstimateReport::Outcome::kFailed);
  EXPECT_NE(report.outcome_note.find("channel fault"), std::string::npos)
      << report.outcome_note;
  EXPECT_FALSE(report.valid);
}

TEST(RunGuarded, ConfigurationErrorsStayLoud) {
  scenario::ScenarioInstance bed = make_bed();
  bed.start();
  scenario::SimProbeChannel inner{bed.simulator(), bed.path()};
  // Spruce without its capacity hint is a configuration bug, not a
  // degraded measurement: run_guarded must rethrow.
  const auto est = baselines::builtin_estimators().make("spruce");
  Rng rng{1};
  EXPECT_THROW(run_guarded(*est, inner, rng), EstimatorError);
}

TEST(ClassifyOutcome, LadderOrder) {
  EstimateReport r;
  r.valid = false;
  classify_outcome(r, /*hit_deadline=*/true);
  EXPECT_EQ(r.outcome, EstimateReport::Outcome::kFailed);  // failed beats timeout

  r = EstimateReport{};
  r.valid = true;
  classify_outcome(r, /*hit_deadline=*/true);
  EXPECT_EQ(r.outcome, EstimateReport::Outcome::kTimeout);

  r = EstimateReport{};
  r.valid = true;
  r.packets_sent = 100;
  r.packets_lost = 10;
  classify_outcome(r, /*hit_deadline=*/false);
  EXPECT_EQ(r.outcome, EstimateReport::Outcome::kDegraded);
  EXPECT_NE(r.outcome_note.find("probe loss"), std::string::npos);

  r = EstimateReport{};
  r.valid = true;
  r.packets_sent = 100;
  r.packets_lost = 1;  // 1% < the 2% default threshold
  classify_outcome(r, /*hit_deadline=*/false);
  EXPECT_EQ(r.outcome, EstimateReport::Outcome::kOk);
}

TEST(Deadline, UniversalOverrideKeyWorksForEveryEstimator) {
  const EstimatorRegistry& reg = baselines::builtin_estimators();
  for (const auto& entry : reg.entries()) {
    const auto est = reg.make(entry.name, "deadline_s = 0.25");
    ASSERT_TRUE(est->run_deadline().has_value()) << entry.name;
    EXPECT_EQ(*est->run_deadline(), Duration::seconds(0.25)) << entry.name;
  }
  // Unknown keys are still rejected.
  EXPECT_THROW(reg.make("cprobe", "deadlines = 1"), EstimatorError);
}

TEST(Deadline, CutsARunShortWithATimeoutReportInsteadOfHanging) {
  scenario::ScenarioInstance bed = make_bed(0.6);
  bed.start();
  scenario::SimProbeChannel ch{bed.simulator(), bed.path()};
  // A deadline far below one train's duration: the tool must stop early
  // and report kTimeout, not run its full schedule.
  const auto est =
      baselines::builtin_estimators().make("cprobe", "deadline_s = 0.001");
  Rng rng{1};
  const EstimateReport report = est->run(ch, rng);
  EXPECT_EQ(report.outcome, EstimateReport::Outcome::kTimeout);
  EXPECT_LT(report.elapsed, Duration::seconds(1));
}

}  // namespace
}  // namespace pathload::core
