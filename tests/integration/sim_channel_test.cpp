#include <gtest/gtest.h>

#include <stdexcept>

#include "core/trend.hpp"
#include "scenario/paper_path.hpp"
#include "scenario/sim_channel.hpp"
#include "scenario/spec.hpp"

namespace pathload::scenario {
namespace {

/// The paper path `cfg` describes, built the way every scenario is built.
ScenarioInstance paper_instance(const PaperPathConfig& cfg) {
  return ScenarioInstance{ScenarioSpec::from_paper("paper", "", cfg)};
}

PaperPathConfig quiet_path() {
  PaperPathConfig cfg;
  cfg.hops = 3;
  cfg.tight_capacity = Rate::mbps(10);
  cfg.tight_utilization = 0.6;
  cfg.model = sim::Interarrival::kConstant;  // deterministic for these tests
  cfg.warmup = Duration::seconds(1);
  return cfg;
}

core::StreamSpec spec_at(Rate rate, int k = 100) {
  core::PathloadConfig tool;
  tool.packets_per_stream = k;
  return [&] {
    auto s = core::make_stream_spec(rate, tool);
    s.stream_id = 1;
    return s;
  }();
}

TEST(SimProbeChannel, DeliversAllPacketsOnQuietPath) {
  PaperPathConfig cfg = quiet_path();
  ScenarioInstance bed = paper_instance(cfg);
  bed.start();
  SimProbeChannel ch{bed.simulator(), bed.path()};
  const auto spec = spec_at(Rate::mbps(2));
  const auto outcome = ch.run_stream(spec);
  EXPECT_EQ(outcome.sent_count, 100);
  EXPECT_EQ(outcome.records.size(), 100u);
  // Sequence order preserved.
  for (std::uint32_t i = 0; i < outcome.records.size(); ++i) {
    EXPECT_EQ(outcome.records[i].seq, i);
  }
}

TEST(SimProbeChannel, OwdTrendIncreasingWhenRateAboveAvailBw) {
  ScenarioInstance bed = paper_instance(quiet_path());  // A = 4 Mb/s
  bed.start();
  SimProbeChannel ch{bed.simulator(), bed.path()};
  const auto outcome = ch.run_stream(spec_at(Rate::mbps(8)));
  const auto owds = core::relative_owds(outcome);
  EXPECT_EQ(core::classify_owds(owds, core::TrendConfig{}),
            core::StreamClass::kIncreasing);
}

TEST(SimProbeChannel, OwdTrendFlatWhenRateBelowAvailBw) {
  ScenarioInstance bed = paper_instance(quiet_path());
  bed.start();
  SimProbeChannel ch{bed.simulator(), bed.path()};
  const auto outcome = ch.run_stream(spec_at(Rate::mbps(2)));
  const auto owds = core::relative_owds(outcome);
  EXPECT_EQ(core::classify_owds(owds, core::TrendConfig{}),
            core::StreamClass::kNonIncreasing);
}

TEST(SimProbeChannel, ClockOffsetsDoNotChangeRelativeOwds) {
  PaperPathConfig cfg = quiet_path();
  ScenarioInstance bed1 = paper_instance(cfg);
  bed1.start();
  SimProbeChannel ch1{bed1.simulator(), bed1.path()};
  const auto owds_synced = core::relative_owds(ch1.run_stream(spec_at(Rate::mbps(6))));

  ScenarioInstance bed2 = paper_instance(cfg);  // same seed: identical traffic
  bed2.start();
  SimProbeChannel ch2{bed2.simulator(), bed2.path()};
  ch2.set_sender_clock_offset(Duration::seconds(-3600));
  ch2.set_receiver_clock_offset(Duration::seconds(7200));
  const auto owds_skewed = core::relative_owds(ch2.run_stream(spec_at(Rate::mbps(6))));

  ASSERT_EQ(owds_synced.size(), owds_skewed.size());
  for (std::size_t i = 0; i < owds_synced.size(); ++i) {
    EXPECT_NEAR(owds_synced[i], owds_skewed[i], 1e-12);
  }
}

TEST(SimProbeChannel, SendGapInjectionIsVisibleToScreening) {
  ScenarioInstance bed = paper_instance(quiet_path());
  bed.start();
  SimProbeChannel ch{bed.simulator(), bed.path()};
  // Stall 5 ms before every 10th packet: 10 anomalies in 100 packets.
  ch.set_send_gap_injector([](std::uint32_t seq) {
    return (seq % 10 == 9) ? Duration::milliseconds(5) : Duration::zero();
  });
  const auto spec = spec_at(Rate::mbps(6));
  const auto outcome = ch.run_stream(spec);
  const auto screen = core::screen_send_gaps(outcome, spec, core::PathloadConfig{});
  EXPECT_FALSE(screen.valid);
  EXPECT_GE(screen.anomalies, 9);
}

TEST(SimProbeChannel, IdleAdvancesVirtualTime) {
  ScenarioInstance bed = paper_instance(quiet_path());
  bed.start();
  SimProbeChannel ch{bed.simulator(), bed.path()};
  const TimePoint before = ch.now();
  ch.idle(Duration::milliseconds(250));
  EXPECT_EQ(ch.now() - before, Duration::milliseconds(250));
}

TEST(SimProbeChannel, RttCoversForwardAndReversePath) {
  ScenarioInstance bed = paper_instance(quiet_path());
  bed.start();
  SimProbeChannel ch{bed.simulator(), bed.path()};
  // 50 ms forward propagation + 50 ms reverse, plus serialization.
  EXPECT_GE(ch.rtt(), Duration::milliseconds(100));
  EXPECT_LT(ch.rtt(), Duration::milliseconds(110));
}

TEST(SimProbeChannel, LossyPathReportsPartialStream) {
  PaperPathConfig cfg = quiet_path();
  cfg.tight_utilization = 0.8;
  cfg.buffer_drain = Duration::milliseconds(2);  // tiny buffer -> drops
  ScenarioInstance bed = paper_instance(cfg);
  bed.start();
  SimProbeChannel ch{bed.simulator(), bed.path()};
  const auto spec = spec_at(Rate::mbps(40));
  const auto outcome = ch.run_stream(spec);
  EXPECT_EQ(outcome.sent_count, 100);
  EXPECT_LT(outcome.records.size(), 100u);
  EXPECT_GT(core::loss_rate(outcome, spec), 0.0);
}

TEST(SimProbeChannel, StalePacketsFromPreviousStreamIgnored) {
  ScenarioInstance bed = paper_instance(quiet_path());
  bed.start();
  SimProbeChannel ch{bed.simulator(), bed.path()};
  auto spec1 = spec_at(Rate::mbps(6));
  spec1.stream_id = 1;
  const auto o1 = ch.run_stream(spec1);
  auto spec2 = spec1;
  spec2.stream_id = 2;
  const auto o2 = ch.run_stream(spec2);
  EXPECT_EQ(o1.records.size(), 100u);
  EXPECT_EQ(o2.records.size(), 100u);
}

TEST(SimProbeChannel, RejectsOutOfRangePacketCounts) {
  // The FIFO ticket reservation casts packet_count to uint32; a negative
  // or absurd count must fail loudly instead of wrapping the ticket block.
  ScenarioInstance bed = paper_instance(quiet_path());
  bed.start();
  SimProbeChannel ch{bed.simulator(), bed.path()};
  auto spec = spec_at(Rate::mbps(2));
  spec.packet_count = 0;
  EXPECT_THROW(ch.run_stream(spec), std::invalid_argument);
  spec.packet_count = -7;
  EXPECT_THROW(ch.run_stream(spec), std::invalid_argument);
  spec.packet_count = 1'000'001;
  EXPECT_THROW(ch.run_stream(spec), std::invalid_argument);
  // Boundary values stay usable.
  spec.packet_count = 1;
  EXPECT_NO_THROW(ch.run_stream(spec));
}

}  // namespace
}  // namespace pathload::scenario
