// Congestion-control recovery and RTO paths of the packet TCP sender under
// random loss: the duel presets' competing flow, forced to the packet
// backend (mode=packet), on cubic and on bbr, with the tight hop dropping
// packets at random (an impair line). Each policy must go through fast
// retransmit, with its partial-ACK and duplicate-ACK window inflation,
// and through retransmission timeouts; the counts are pinned.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

#include "scenario/registry.hpp"
#include "scenario/spec.hpp"
#include "tcp/cong.hpp"
#include "tcp/workload.hpp"

namespace pathload::scenario {
namespace {

struct Recovery {
  std::uint64_t fast_retransmits{0};
  std::uint64_t timeouts{0};
  std::uint64_t segments_acked{0};
};

/// The flow's connection 4.5 s into its first 5 s ON period.
Recovery duel_recovery(const char* preset, const char* cc) {
  ScenarioSpec spec = Registry::builtin().at(preset);
  spec.seed = 77;
  EXPECT_EQ(spec.flows.size(), 1u);
  spec.flows[0].mode = FlowSpec::Mode::kPacket;
  spec.flows[0].cc = cc;
  ImpairSpec loss;
  loss.hop = 1;
  loss.loss = 0.03;
  loss.seed = 7;
  spec.impairments.push_back(loss);
  ScenarioInstance inst{std::move(spec)};
  inst.start();
  inst.simulator().run_until(TimePoint::origin() + Duration::milliseconds(4500));
  auto* flow = dynamic_cast<tcp::SegmentTcpFlow*>(inst.flows().at(0).get());
  EXPECT_NE(flow, nullptr);
  if (flow == nullptr || flow->connection() == nullptr) return {};
  const tcp::TcpSender& sender = flow->connection()->sender();
  EXPECT_EQ(sender.congestion_ops().name(), std::string{cc});
  return {sender.fast_retransmits(), flow->timeouts(), sender.segments_acked()};
}

TEST(CcRecovery, CubicRecoversAndTimesOutUnderLoss) {
  const Recovery r = duel_recovery("tcp-vs-probe-duel", "cubic");
  EXPECT_GT(r.fast_retransmits, 0u);
  EXPECT_GT(r.timeouts, 0u);
  EXPECT_EQ(r.fast_retransmits, 13u);
  EXPECT_EQ(r.timeouts, 2u);
  EXPECT_EQ(r.segments_acked, 359u);
}

TEST(CcRecovery, BbrRecoversAndTimesOutUnderLoss) {
  const Recovery r = duel_recovery("bbr-vs-probe-duel", "bbr");
  EXPECT_GT(r.fast_retransmits, 0u);
  EXPECT_GT(r.timeouts, 0u);
  EXPECT_EQ(r.fast_retransmits, 8u);
  EXPECT_EQ(r.timeouts, 9u);
  EXPECT_EQ(r.segments_acked, 693u);
}

}  // namespace
}  // namespace pathload::scenario
