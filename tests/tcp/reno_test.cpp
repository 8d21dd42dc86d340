#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "sim/monitor.hpp"
#include "sim/rtt_probe.hpp"
#include "sim/traffic.hpp"
#include "tcp/reno.hpp"

namespace pathload::tcp {
namespace {

struct TestNet {
  sim::Simulator sim;
  std::unique_ptr<sim::Path> path;

  explicit TestNet(Rate bottleneck, Duration buffer_drain = Duration::milliseconds(250),
                   Duration prop = Duration::milliseconds(40)) {
    path = std::make_unique<sim::Path>(
        sim, std::vector<sim::HopSpec>{
                 {bottleneck, prop, bottleneck.bytes_in(buffer_drain)}});
  }
};

TEST(TcpReceiver, CumulativeAckAdvancesInOrder) {
  sim::Simulator sim;
  TcpReceiver rx{sim, Duration::zero()};
  sim::Packet p;
  p.size_bytes = 1500;
  for (std::uint64_t s : {0, 1, 2}) {
    p.tcp_seq = s;
    rx.handle(p);
  }
  EXPECT_EQ(rx.cumulative_ack(), 3u);
}

TEST(TcpReceiver, OutOfOrderBufferedThenDrained) {
  sim::Simulator sim;
  TcpReceiver rx{sim, Duration::zero()};
  sim::Packet p;
  p.size_bytes = 1500;
  p.tcp_seq = 1;
  rx.handle(p);  // hole at 0
  EXPECT_EQ(rx.cumulative_ack(), 0u);
  p.tcp_seq = 2;
  rx.handle(p);
  EXPECT_EQ(rx.cumulative_ack(), 0u);
  p.tcp_seq = 0;
  rx.handle(p);  // fills the hole -> drains 1 and 2
  EXPECT_EQ(rx.cumulative_ack(), 3u);
}

TEST(TcpReceiver, DuplicateSegmentsDoNotRegress) {
  sim::Simulator sim;
  TcpReceiver rx{sim, Duration::zero()};
  sim::Packet p;
  p.size_bytes = 1500;
  p.tcp_seq = 0;
  rx.handle(p);
  rx.handle(p);  // duplicate
  EXPECT_EQ(rx.cumulative_ack(), 1u);
}

TEST(TcpReceiver, OutOfOrderBufferMatchesSetModelAcrossGrowth) {
  // Segments arrive scrambled over windows of up to 700 segments, with
  // duplicates and stale retransmissions, so the out-of-order ring grows
  // several times with segments buffered. The cumulative ACK must match a
  // plain ordered-set model after every arrival.
  sim::Simulator sim;
  TcpReceiver rx{sim, Duration::zero()};
  std::set<std::uint64_t> model_ooo;
  std::uint64_t model_next = 0;
  std::uint64_t lcg = 12345;
  sim::Packet p;
  p.size_bytes = 1500;
  for (int i = 0; i < 20000; ++i) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t window = 1 + (static_cast<std::uint64_t>(i) / 4000) * 175;
    const std::uint64_t r = lcg >> 33;
    // Mostly near the hole, sometimes anywhere in the window, sometimes old.
    std::uint64_t seq = model_next + (r % 3 == 0 ? r % window : r % 4);
    if (r % 17 == 0 && model_next > 0) seq = model_next - 1;
    p.tcp_seq = seq;
    rx.handle(p);
    if (seq == model_next) {
      ++model_next;
      while (!model_ooo.empty() && *model_ooo.begin() == model_next) {
        model_ooo.erase(model_ooo.begin());
        ++model_next;
      }
    } else if (seq > model_next) {
      model_ooo.insert(seq);
    }
    ASSERT_EQ(rx.cumulative_ack(), model_next) << "arrival " << i;
  }
  EXPECT_GT(model_next, 1000u);
}

TEST(TcpSender, SlowStartDoublesPerRtt) {
  TestNet net{Rate::mbps(100)};  // effectively lossless, RTT-bound
  TcpConnection conn{net.sim, *net.path, TcpConfig{}, Duration::milliseconds(40)};
  conn.sender().start();
  // After ~4 RTTs (RTT ~80 ms) of slow start, cwnd should have grown
  // exponentially from 2: 2 -> 4 -> 8 -> 16 -> 32.
  net.sim.run_for(Duration::milliseconds(4 * 80 + 20));
  EXPECT_GE(conn.sender().cwnd_segments(), 16.0);
  EXPECT_EQ(conn.sender().timeouts(), 0u);
}

TEST(TcpSender, AdvertisedWindowCapsInFlight) {
  TestNet net{Rate::mbps(100)};
  TcpConfig cfg;
  cfg.advertised_window = 8.0;
  TcpConnection conn{net.sim, *net.path, cfg, Duration::milliseconds(40)};
  conn.sender().start();
  net.sim.run_for(Duration::seconds(3));
  // Throughput ~ awnd * MSS / RTT = 8 * 1460 B / 80 ms ~ 1.17 Mb/s.
  const double tput = conn.sender().average_throughput().mbits_per_sec();
  EXPECT_NEAR(tput, 8 * 1460 * 8.0 / 0.080 * 1e-6, 0.3);
}

TEST(TcpSender, SaturatesBottleneck) {
  TestNet net{Rate::mbps(8)};
  TcpConnection conn{net.sim, *net.path, TcpConfig{}, Duration::milliseconds(40)};
  conn.sender().start();
  net.sim.run_for(Duration::seconds(30));
  // A greedy Reno flow alone on an 8 Mb/s link with adequate buffering
  // should achieve near-capacity goodput.
  EXPECT_GT(conn.sender().average_throughput().mbits_per_sec(), 6.8);
  EXPECT_LT(conn.sender().average_throughput().mbits_per_sec(), 8.2);
}

TEST(TcpSender, LossTriggersFastRetransmitNotOnlyTimeouts) {
  TestNet net{Rate::mbps(4), Duration::milliseconds(60)};  // small buffer
  TcpConnection conn{net.sim, *net.path, TcpConfig{}, Duration::milliseconds(40)};
  conn.sender().start();
  net.sim.run_for(Duration::seconds(30));
  EXPECT_GT(conn.sender().fast_retransmits(), 0u);
  // Fast retransmit should dominate over RTO for isolated drop-tail losses.
  EXPECT_GT(conn.sender().fast_retransmits(), conn.sender().timeouts());
}

TEST(TcpSender, CwndSawtoothUnderCongestion) {
  TestNet net{Rate::mbps(4), Duration::milliseconds(100)};
  TcpConnection conn{net.sim, *net.path, TcpConfig{}, Duration::milliseconds(40)};
  conn.sender().start();
  // Sample cwnd over time; expect both growth and multiplicative drops.
  double max_cwnd = 0.0;
  bool saw_decrease = false;
  double prev = 0.0;
  for (int i = 0; i < 300; ++i) {
    net.sim.run_for(Duration::milliseconds(100));
    const double c = conn.sender().cwnd_segments();
    if (c < prev * 0.7) saw_decrease = true;
    max_cwnd = std::max(max_cwnd, c);
    prev = c;
  }
  EXPECT_TRUE(saw_decrease);
  EXPECT_GT(max_cwnd, 8.0);
}

TEST(TcpSender, RttInflatesWithQueueFill) {
  // The Fig. 16 mechanism: a greedy TCP fills the drop-tail queue, so RTT
  // grows from the base toward base + buffer drain time.
  TestNet net{Rate::mbps(8), Duration::milliseconds(200)};
  TcpConnection conn{net.sim, *net.path, TcpConfig{}, Duration::milliseconds(40)};
  conn.sender().start();
  net.sim.run_for(Duration::seconds(20));
  const auto& samples = conn.sender().rtt_samples_secs();
  ASSERT_GT(samples.size(), 100u);
  double max_rtt = 0.0;
  for (double s : samples) max_rtt = std::max(max_rtt, s);
  // Base RTT = 80 ms; queueing should push peaks well beyond 150 ms.
  EXPECT_GT(max_rtt, 0.15);
}

TEST(TcpSender, StopEndsTransfer) {
  TestNet net{Rate::mbps(8)};
  TcpConnection conn{net.sim, *net.path, TcpConfig{}, Duration::milliseconds(40)};
  conn.sender().start();
  net.sim.run_for(Duration::seconds(5));
  conn.sender().stop();
  net.sim.run_for(Duration::seconds(2));  // drain
  const auto acked = conn.sender().segments_acked();
  net.sim.run_for(Duration::seconds(5));
  EXPECT_EQ(conn.sender().segments_acked(), acked);
}

TEST(TcpSender, SrttTracksPathRtt) {
  TestNet net{Rate::mbps(50)};
  TcpConfig cfg;
  cfg.advertised_window = 4.0;  // light load, no queueing
  TcpConnection conn{net.sim, *net.path, cfg, Duration::milliseconds(40)};
  conn.sender().start();
  net.sim.run_for(Duration::seconds(5));
  EXPECT_NEAR(conn.sender().srtt().millis(), 80.0, 10.0);
}

TEST(TcpSender, TwoGreedyFlowsShareFairly) {
  TestNet net{Rate::mbps(8), Duration::milliseconds(250)};
  TcpConnection a{net.sim, *net.path, TcpConfig{}, Duration::milliseconds(40)};
  TcpConnection b{net.sim, *net.path, TcpConfig{}, Duration::milliseconds(40)};
  a.sender().start();
  b.sender().start();
  net.sim.run_for(Duration::seconds(60));
  const double ta = a.sender().average_throughput().mbits_per_sec();
  const double tb = b.sender().average_throughput().mbits_per_sec();
  EXPECT_NEAR(ta + tb, 8.0, 1.2);      // jointly saturate
  EXPECT_GT(std::min(ta, tb) / std::max(ta, tb), 0.5);  // rough fairness
}

TEST(TcpConnection, SafeToDestroyWithEventsInFlight) {
  // ACKs may still be in flight and the RTO armed when a connection is
  // torn down (e.g. the Fig. 15 timeline destroys the BTC connection at an
  // interval boundary). Their events must run nothing, not dereference a
  // dead sender or receiver (tests/tcp/ack_line_test.cpp counts them).
  TestNet net{Rate::mbps(8)};
  {
    TcpConnection conn{net.sim, *net.path, TcpConfig{}, Duration::milliseconds(40)};
    conn.sender().start();
    net.sim.run_for(Duration::seconds(2));
    // Destroy mid-transfer with ACKs in flight and the RTO armed.
  }
  EXPECT_NO_THROW(net.sim.run_for(Duration::seconds(5)));
}

TEST(TcpSender, GreedyFlowStealsFromWindowLimitedFlows) {
  // Section VII's key effect: a BTC connection inflates RTT, which cuts
  // window-limited flows' throughput (awnd/RTT), letting BTC take more
  // than what was "available" before it started.
  TestNet net{Rate::mbps(8), Duration::milliseconds(250)};
  TcpConfig limited;
  limited.advertised_window = 10.0;  // ~1.5 Mb/s at 80 ms base RTT
  std::vector<std::unique_ptr<TcpConnection>> cross;
  for (int i = 0; i < 3; ++i) {
    cross.push_back(std::make_unique<TcpConnection>(net.sim, *net.path, limited,
                                                    Duration::milliseconds(40)));
    cross.back()->sender().start();
  }
  net.sim.run_for(Duration::seconds(30));
  DataSize before{};
  for (auto& c : cross) before += c->sender().bytes_acked();
  const Rate cross_rate_before = rate_of(before, Duration::seconds(30));

  TcpConnection btc{net.sim, *net.path, TcpConfig{}, Duration::milliseconds(40)};
  btc.sender().start();
  net.sim.run_for(Duration::seconds(30));
  DataSize after{};
  for (auto& c : cross) after += c->sender().bytes_acked();
  const Rate cross_rate_during = rate_of(after - before, Duration::seconds(30));

  EXPECT_LT(cross_rate_during.mbits_per_sec(), cross_rate_before.mbits_per_sec());
  // BTC got more than the pre-existing avail-bw (8 - cross_before).
  EXPECT_GT(btc.sender().average_throughput().mbits_per_sec(),
            8.0 - cross_rate_before.mbits_per_sec());
}

}  // namespace
}  // namespace pathload::tcp
