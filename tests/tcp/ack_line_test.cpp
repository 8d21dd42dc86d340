// The TCP ACK clock's event accounting. The receiver's ACK delay line and
// the sender's counted RTO timer must fire exactly the events, in exactly
// the order, that one scheduled event per ACK and per RTO arm would: ACKs
// interleave with foreign events at the same instant by FIFO ticket, and a
// connection torn down mid-flight leaves each ACK in flight and its pending
// RTO as one event that runs nothing.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/path.hpp"
#include "tcp/reno.hpp"

namespace pathload::tcp {
namespace {

/// Stands in for a sender: logs each ACK it is handed.
struct AckLog final : sim::PacketHandler {
  explicit AckLog(std::vector<std::string>& log) : order{&log} {}
  std::vector<std::string>* order;
  std::vector<sim::Packet> acks;
  void handle(const sim::Packet& ack) override {
    order->push_back("ack" + std::to_string(ack.tcp_seq));
    acks.push_back(ack);
  }
};

sim::Packet segment(std::uint64_t seq) {
  sim::Packet p;
  p.flow = 7;
  p.kind = sim::PacketKind::kTcpData;
  p.size_bytes = 1500;
  p.tcp_seq = seq;
  return p;
}

TEST(TcpAckLine, AcksAndForeignEventsAtOneInstantPopInTicketOrder) {
  sim::Simulator sim;
  std::vector<std::string> order;
  AckLog sender{order};
  TcpReceiver rx{sim, Duration::milliseconds(100)};
  rx.connect(&sender);

  // Every event below is due at t. The two ACKs take their FIFO tickets
  // when their segments arrive, between the foreign events.
  const TimePoint t = sim.now() + Duration::milliseconds(100);
  sim.schedule_at(t, [&] { order.push_back("f0"); });
  rx.handle(segment(0));  // ACK 1
  sim.schedule_at(t, [&] {
    order.push_back("f1");
    // Scheduled for now: behind everything already due, the second ACK too.
    sim.schedule_now([&] { order.push_back("n1"); });
  });
  rx.handle(segment(1));  // ACK 2
  sim.schedule_at(t, [&] { order.push_back("f2"); });
  EXPECT_EQ(rx.acks_in_flight(), 2u);

  sim.run_all();
  EXPECT_EQ(order, (std::vector<std::string>{"f0", "ack1", "f1", "ack2", "f2", "n1"}));
  EXPECT_EQ(sim.events_processed(), 6u);
  EXPECT_EQ(sim.now(), t);
  EXPECT_EQ(rx.acks_in_flight(), 0u);

  // Each ACK carries the packet id drawn when its segment arrived.
  ASSERT_EQ(sender.acks.size(), 2u);
  EXPECT_EQ(sender.acks[0].id, 1u);
  EXPECT_EQ(sender.acks[1].id, 2u);
  for (const sim::Packet& ack : sender.acks) {
    EXPECT_EQ(ack.flow, 7u);
    EXPECT_EQ(ack.kind, sim::PacketKind::kTcpAck);
    EXPECT_EQ(ack.size_bytes, 40);
  }
}

TEST(TcpAckLine, DestroyedReceiverLeavesOneCountedEventPerAckInFlight) {
  sim::Simulator sim;
  std::vector<std::string> order;
  AckLog sender{order};
  auto rx = std::make_unique<TcpReceiver>(sim, Duration::milliseconds(100));
  rx->connect(&sender);
  for (std::uint64_t seq = 0; seq < 3; ++seq) {  // ACKs due at 100, 110, 120 ms
    rx->handle(segment(seq));
    sim.run_for(Duration::milliseconds(10));
  }
  sim.run_until(TimePoint::origin() + Duration::milliseconds(105));
  ASSERT_EQ(order, (std::vector<std::string>{"ack1"}));
  ASSERT_EQ(sim.events_processed(), 1u);

  rx.reset();  // two ACKs in flight
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.run_until(TimePoint::origin() + Duration::milliseconds(115));
  EXPECT_EQ(sim.events_processed(), 2u);  // the 110 ms ACK, as a no-op
  sim.run_all();
  EXPECT_EQ(sim.events_processed(), 3u);
  EXPECT_EQ(sim.now(), TimePoint::origin() + Duration::milliseconds(120));
  EXPECT_EQ(order, (std::vector<std::string>{"ack1"}));
}

TEST(TcpAckLine, TornDownConnectionCountsEachAckInFlightAndItsRto) {
  sim::Simulator sim;
  sim::Path path{sim, std::vector<sim::HopSpec>{{Rate::mbps(8), Duration::milliseconds(20),
                                                 DataSize::bytes(500'000)}}};
  auto conn = std::make_unique<TcpConnection>(sim, path, TcpConfig{},
                                              Duration::milliseconds(20));
  conn->sender().start();  // two segments at t = 0; the RTO armed for 1 s
  // Both segments have reached the receiver (about 21.5 and 23 ms); their
  // ACKs are due at about 41.5 and 43 ms.
  sim.run_until(TimePoint::origin() + Duration::milliseconds(30));
  ASSERT_EQ(conn->receiver().acks_in_flight(), 2u);
  ASSERT_EQ(path.link(0).in_flight(), 0u);
  ASSERT_FALSE(path.link(0).busy());
  const std::uint64_t before = sim.events_processed();

  conn.reset();
  EXPECT_EQ(sim.pending_events(), 3u);
  sim.run_until(TimePoint::origin() + Duration::milliseconds(50));
  EXPECT_EQ(sim.events_processed() - before, 2u);  // both ACKs, as no-ops
  sim.run_all();
  EXPECT_EQ(sim.events_processed() - before, 3u);  // and the RTO
  EXPECT_EQ(sim.now(), TimePoint::origin() + Duration::seconds(1));
}

}  // namespace
}  // namespace pathload::tcp
