// Link impairment tests: determinism per seed, strict opt-in (an
// unimpaired link never touches an impairment RNG), and the per-knob
// semantics of loss, duplication, and reorder jitter.

#include <gtest/gtest.h>

#include <vector>

#include "sim/link.hpp"
#include "sim/simulator.hpp"

namespace pathload::sim {
namespace {

class Collector final : public PacketHandler {
 public:
  explicit Collector(Simulator& sim) : sim_{sim} {}
  void handle(const Packet& p) override {
    packets.push_back(p);
    arrivals.push_back(sim_.now());
  }
  std::vector<Packet> packets;
  std::vector<TimePoint> arrivals;

 private:
  Simulator& sim_;
};

Packet make_packet(Simulator& sim, std::uint32_t seq, std::uint32_t flow = 1) {
  Packet p;
  p.id = sim.next_packet_id();
  p.flow = flow;
  p.seq = seq;
  p.size_bytes = 500;
  p.transit = true;
  return p;
}

/// Feed `count` packets through a link configured with `imp`; returns the
/// delivered (seq, arrival) sequence plus the link's impairment counters.
struct RunResult {
  std::vector<std::uint32_t> seqs;
  std::vector<Duration> arrivals;
  std::uint64_t impaired_drops{0};
  std::uint64_t duplicates{0};
};

RunResult run_impaired(const LinkImpairments& imp, int count) {
  Simulator sim;
  Link link{sim, "l", Rate::mbps(100), Duration::milliseconds(1),
            DataSize::bytes(1'000'000)};
  link.set_impairments(imp);
  Collector out{sim};
  link.set_downstream(&out);
  for (int i = 0; i < count; ++i) {
    link.handle(make_packet(sim, static_cast<std::uint32_t>(i)));
  }
  sim.run_all();
  RunResult r;
  for (const auto& p : out.packets) r.seqs.push_back(p.seq);
  for (const auto& t : out.arrivals) r.arrivals.push_back(t - TimePoint::origin());
  r.impaired_drops = link.impaired_drops();
  r.duplicates = link.duplicates();
  return r;
}

TEST(LinkImpairments, OffByDefaultAndAllZeroStaysOff) {
  Simulator sim;
  Link link{sim, "l", Rate::mbps(10), Duration::zero(), DataSize::bytes(100000)};
  EXPECT_FALSE(link.impaired());
  link.set_impairments(LinkImpairments{});  // all-zero: still pristine
  EXPECT_FALSE(link.impaired());
  link.set_impairments(LinkImpairments{.loss = 0.5});
  EXPECT_TRUE(link.impaired());
  link.set_impairments(LinkImpairments{});  // clearing works too
  EXPECT_FALSE(link.impaired());
}

TEST(LinkImpairments, UnimpairedRunIsBitIdenticalToPreImpairmentLink) {
  // The golden-anchor contract: installing an all-zero impairment struct
  // must not change a single delivery time.
  const RunResult pristine = run_impaired(LinkImpairments{}, 50);
  Simulator sim;
  Link link{sim, "l", Rate::mbps(100), Duration::milliseconds(1),
            DataSize::bytes(1'000'000)};
  // No set_impairments call at all.
  Collector out{sim};
  link.set_downstream(&out);
  for (int i = 0; i < 50; ++i) {
    link.handle(make_packet(sim, static_cast<std::uint32_t>(i)));
  }
  sim.run_all();
  ASSERT_EQ(out.packets.size(), pristine.seqs.size());
  for (std::size_t i = 0; i < pristine.seqs.size(); ++i) {
    EXPECT_EQ(out.packets[i].seq, pristine.seqs[i]);
    EXPECT_EQ(out.arrivals[i] - TimePoint::origin(), pristine.arrivals[i]);
  }
  EXPECT_EQ(pristine.impaired_drops, 0u);
  EXPECT_EQ(pristine.duplicates, 0u);
}

TEST(LinkImpairments, SameSeedSameFate) {
  const LinkImpairments imp{.loss = 0.3, .dup = 0.1,
                            .reorder = Duration::milliseconds(2), .seed = 42};
  const RunResult a = run_impaired(imp, 200);
  const RunResult b = run_impaired(imp, 200);
  ASSERT_EQ(a.seqs, b.seqs);
  ASSERT_EQ(a.arrivals.size(), b.arrivals.size());
  for (std::size_t i = 0; i < a.arrivals.size(); ++i) {
    EXPECT_EQ(a.arrivals[i].nanos(), b.arrivals[i].nanos());
  }
  EXPECT_EQ(a.impaired_drops, b.impaired_drops);
  EXPECT_EQ(a.duplicates, b.duplicates);
  // And a different seed picks different victims (overwhelmingly likely
  // with 200 draws at 30% loss).
  LinkImpairments other = imp;
  other.seed = 43;
  EXPECT_NE(run_impaired(other, 200).seqs, a.seqs);
}

TEST(LinkImpairments, CertainLossDropsEverythingAndAccounts) {
  const RunResult r = run_impaired(LinkImpairments{.loss = 0.999999999}, 40);
  EXPECT_TRUE(r.seqs.empty());
  EXPECT_EQ(r.impaired_drops, 40u);
}

TEST(LinkImpairments, CertainDuplicationDeliversEveryPacketTwice) {
  const RunResult r = run_impaired(LinkImpairments{.dup = 0.999999999}, 20);
  EXPECT_EQ(r.seqs.size(), 40u);
  EXPECT_EQ(r.duplicates, 20u);
}

TEST(LinkImpairments, PerFlowAccountingBalances) {
  // records + per-flow drops == sent + per-flow dups, the invariant probe
  // accounting relies on.
  Simulator sim;
  Link link{sim, "l", Rate::mbps(100), Duration::zero(), DataSize::bytes(1'000'000)};
  link.set_impairments(LinkImpairments{.loss = 0.2, .dup = 0.2, .seed = 7});
  Collector out{sim};
  link.set_downstream(&out);
  const int sent = 300;
  for (int i = 0; i < sent; ++i) {
    link.handle(make_packet(sim, static_cast<std::uint32_t>(i), /*flow=*/9));
  }
  sim.run_all();
  EXPECT_EQ(out.packets.size() + link.drops_for_flow(9),
            static_cast<std::size_t>(sent) + link.dups_for_flow(9));
  EXPECT_GT(link.drops_for_flow(9), 0u);
  EXPECT_GT(link.dups_for_flow(9), 0u);
}

TEST(LinkImpairments, ReorderJitterStaysWithinBoundAndCanReorder) {
  // One packet at a time (no queueing): arrival = serialization + prop +
  // jitter, with jitter in [0, reorder).
  Simulator sim;
  Link link{sim, "l", Rate::mbps(100), Duration::milliseconds(1),
            DataSize::bytes(1'000'000)};
  link.set_impairments(
      LinkImpairments{.reorder = Duration::milliseconds(5), .seed = 3});
  Collector out{sim};
  link.set_downstream(&out);
  const Duration tx = Rate::mbps(100).transmission_time(DataSize::bytes(500));
  const int count = 50;
  // The packets are due in the order of i, so the i-th to fire is packet i.
  std::uint32_t next = 0;
  const auto send = [&link, &sim, &next] { link.handle(make_packet(sim, next++)); };
  for (int i = 0; i < count; ++i) {
    sim.schedule_at(TimePoint::origin() + Duration::milliseconds(10.0 * i), [&send] { send(); });
  }
  sim.run_all();
  ASSERT_EQ(out.packets.size(), static_cast<std::size_t>(count));
  bool saw_jitter = false;
  for (std::size_t i = 0; i < out.packets.size(); ++i) {
    const Duration base = Duration::milliseconds(10.0 * out.packets[i].seq) + tx +
                          Duration::milliseconds(1);
    const Duration jitter = (out.arrivals[i] - TimePoint::origin()) - base;
    EXPECT_GE(jitter, Duration::zero());
    EXPECT_LT(jitter, Duration::milliseconds(5));
    if (jitter > Duration::zero()) saw_jitter = true;
  }
  EXPECT_TRUE(saw_jitter);

  // Back-to-back packets under heavy jitter get overtaken eventually.
  Simulator sim2;
  Link link2{sim2, "l", Rate::mbps(100), Duration::microseconds(1),
             DataSize::bytes(1'000'000)};
  link2.set_impairments(
      LinkImpairments{.reorder = Duration::milliseconds(5), .seed = 11});
  Collector out2{sim2};
  link2.set_downstream(&out2);
  for (int i = 0; i < 50; ++i) {
    link2.handle(make_packet(sim2, static_cast<std::uint32_t>(i)));
  }
  sim2.run_all();
  ASSERT_EQ(out2.packets.size(), 50u);
  bool reordered = false;
  for (std::size_t i = 1; i < out2.packets.size(); ++i) {
    if (out2.packets[i].seq < out2.packets[i - 1].seq) reordered = true;
  }
  EXPECT_TRUE(reordered);
}

}  // namespace
}  // namespace pathload::sim
