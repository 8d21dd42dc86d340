#include <gtest/gtest.h>

#include <ostream>
#include <tuple>
#include <vector>

#include "fluid/fluid_model.hpp"

namespace pathload::fluid {
namespace {

FluidPath paper_default_path() {
  // 3 hops, tight middle link: Ct = 10, ut = 0.6 (A = 4); others C = 20, u = 0.6.
  return FluidPath{{
      {Rate::mbps(20), Rate::mbps(12)},
      {Rate::mbps(10), Rate::mbps(6)},
      {Rate::mbps(20), Rate::mbps(12)},
  }};
}

TEST(FluidLink, DerivedQuantities) {
  const FluidLink l{Rate::mbps(10), Rate::mbps(6)};
  EXPECT_EQ(l.avail_bw(), Rate::mbps(4));
  EXPECT_DOUBLE_EQ(l.utilization(), 0.6);
}

TEST(FluidPath, RejectsEmptyAndOverloaded) {
  EXPECT_THROW(FluidPath{std::vector<FluidLink>{}}, std::invalid_argument);
  EXPECT_THROW(FluidPath({{Rate::mbps(10), Rate::mbps(11)}}), std::invalid_argument);
}

TEST(FluidPath, AvailBwIsMinOverLinks) {
  const auto path = paper_default_path();
  EXPECT_EQ(path.avail_bw(), Rate::mbps(4));
  EXPECT_EQ(path.tight_link(), 1u);
}

TEST(FluidPath, NarrowAndTightCanDiffer) {
  // Fig. 10's path: tight link 155 Mb/s (heavily used), narrow 100 Mb/s
  // (lightly used).
  const FluidPath path{{
      {Rate::mbps(155), Rate::mbps(81)},  // avail 74
      {Rate::mbps(100), Rate::mbps(5)},   // avail 95
  }};
  EXPECT_EQ(path.narrow_link(), 1u);
  EXPECT_EQ(path.tight_link(), 0u);
  EXPECT_EQ(path.avail_bw(), Rate::mbps(74));
  EXPECT_EQ(path.capacity(), Rate::mbps(100));
}

TEST(FluidPath, StreamBelowAvailBwKeepsItsRate) {
  const auto path = paper_default_path();
  const Rate in = Rate::mbps(3);
  EXPECT_EQ(path.exit_rate(in), in);
  const auto rates = path.entry_rates(in);
  for (const auto& r : rates) EXPECT_EQ(r, in);
}

TEST(FluidPath, StreamAboveAvailBwIsThrottledPerEq16) {
  // Single link: C = 10, lambda = 6, A = 4. Offered R = 8 > A:
  // R_out = R*C/(R+lambda) = 8*10/14 = 5.714...
  const FluidPath path{{{Rate::mbps(10), Rate::mbps(6)}}};
  EXPECT_NEAR(path.exit_rate(Rate::mbps(8)).mbits_per_sec(), 80.0 / 14.0, 1e-9);
}

TEST(FluidPath, ExitRateNeverBelowAvailBw) {
  // Eq. 17: A <= R_out < R_in for an overloaded link.
  const FluidPath path{{{Rate::mbps(10), Rate::mbps(6)}}};
  for (double r = 4.5; r <= 12.0; r += 0.5) {
    const Rate out = path.exit_rate(Rate::mbps(r));
    EXPECT_GE(out.mbits_per_sec(), 4.0 - 1e-9);
    EXPECT_LT(out, Rate::mbps(r));
  }
}

TEST(FluidPath, Proposition2ExitRateDependsOnNonTightLinks) {
  // Two paths with identical tight links but different upstream links
  // produce different receiver rates for the same offered rate — the
  // reason train dispersion (cprobe) does not measure avail-bw.
  const FluidPath lightly_loaded{{
      {Rate::mbps(100), Rate::mbps(10)},
      {Rate::mbps(10), Rate::mbps(6)},
  }};
  const FluidPath heavily_loaded{{
      {Rate::mbps(100), Rate::mbps(85)},
      {Rate::mbps(10), Rate::mbps(6)},
  }};
  const Rate offered = Rate::mbps(40);
  EXPECT_NE(lightly_loaded.exit_rate(offered), heavily_loaded.exit_rate(offered));
}

// --- Proposition 1 property sweep -------------------------------------------

struct Prop1Case {
  double offered_mbps;
  bool expect_increasing;
};

// Without a PrintTo gtest prints the parameter as its raw bytes, padding
// included, and ctest builds the test names from that.
void PrintTo(const Prop1Case& c, std::ostream* os) {
  *os << "R=" << c.offered_mbps << "Mbps " << (c.expect_increasing ? "increasing" : "flat");
}

class Proposition1Test : public ::testing::TestWithParam<Prop1Case> {};

TEST_P(Proposition1Test, OwdTrendMatchesRateVsAvailBw) {
  const auto path = paper_default_path();  // A = 4 Mb/s
  const double offered = GetParam().offered_mbps;
  const bool expect_increasing = GetParam().expect_increasing;
  const Duration delta =
      path.owd_delta_per_packet(Rate::mbps(offered), DataSize::bytes(800));
  if (expect_increasing) {
    EXPECT_GT(delta, Duration::zero()) << "R = " << offered;
  } else {
    EXPECT_EQ(delta, Duration::zero()) << "R = " << offered;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RateGrid, Proposition1Test,
    ::testing::Values(Prop1Case{0.5, false}, Prop1Case{1.0, false},
                      Prop1Case{2.0, false}, Prop1Case{3.9, false},
                      Prop1Case{4.0, false},  // R == A: equal OWDs
                      Prop1Case{4.1, true}, Prop1Case{5.0, true},
                      Prop1Case{8.0, true}, Prop1Case{20.0, true},
                      Prop1Case{100.0, true}));

class Prop1MultiHopTest : public ::testing::TestWithParam<int> {};

TEST_P(Prop1MultiHopTest, HoldsForAnyPathLength) {
  const int hops = GetParam();
  std::vector<FluidLink> links;
  for (int i = 0; i < hops; ++i) {
    const bool tight = i == hops / 2;
    links.push_back(tight ? FluidLink{Rate::mbps(10), Rate::mbps(6)}
                          : FluidLink{Rate::mbps(25), Rate::mbps(15)});
  }
  const FluidPath path{links};
  ASSERT_EQ(path.avail_bw(), Rate::mbps(4));
  EXPECT_GT(path.owd_delta_per_packet(Rate::mbps(6), DataSize::bytes(800)),
            Duration::zero());
  EXPECT_EQ(path.owd_delta_per_packet(Rate::mbps(3), DataSize::bytes(800)),
            Duration::zero());
}

INSTANTIATE_TEST_SUITE_P(PathLengths, Prop1MultiHopTest,
                         ::testing::Values(1, 2, 3, 5, 8, 12));

TEST(FluidPath, OwdSeriesIsLinearWithSlopeDelta) {
  const auto path = paper_default_path();
  const Rate offered = Rate::mbps(6);
  const DataSize pkt = DataSize::bytes(800);
  const auto series = path.owd_series(offered, pkt, 10);
  ASSERT_EQ(series.size(), 10u);
  const double slope = path.owd_delta_per_packet(offered, pkt).secs();
  EXPECT_GT(slope, 0.0);
  for (int k = 0; k < 10; ++k) {
    EXPECT_NEAR(series[static_cast<std::size_t>(k)], slope * k, 1e-15);
  }
}

TEST(FluidPath, OwdDeltaGrowsWithOverload) {
  // The further R exceeds A, the steeper the OWD trend.
  const auto path = paper_default_path();
  const DataSize pkt = DataSize::bytes(800);
  Duration prev = Duration::zero();
  for (double r : {4.5, 5.0, 6.0, 8.0, 10.0}) {
    const Duration d = path.owd_delta_per_packet(Rate::mbps(r), pkt);
    EXPECT_GT(d, prev);
    prev = d;
  }
}

TEST(FluidPath, MultipleTightLinksCompoundTheTrend) {
  // With several equally tight links the per-packet OWD growth accumulates
  // across all of them (the Fig. 7 effect's fluid analogue).
  const FluidLink tight{Rate::mbps(10), Rate::mbps(6)};
  const FluidPath one{{tight}};
  const FluidPath three{{tight, tight, tight}};
  const DataSize pkt = DataSize::bytes(800);
  EXPECT_GT(three.owd_delta_per_packet(Rate::mbps(6), pkt),
            one.owd_delta_per_packet(Rate::mbps(6), pkt));
}

}  // namespace
}  // namespace pathload::fluid
