// Referee for the cross-traffic run-ahead (sim::Path::run_cross_traffic_until).
//
// Twin instances of one spec: one advances through the run-ahead, the other
// through Simulator::run_until. The clock, the event, packet-id and ticket
// counters, the pending events and every link and source counter must
// agree exactly, and so must a pathload session run on each afterwards
// (the reference twin idles through the event queue). A run-ahead that
// declines must leave the state exactly as an untouched twin has it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/estimators.hpp"
#include "core/estimator.hpp"
#include "scenario/registry.hpp"
#include "scenario/sim_channel.hpp"
#include "scenario/spec.hpp"
#include "sim/packet.hpp"
#include "sim/path.hpp"
#include "sim/rtt_probe.hpp"
#include "sim/traffic.hpp"
#include "util/rng.hpp"

namespace pathload::scenario {
namespace {

using Snapshot = std::vector<std::pair<std::string, std::int64_t>>;

/// Everything the run-ahead must reproduce. Drawing the next packet id
/// consumes one, so compare twins that have both been snapshot equally.
Snapshot snapshot(ScenarioInstance& inst) {
  sim::Simulator& sim = inst.simulator();
  Snapshot s;
  const auto put = [&s](std::string name, std::uint64_t v) {
    s.emplace_back(std::move(name), static_cast<std::int64_t>(v));
  };
  put("now_ns", static_cast<std::uint64_t>(sim.now().nanos()));
  put("events", sim.events_processed());
  put("next_packet_id", sim.next_packet_id());
  put("next_ticket", sim.reserve_fifo_tickets(0));
  put("pending_events", sim.pending_events());
  for (std::size_t i = 0; i < inst.path().hop_count(); ++i) {
    const sim::Link& l = inst.path().link(i);
    const std::string hop = "link" + std::to_string(i) + ".";
    put(hop + "packets_forwarded", l.packets_forwarded());
    put(hop + "bytes_forwarded", static_cast<std::uint64_t>(l.bytes_forwarded().byte_count()));
    put(hop + "drops", l.drops());
    put(hop + "queue_length", l.queue_length());
    put(hop + "queued_bytes", static_cast<std::uint64_t>(l.queued_bytes().byte_count()));
    put(hop + "busy", l.busy() ? 1 : 0);
    put(hop + "in_flight", l.in_flight());
    for (std::size_t k = 0; k < l.sources().size(); ++k) {
      const sim::CrossTrafficSource& src = *l.sources()[k];
      const std::string name = hop + "source" + std::to_string(k) + ".";
      put(name + "packets_sent", src.packets_sent());
      put(name + "bytes_sent", static_cast<std::uint64_t>(src.bytes_sent().byte_count()));
    }
  }
  return s;
}

void expect_same(const Snapshot& got, const Snapshot& want, const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].first, want[i].first) << where;
    EXPECT_EQ(got[i].second, want[i].second) << where << ": " << got[i].first;
  }
}

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// The reference twin's channel: streams as SimProbeChannel runs them, idle
/// gaps through the event queue.
class EventQueueIdle final : public core::ProbeChannel {
 public:
  EventQueueIdle(SimProbeChannel& inner, sim::Simulator& sim) : inner_{inner}, sim_{sim} {}
  core::StreamOutcome run_stream(const core::StreamSpec& spec) override {
    return inner_.run_stream(spec);
  }
  void idle(Duration d) override { sim_.run_for(d); }
  TimePoint now() override { return inner_.now(); }
  Duration rtt() const override { return inner_.rtt(); }

 private:
  SimProbeChannel& inner_;
  sim::Simulator& sim_;
};

/// Twins of `spec` with the warmup taken out of start(), so the test
/// chooses how each twin spends it.
struct Twins {
  explicit Twins(ScenarioSpec spec) : warmup{spec.warmup} {
    spec.warmup = Duration::zero();
    fast = std::make_unique<ScenarioInstance>(spec);
    ref = std::make_unique<ScenarioInstance>(std::move(spec));
    fast->start();
    ref->start();
  }
  Duration warmup;
  std::unique_ptr<ScenarioInstance> fast;
  std::unique_ptr<ScenarioInstance> ref;
};

/// Advance both twins by `d`, the fast one through the run-ahead.
void advance(Twins& t, Duration d, const std::string& where) {
  sim::Simulator& fs = t.fast->simulator();
  const std::uint64_t resolved = fs.events_resolved();
  ASSERT_TRUE(t.fast->path().run_cross_traffic_until(fs.now() + d)) << where;
  EXPECT_GT(fs.events_resolved(), resolved) << where << ": the run-ahead resolved nothing";
  t.ref->simulator().run_until(t.ref->simulator().now() + d);
  expect_same(snapshot(*t.fast), snapshot(*t.ref), where);
}

/// A pathload session on each twin; the reports must agree bit for bit.
void expect_same_session(Twins& t, std::uint64_t seed, const std::string& where) {
  const auto est = baselines::builtin_estimators().make("pathload");
  SimProbeChannel fast_channel{t.fast->simulator(), t.fast->path()};
  SimProbeChannel ref_inner{t.ref->simulator(), t.ref->path()};
  EventQueueIdle ref_channel{ref_inner, t.ref->simulator()};
  Rng fast_rng{seed};
  Rng ref_rng{seed};
  const std::uint64_t resolved = t.fast->simulator().events_resolved();
  const core::EstimateReport a = core::run_guarded(*est, fast_channel, fast_rng);
  const core::EstimateReport b = core::run_guarded(*est, ref_channel, ref_rng);
  EXPECT_GT(t.fast->simulator().events_resolved(), resolved)
      << where << ": no idle gap took the run-ahead";
  EXPECT_EQ(a.outcome, b.outcome) << where;
  EXPECT_EQ(hex(a.low.bits_per_sec()), hex(b.low.bits_per_sec())) << where;
  EXPECT_EQ(hex(a.high.bits_per_sec()), hex(b.high.bits_per_sec())) << where;
  EXPECT_EQ(a.elapsed.nanos(), b.elapsed.nanos()) << where;
  EXPECT_EQ(a.packets_sent, b.packets_sent) << where;
  EXPECT_EQ(a.packets_lost, b.packets_lost) << where;
  EXPECT_EQ(a.iterations.size(), b.iterations.size()) << where;
  expect_same(snapshot(*t.fast), snapshot(*t.ref), where + " after the session");
}

bool renewal_only(const ScenarioSpec& spec) {
  if (spec.engine != EngineVersion::kV1 || !spec.flows.empty() || spec.impaired()) {
    return false;
  }
  for (const HopDecl& hop : spec.hops) {
    if (hop.traffic.model == TrafficModel::kOnOff || hop.traffic.model == TrafficModel::kRamp) {
      return false;
    }
  }
  return true;
}

std::vector<std::string> renewal_presets() {
  std::vector<std::string> names;
  for (const ScenarioSpec& spec : Registry::builtin().entries()) {
    if (renewal_only(spec)) names.push_back(spec.name);
  }
  return names;
}

TEST(RunAhead, CoversThePaperPresets) {
  const std::vector<std::string> names = renewal_presets();
  for (const char* want : {"paper-path", "paper-path-poisson", "hetero-5hop"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), want), names.end()) << want;
  }
}

class RunAheadPreset : public ::testing::TestWithParam<std::string> {};

TEST_P(RunAheadPreset, MatchesRunUntilAcrossLoadsAndSeeds) {
  for (const double load : {0.2, 0.9}) {
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
      ScenarioSpec spec = Registry::builtin().at(GetParam()).with_load(load);
      spec.seed = seed;
      const std::string where =
          GetParam() + " load " + std::to_string(load) + " seed " + std::to_string(seed);
      Twins t{std::move(spec)};
      advance(t, t.warmup, where + " warmup");
      expect_same_session(t, seed, where);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Registry, RunAheadPreset, ::testing::ValuesIn(renewal_presets()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(RunAhead, EqualRateConstantSourcesTieAndTicketsDecide) {
  // Three hops of one capacity and load, three constant sources each: all
  // nine sources emit at the same nanoseconds, on every hop, so only the
  // tickets order the emissions and the ids they draw.
  const ScenarioSpec base = ScenarioSpec::parse(R"(name = ties
warmup_s = 0.5
hops = 3
hop.0.capacity_mbps = 10
hop.0.delay_ms = 5
hop.0.traffic.model = constant
hop.0.traffic.utilization = 0.5
hop.0.traffic.sources = 3
hop.1.capacity_mbps = 10
hop.1.delay_ms = 5
hop.1.traffic.model = constant
hop.1.traffic.utilization = 0.5
hop.1.traffic.sources = 3
hop.2.capacity_mbps = 10
hop.2.delay_ms = 5
hop.2.traffic.model = constant
hop.2.traffic.utilization = 0.5
hop.2.traffic.sources = 3
)");
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    ScenarioSpec spec = base;
    spec.seed = seed;
    Twins t{std::move(spec)};
    const std::string where = "seed " + std::to_string(seed);
    advance(t, t.warmup, where);
    // End run-aheads on event instants, the tied emissions' among them: the
    // reference twin fires its next event, then the rest of that instant.
    for (int step = 0; step < 40; ++step) {
      sim::Simulator& rs = t.ref->simulator();
      ASSERT_TRUE(rs.run_next());
      const TimePoint at = rs.now();
      rs.run_until(at);
      ASSERT_TRUE(t.fast->path().run_cross_traffic_until(at));
      expect_same(snapshot(*t.fast), snapshot(*t.ref), where + " step " + std::to_string(step));
    }
    expect_same_session(t, seed, where);
  }
}

TEST(RunAhead, SecondAggregateOnTheTightLink) {
  // An aggregate added to a running path (tracker_sim_test's shape) attaches
  // to its link, and the run-ahead drives it with the preset's sources.
  ScenarioSpec spec = Registry::builtin().at("paper-path");
  spec.seed = 5;
  Twins t{std::move(spec)};
  advance(t, t.warmup, "warmup");
  const auto extra = [](ScenarioInstance& inst) {
    return std::make_unique<sim::TrafficAggregate>(
        inst.simulator(), inst.tight_link(), Rate::mbps(2), 10, sim::Interarrival::kExponential,
        sim::PacketSizeMix::paper_mix(), Rng{77});
  };
  auto fast_extra = extra(*t.fast);
  auto ref_extra = extra(*t.ref);
  fast_extra->start();
  ref_extra->start();
  EXPECT_EQ(t.fast->tight_link().sources().size(), 20u);
  advance(t, Duration::seconds(1), "second aggregate");
  expect_same_session(t, 5, "second aggregate");
}

/// Build twins, let `disturb` change both the same way (what it returns
/// lives until the twins are checked), then require the run-ahead on one
/// to decline and leave it exactly as the other.
template <typename Disturb>
void expect_declines(ScenarioSpec spec, Disturb&& disturb, const std::string& where) {
  Twins t{std::move(spec)};
  const auto fast_held = disturb(*t.fast);
  const auto ref_held = disturb(*t.ref);
  sim::Simulator& fs = t.fast->simulator();
  EXPECT_FALSE(t.fast->path().run_cross_traffic_until(fs.now() + Duration::seconds(1)))
      << where;
  EXPECT_EQ(fs.events_resolved(), 0u) << where;
  expect_same(snapshot(*t.fast), snapshot(*t.ref), where);
}

TEST(RunAheadDeclines, EachReasonLeavesTheStateUntouched) {
  const auto nothing = [](ScenarioInstance&) { return std::shared_ptr<void>{}; };
  const auto preset = [](const char* name) {
    ScenarioSpec spec = Registry::builtin().at(name);
    spec.engine = EngineVersion::kV1;
    spec.seed = 9;
    return spec;
  };
  expect_declines(preset("tcp-bg-greedy"), nothing, "a TCP flow");
  expect_declines(preset("bursty-tight"), nothing, "on/off traffic");
  expect_declines(preset("load-step"), nothing, "a ramp");
  expect_declines(preset("lossy-tight"), nothing, "an impaired hop");
  ScenarioSpec v2 = preset("paper-path");
  v2.engine = EngineVersion::kV2;
  expect_declines(v2, nothing, "fluid links");

  // A foreign pending event: an RTT prober's next ping.
  expect_declines(
      preset("paper-path"),
      [](ScenarioInstance& inst) {
        auto prober = std::make_shared<sim::RttProber>(inst.simulator(), inst.path(),
                                                       Duration::milliseconds(100),
                                                       Duration::milliseconds(20));
        prober->start();
        inst.simulator().run_for(Duration::milliseconds(250));
        return std::shared_ptr<void>{prober};
      },
      "an RTT prober");
}

TEST(RunAheadDeclines, TransitPacketAnywhereOnThePath) {
  // A transit packet with no receiver: wherever it sits (queued or in
  // service at a hop, or in a delay line) the run-ahead declines, and once
  // it has left the path the run-ahead runs again.
  ScenarioSpec spec = Registry::builtin().at("paper-path");
  spec.seed = 4;
  Twins t{std::move(spec)};
  advance(t, t.warmup, "warmup");
  const auto inject = [](ScenarioInstance& inst) {
    sim::Packet p;
    p.id = inst.simulator().next_packet_id();
    p.flow = 4242;
    p.kind = sim::PacketKind::kProbe;
    p.size_bytes = 1000;
    p.transit = true;
    p.entered = inst.simulator().now();
    inst.path().ingress().handle(p);
  };
  inject(*t.fast);
  inject(*t.ref);
  const Duration transit = t.fast->path().unloaded_transit_time(DataSize::bytes(1000));
  for (int step = 0; step < 8; ++step) {
    const std::string where = "step " + std::to_string(step);
    sim::Simulator& fs = t.fast->simulator();
    const std::uint64_t resolved = fs.events_resolved();
    EXPECT_FALSE(t.fast->path().run_cross_traffic_until(fs.now() + transit)) << where;
    EXPECT_EQ(fs.events_resolved(), resolved) << where;
    expect_same(snapshot(*t.fast), snapshot(*t.ref), where);
    // Move both twins on by a fraction of the unloaded transit time.
    const Duration d = transit / 8.0;
    fs.run_for(d);
    t.ref->simulator().run_for(d);
  }
  // Queues at 60% load can hold the packet for a while: run until it is out.
  sim::Simulator& fs = t.fast->simulator();
  fs.run_for(Duration::seconds(1));
  t.ref->simulator().run_for(Duration::seconds(1));
  EXPECT_EQ(t.fast->path().egress().unclaimed_packets(), 1u);
  advance(t, Duration::milliseconds(500), "after the transit packet left");
}

}  // namespace
}  // namespace pathload::scenario
