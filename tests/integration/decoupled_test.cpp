// Twin referee for the decoupled path of sim::Simulator::run_until
// (docs/ENGINE.md, "Decoupled links"), which runs each link alone through
// an idle gap on provisional tickets and packet ids and ranks them back
// into the global order.
//
// Two instances of one spec schedule the same calendar sentinel. One twin
// reaches it through run_until; the other fires one event at a time with
// run_next, which never takes the decoupled path. At the sentinel every
// pending (time, ticket) key, every packet id a link holds and every
// counter of referee::snapshot must agree; then a pathload session runs on
// each twin, and its report (rates as hex floats) and the state it leaves
// must agree too.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "tests/integration/referee.hpp"

namespace pathload::scenario {
namespace {

/// What the twins compare.
struct Observation {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> keys;  // (time ns, ticket)
  std::vector<std::vector<std::uint64_t>> held;               // per link
  referee::Snapshot snapshot;
};

Observation observe(ScenarioInstance& inst) {
  Observation o;
  for (const sim::Simulator::EventKey k : inst.simulator().pending_keys()) {
    o.keys.emplace_back(static_cast<std::uint64_t>(k >> 64), static_cast<std::uint64_t>(k));
  }
  for (std::size_t i = 0; i < inst.path().hop_count(); ++i) {
    o.held.push_back(inst.path().link(i).held_packet_ids());
  }
  o.snapshot = referee::snapshot(inst);
  return o;
}

template <typename T>
void expect_same_list(const std::vector<T>& a, const std::vector<T>& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << what << ", entry " << i;
  }
}

void expect_same(const Observation& a, const Observation& b, const std::string& what) {
  expect_same_list(a.keys, b.keys, what + ": pending keys");
  expect_same_list(a.held, b.held, what + ": held packet ids");
  expect_same_list(a.snapshot, b.snapshot, what + ": snapshot");
}

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

void expect_same(const referee::Report& a, const referee::Report& b, const std::string& what) {
  EXPECT_EQ(a.outcome, b.outcome) << what;
  EXPECT_EQ(hex(a.low_bps), hex(b.low_bps)) << what;
  EXPECT_EQ(hex(a.high_bps), hex(b.high_bps)) << what;
  EXPECT_EQ(a.elapsed_ns, b.elapsed_ns) << what;
  EXPECT_EQ(a.packets_sent, b.packets_sent) << what;
  EXPECT_EQ(a.packets_lost, b.packets_lost) << what;
  EXPECT_EQ(a.iterations, b.iterations) << what;
}

/// Changes a twin right after start; returns what must live as long as
/// the twin (and die before its simulator), or null.
using Setup = std::function<std::shared_ptr<void>(ScenarioInstance&)>;

/// One twin: `spec` built and started with no warmup, `setup` run on it,
/// and a calendar sentinel scheduled `gap` later.
class Twin {
 public:
  Twin(const ScenarioSpec& spec, Duration gap, const Setup& setup) : inst_{spec} {
    inst_.start();
    if (setup) keep_ = setup(inst_);
    sentinel_ = inst_.simulator().now() + gap;
    inst_.simulator().schedule_at(sentinel_, [this] { reached_ = true; });
  }

  /// run_until to just before the sentinel, then single steps to it.
  void run_until_sentinel() {
    inst_.simulator().run_until(sentinel_ - Duration::nanoseconds(1));
    step_to_sentinel();
  }

  /// run_until in `gap` steps while a whole one fits before the sentinel,
  /// as a session's idle gaps would, then as run_until_sentinel.
  void run_to_sentinel_in(Duration gap) {
    sim::Simulator& sim = inst_.simulator();
    while (sim.now() + gap < sentinel_) sim.run_until(sim.now() + gap);
    run_until_sentinel();
  }

  void step_to_sentinel() {
    while (!reached_) ASSERT_TRUE(inst_.simulator().run_next());
  }

  ScenarioInstance& instance() { return inst_; }

 private:
  ScenarioInstance inst_;
  std::shared_ptr<void> keep_;  // destroyed first
  TimePoint sentinel_;
  bool reached_{false};
};

/// The twin comparison of `spec`; the gap is the spec's warmup (1 s if it
/// has none). Returns the run_until twin's decoupled events up to the
/// sentinel.
std::uint64_t twin_case(const std::string& key, ScenarioSpec spec, const Setup& setup = {}) {
  const Duration gap = spec.warmup > Duration::zero() ? spec.warmup : Duration::seconds(1);
  const std::uint64_t seed = spec.seed;
  spec.warmup = Duration::zero();
  Twin a{spec, gap, setup};
  Twin b{spec, gap, setup};
  a.run_until_sentinel();
  b.step_to_sentinel();
  const std::uint64_t decoupled = a.instance().simulator().decoupled_events();
  EXPECT_EQ(b.instance().simulator().decoupled_events(), 0u) << key;
  expect_same(observe(a.instance()), observe(b.instance()), key + " at the sentinel");
  expect_same(referee::session(a.instance(), "pathload", seed),
              referee::session(b.instance(), "pathload", seed), key + " pathload");
  expect_same(observe(a.instance()), observe(b.instance()), key + " after pathload");
  return decoupled;
}

class DecoupledPreset : public ::testing::TestWithParam<std::string> {};

TEST_P(DecoupledPreset, TwinsAgreeAcrossLoadsAndSeeds) {
  for (const double load : {0.2, 0.9}) {
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
      ScenarioSpec spec = Registry::builtin().at(GetParam()).with_load(load);
      spec.seed = seed;
      twin_case(referee::preset_key(GetParam(), load, seed), std::move(spec));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Registry, DecoupledPreset,
                         ::testing::ValuesIn(referee::renewal_presets()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(DecoupledLinks, TiedConstantSourcesRankThroughTheMerge) {
  // Every hop's sources emit at the same nanoseconds, so links have events
  // at the same instants and only the true tickets order them.
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    twin_case("ties seed " + std::to_string(seed), referee::tied_constant_spec(seed));
  }
}

TEST(DecoupledLinks, ImpairedPresetsUnderV1) {
  // Loss, duplication and jitter draw from each link's own stream, inside
  // the link's run.
  for (const char* preset : {"lossy-tight", "reorder-jitter", "flaky-path"}) {
    ScenarioSpec spec = Registry::builtin().at(preset);
    spec.engine = EngineVersion::kV1;
    spec.seed = 4;
    twin_case(preset, std::move(spec));
  }
}

TEST(DecoupledLinks, LeftoversOfABtcRunDecouple) {
  // A btc run on the instance first. It tears its connection down with
  // ACKs in flight and superseded RTO arms pending: counted timers' stale
  // arms, which run nothing and couple no link. The run_until twin runs to
  // the sentinel in 10 ms gaps, as a session's idle gaps would: once the
  // run's last segments have left the path, the gaps decouple while the
  // leftovers are still falling due, and each still counts once. Then a
  // pathload session on each twin. With every counted arm a calendar key,
  // the gaps declined until the last leftover fell due: 5807 decoupled
  // events at the sentinel, 834393 after the session.
  ScenarioSpec spec = Registry::builtin().at("paper-path");
  spec.seed = 8;
  spec.warmup = Duration::zero();
  const auto btc = [](ScenarioInstance& inst) -> std::shared_ptr<void> {
    SimProbeChannel channel{inst.simulator(), inst.path()};
    const auto est =
        baselines::builtin_estimators().make("btc", core::kv_config_line("duration_s", 2.0));
    Rng rng{8};
    core::run_guarded(*est, channel, rng);
    return nullptr;
  };
  Twin a{spec, Duration::milliseconds(500), btc};
  Twin b{spec, Duration::milliseconds(500), btc};
  a.run_to_sentinel_in(Duration::milliseconds(10));
  b.step_to_sentinel();
  EXPECT_EQ(b.instance().simulator().decoupled_events(), 0u);
  expect_same(observe(a.instance()), observe(b.instance()), "at the sentinel");
  EXPECT_EQ(a.instance().simulator().decoupled_events(), 9817u);
  expect_same(referee::session(a.instance(), "pathload", 8),
              referee::session(b.instance(), "pathload", 8), "pathload");
  expect_same(observe(a.instance()), observe(b.instance()), "after pathload");
  EXPECT_EQ(a.instance().simulator().decoupled_events(), 838403u);
}

/// A decline reason set up right after start: the run_until twin must run
/// its whole gap through the merged loop, and agree with its twin.
void expect_declined(const std::string& key, const Setup& setup) {
  ScenarioSpec spec = Registry::builtin().at("paper-path");
  spec.seed = 6;
  EXPECT_EQ(twin_case(key, std::move(spec), setup), 0u) << key;
}

TEST(DecoupledLinksDeclines, CalendarEventDue) {
  expect_declined("calendar event", [](ScenarioInstance& inst) {
    inst.simulator().schedule_in(Duration::microseconds(1), [] {});
    return nullptr;
  });
}

/// A renewal source that feeds no link, and the receiver it feeds.
struct LooseSource {
  class Sink final : public sim::PacketHandler {
   public:
    void handle(const sim::Packet&) override {}
  };
  explicit LooseSource(sim::Simulator& sim)
      : source{sim, sink, Rate::mbps(1), sim::Interarrival::kConstant,
               sim::PacketSizeMix::fixed(1000), Rng{3}} {
    source.start();
  }
  Sink sink;
  sim::CrossTrafficSource source;
};

TEST(DecoupledLinksDeclines, SourceFeedingNoLinkDue) {
  expect_declined("source feeding no link", [](ScenarioInstance& inst) {
    return std::make_shared<LooseSource>(inst.simulator());
  });
}

TEST(DecoupledLinksDeclines, TransitPacketHeld) {
  expect_declined("transit packet", [](ScenarioInstance& inst) {
    sim::Packet p;
    p.id = inst.simulator().next_packet_id();
    p.flow = 4242;
    p.kind = sim::PacketKind::kProbe;
    p.size_bytes = 1000;
    p.transit = true;
    p.entered = inst.simulator().now();
    inst.path().ingress().handle(p);
    return nullptr;
  });
}

TEST(DecoupledLinksDeclines, DownstreamKeepsHopLocalPackets) {
  // The last hop hands everything to the egress demux, which counts the
  // hop-local packets as unclaimed instead of dropping them unseen.
  expect_declined("downstream keeps hop-local packets", [](ScenarioInstance& inst) {
    sim::Path& path = inst.path();
    path.link(path.hop_count() - 1).set_downstream(&path.egress());
    return nullptr;
  });
}

}  // namespace
}  // namespace pathload::scenario
