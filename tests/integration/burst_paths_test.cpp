// Registry-wide differential test of the v2 probe-stream paths
// (docs/ENGINE.md, "Probe bursts").
//
// Every builtin preset under engine v2, seeds {1, 2, 77}, each of the 8
// probe tools on a fresh instance (as scenario_runner --compare and the
// perfbench workloads run them), three times: with the default fast paths,
// capped at the keyed batch (no closed form: an impaired stream is then
// event-driven), and fully event-driven. Against the capped run everything
// must be identical: the full report, the clock, the event, packet-id and
// ticket counters, and every link's counters. Against
// the event-driven run the same holds wherever every stream was resolved in
// closed form, except that an unimpaired stream counts one event and one
// ticket per probe copy instead of one per send and per hop.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baselines/estimators.hpp"
#include "core/estimator.hpp"
#include "scenario/registry.hpp"
#include "scenario/sim_channel.hpp"
#include "scenario/spec.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace pathload::scenario {
namespace {

using BurstPath = SimProbeChannel::BurstPath;

constexpr const char* kProbeTools[] = {"pathload", "cprobe", "pktpair", "topp",
                                       "delphi",   "spruce", "igi",     "pathchirp"};

/// Forwards to a SimProbeChannel and records, per stream, the probes sent
/// and the events and FIFO tickets the stream consumed.
class StreamMeter final : public core::ProbeChannel {
 public:
  struct Stream {
    std::uint64_t probes;
    std::uint64_t events;
    std::uint64_t tickets;
    bool closed_form;
  };

  StreamMeter(SimProbeChannel& inner, sim::Simulator& sim) : inner_{inner}, sim_{sim} {}

  core::StreamOutcome run_stream(const core::StreamSpec& spec) override {
    const std::uint64_t events = sim_.events_processed();
    const std::uint64_t tickets = sim_.reserve_fifo_tickets(0);
    const std::uint64_t closed = inner_.stream_paths().closed_form;
    core::StreamOutcome out = inner_.run_stream(spec);
    streams.push_back(Stream{static_cast<std::uint64_t>(spec.packet_count),
                             sim_.events_processed() - events,
                             sim_.reserve_fifo_tickets(0) - tickets,
                             inner_.stream_paths().closed_form != closed});
    return out;
  }
  void idle(Duration d) override { inner_.idle(d); }
  TimePoint now() override { return inner_.now(); }
  Duration rtt() const override { return inner_.rtt(); }
  core::BulkChannel* bulk() override { return inner_.bulk(); }

  std::vector<Stream> streams;

 private:
  SimProbeChannel& inner_;
  sim::Simulator& sim_;
};

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// Every field of a report, floats exactly.
std::string render(const core::EstimateReport& r) {
  std::string s = r.estimator + " outcome=" + std::to_string(static_cast<int>(r.outcome)) +
                  " note=" + r.outcome_note + " lost=" + std::to_string(r.packets_lost) +
                  " valid=" + std::to_string(r.valid) + " range=" + std::to_string(r.is_range) +
                  " low=" + hex(r.low.bits_per_sec()) + " high=" + hex(r.high.bits_per_sec()) +
                  " cap=" + (r.capacity ? hex(r.capacity->bits_per_sec()) : "-") +
                  " streams=" + std::to_string(r.streams_sent) +
                  " pkts=" + std::to_string(r.packets_sent) +
                  " bytes=" + std::to_string(r.bytes_sent.byte_count()) +
                  " elapsed=" + std::to_string(r.elapsed.nanos());
  for (const auto& it : r.iterations) {
    s += " [" + hex(it.offered_mbps) + " " + hex(it.measured_mbps) + " " + it.note + "]";
  }
  return s;
}

struct RunTrace {
  std::string report;
  std::int64_t clock_ns{0};
  std::uint64_t events{0};
  std::uint64_t resolved{0};
  std::uint64_t tickets{0};
  std::uint64_t packet_ids{0};
  std::string links;  ///< per link: forwarded/drops/impaired/dups/bytes
  SimProbeChannel::StreamPaths paths;
  std::vector<StreamMeter::Stream> streams;
  bool impaired{false};
};

RunTrace run_tool(const ScenarioSpec& preset, const char* tool, std::uint64_t seed,
             BurstPath fastest) {
  const core::EstimatorRegistry& reg = baselines::builtin_estimators();
  std::string overrides;
  if (reg.at(tool).needs_capacity_hint) {
    Rate narrow = preset.hops.front().capacity;
    for (const auto& h : preset.hops) narrow = std::min(narrow, h.capacity);
    overrides = core::kv_config_line("capacity_mbps", narrow.mbits_per_sec());
  }
  const std::unique_ptr<core::Estimator> est = reg.make(tool, overrides);
  ScenarioSpec spec = preset;
  spec.engine = EngineVersion::kV2;
  spec.seed = seed;
  ScenarioInstance inst{std::move(spec)};
  inst.start();
  SimProbeChannel channel{inst.simulator(), inst.path()};
  channel.set_fastest_burst_path(fastest);
  StreamMeter meter{channel, inst.simulator()};
  Rng rng{seed};
  RunTrace out;
  out.report = render(core::run_guarded(*est, meter, rng));
  sim::Simulator& sim = inst.simulator();
  out.clock_ns = sim.now().nanos();
  out.events = sim.events_processed();
  out.resolved = sim.events_resolved();
  out.tickets = sim.reserve_fifo_tickets(0);
  out.packet_ids = sim.next_packet_id();
  for (std::size_t i = 0; i < inst.path().hop_count(); ++i) {
    const sim::Link& l = inst.path().link(i);
    out.links += std::to_string(l.packets_forwarded()) + "/" + std::to_string(l.drops()) +
                 "/" + std::to_string(l.impaired_drops()) + "/" +
                 std::to_string(l.duplicates()) + "/" +
                 std::to_string(l.bytes_forwarded().byte_count()) + " ";
    out.impaired = out.impaired || l.impaired();
  }
  out.paths = channel.stream_paths();
  out.streams = std::move(meter.streams);
  return out;
}

class BurstPathsDifferential : public ::testing::TestWithParam<std::string> {};

TEST_P(BurstPathsDifferential, ClosedFormMatchesTheReplacedPaths) {
  const ScenarioSpec& preset = Registry::builtin().at(GetParam());
  for (const std::uint64_t seed : {1ULL, 2ULL, 77ULL}) {
    for (const char* tool : kProbeTools) {
      SCOPED_TRACE(GetParam() + " seed " + std::to_string(seed) + " " + tool);
      const RunTrace fast = run_tool(preset, tool, seed, BurstPath::kClosedForm);
      const RunTrace keyed = run_tool(preset, tool, seed, BurstPath::kKeyedBatch);
      const RunTrace events = run_tool(preset, tool, seed, BurstPath::kEventDriven);

      EXPECT_EQ(fast.report, keyed.report);
      EXPECT_EQ(fast.clock_ns, keyed.clock_ns);
      EXPECT_EQ(fast.events, keyed.events);
      EXPECT_EQ(fast.tickets, keyed.tickets);
      EXPECT_EQ(fast.packet_ids, keyed.packet_ids);
      EXPECT_EQ(fast.links, keyed.links);
      EXPECT_EQ(keyed.resolved, 0u);
      ASSERT_EQ(fast.streams.size(), keyed.streams.size());

      // What each closed-form stream accounts: one event (and ticket) per
      // probe copy on an unimpaired path, and the event-driven count on an
      // impaired one.
      std::uint64_t resolved = 0;
      for (std::size_t i = 0; i < fast.streams.size(); ++i) {
        const StreamMeter::Stream& s = fast.streams[i];
        if (!s.closed_form) continue;
        EXPECT_EQ(s.tickets, s.events) << "stream " << i;
        resolved += s.events;
        if (fast.impaired) {
          EXPECT_EQ(s.events, events.streams.at(i).events) << "stream " << i;
        } else {
          EXPECT_EQ(s.events, s.probes) << "stream " << i;
        }
      }
      EXPECT_EQ(fast.resolved, resolved);

      const std::uint64_t streams = fast.streams.size();
      EXPECT_EQ(fast.paths.closed_form + fast.paths.keyed_batch + fast.paths.event_driven,
                streams);
      EXPECT_EQ(fast.paths.queue_busy + fast.paths.not_fluid + fast.paths.capped,
                streams - fast.paths.closed_form);
      EXPECT_EQ(events.paths.event_driven, events.streams.size());

      if (fast.paths.closed_form != streams) continue;
      EXPECT_EQ(fast.report, events.report);
      EXPECT_EQ(fast.clock_ns, events.clock_ns);
      EXPECT_EQ(fast.packet_ids, events.packet_ids);
      EXPECT_EQ(fast.links, events.links);
      if (fast.impaired) {
        EXPECT_EQ(fast.events, events.events);
        EXPECT_EQ(fast.tickets, events.tickets);
      } else {
        EXPECT_EQ(events.events - fast.events, events.tickets - fast.tickets);
      }
    }
  }
}

std::vector<std::string> builtin_names() {
  std::vector<std::string> names;
  for (const ScenarioSpec& spec : Registry::builtin().entries()) names.push_back(spec.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(Registry, BurstPathsDifferential,
                         ::testing::ValuesIn(builtin_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

TEST(BurstPaths, ResolutionCountsPinnedPerPreset) {
  // Which presets start every stream on an empty queue. Constant-rate fluid
  // cross traffic schedules nothing, so paper-path and the impaired presets
  // are quiescent at every stream start; on/off sources and the fluid TCP
  // epochs always have an event pending.
  struct Expect {
    const char* preset;
    bool all_closed_form;
  };
  for (const Expect& e : {Expect{"paper-path", true}, Expect{"lossy-tight", true},
                          Expect{"flaky-path", true}, Expect{"bursty-tight", false},
                          Expect{"tcp-vs-probe-duel", false}}) {
    const ScenarioSpec& preset = Registry::builtin().at(e.preset);
    for (const char* tool : kProbeTools) {
      SCOPED_TRACE(std::string{e.preset} + " " + tool);
      const RunTrace run = run_tool(preset, tool, 1, BurstPath::kClosedForm);
      const std::uint64_t streams = run.streams.size();
      ASSERT_GT(streams, 0u);
      EXPECT_EQ(run.paths.closed_form, e.all_closed_form ? streams : 0u);
      if (!e.all_closed_form) {
        EXPECT_EQ(run.paths.queue_busy, streams);
      }
    }
  }
}

}  // namespace
}  // namespace pathload::scenario
