// Referee for the keyed batch (docs/ENGINE.md, "Probe bursts"): the v2
// probe-stream path that resolves a stream's transit in closed form while
// other events are queued, then fires one accounting point per probe
// through the event loop.
//
// keyed_batch_table.inc holds what the keyed batch produced when each
// accounting point was its own closure, bulk-inserted under one ticket
// block: bursty-tight, tcp-vs-probe-duel and load-step under engine v2,
// seeds {1, 2, 77}, each of the 8 probe tools on a fresh instance with
// its channel capped at the keyed batch. In tcp-vs-probe-duel's cprobe
// trains the TCP-filled link drops probes before earlier ones reach the
// receiver, so their accounting points leave packet order and the batch
// fires them sorted by time. Per case the table records the full report
// (floats as hex), the clock, the event, ticket and packet-id counters,
// the streams the keyed batch resolved, and every link's counters. Every
// case must replay the table bit for bit. burst_paths_test.cpp cannot do this job: on a queue-busy
// preset it compares the keyed batch only with itself.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
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

constexpr const char* kProbeTools[] = {"pathload", "cprobe", "pktpair", "topp",
                                       "delphi",   "spruce", "igi",     "pathchirp"};

struct KeyedRow {
  const char* key;
  const char* report;
  std::int64_t clock_ns;
  std::uint64_t events;
  std::uint64_t tickets;
  std::uint64_t packet_ids;
  std::uint64_t keyed_streams;
  const char* links;  ///< per link: forwarded/drops/impaired/dups/bytes
};

#include "tests/integration/keyed_batch_table.inc"

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

/// What one case leaves behind.
struct Observed {
  std::string report;
  std::int64_t clock_ns{0};
  std::uint64_t events{0};
  std::uint64_t tickets{0};
  std::uint64_t packet_ids{0};
  std::uint64_t keyed_streams{0};
  std::string links;
};

/// `tool` on a fresh v2 instance of `preset`, seeded `seed`, as
/// scenario_runner --compare runs it, with the channel capped at the keyed
/// batch.
Observed run_case(const std::string& preset, const char* tool, std::uint64_t seed) {
  ScenarioSpec spec = Registry::builtin().at(preset);
  spec.engine = EngineVersion::kV2;
  spec.seed = seed;
  const core::EstimatorRegistry& reg = baselines::builtin_estimators();
  std::string overrides;
  if (reg.at(tool).needs_capacity_hint) {
    Rate narrow = spec.hops.front().capacity;
    for (const auto& h : spec.hops) narrow = std::min(narrow, h.capacity);
    overrides = core::kv_config_line("capacity_mbps", narrow.mbits_per_sec());
  }
  const std::unique_ptr<core::Estimator> est = reg.make(tool, overrides);
  ScenarioInstance inst{std::move(spec)};
  inst.start();
  SimProbeChannel channel{inst.simulator(), inst.path()};
  channel.set_fastest_burst_path(SimProbeChannel::BurstPath::kKeyedBatch);
  Rng rng{seed};
  Observed out;
  out.report = render(core::run_guarded(*est, channel, rng));
  sim::Simulator& sim = inst.simulator();
  out.clock_ns = sim.now().nanos();
  out.events = sim.events_processed();
  out.tickets = sim.reserve_fifo_tickets(0);
  out.packet_ids = sim.next_packet_id();
  out.keyed_streams = channel.stream_paths().keyed_batch;
  for (std::size_t i = 0; i < inst.path().hop_count(); ++i) {
    const sim::Link& l = inst.path().link(i);
    out.links += std::to_string(l.packets_forwarded()) + "/" + std::to_string(l.drops()) +
                 "/" + std::to_string(l.impaired_drops()) + "/" +
                 std::to_string(l.duplicates()) + "/" +
                 std::to_string(l.bytes_forwarded().byte_count()) + " ";
  }
  return out;
}

std::string case_key(const std::string& preset, const char* tool, std::uint64_t seed) {
  return preset + " seed " + std::to_string(seed) + " " + tool;
}

const KeyedRow* find_row(const std::string& key) {
  static const std::map<std::string, const KeyedRow*> rows = [] {
    std::map<std::string, const KeyedRow*> m;
    for (const KeyedRow& row : kKeyedRows) m[row.key] = &row;
    return m;
  }();
  const auto it = rows.find(key);
  return it != rows.end() ? it->second : nullptr;
}

/// Replays every tool and seed of `preset` against the table; returns the
/// keyed-batch streams of all cases.
std::uint64_t replay(const std::string& preset) {
  std::uint64_t keyed = 0;
  for (const std::uint64_t seed : {1ULL, 2ULL, 77ULL}) {
    for (const char* tool : kProbeTools) {
      const std::string key = case_key(preset, tool, seed);
      SCOPED_TRACE(key);
      const KeyedRow* want = find_row(key);
      if (want == nullptr) {
        ADD_FAILURE() << "no table row";
        continue;
      }
      const Observed got = run_case(preset, tool, seed);
      EXPECT_EQ(got.report, want->report);
      EXPECT_EQ(got.clock_ns, want->clock_ns);
      EXPECT_EQ(got.events, want->events);
      EXPECT_EQ(got.tickets, want->tickets);
      EXPECT_EQ(got.packet_ids, want->packet_ids);
      EXPECT_EQ(got.keyed_streams, want->keyed_streams);
      EXPECT_EQ(got.links, want->links);
      keyed += got.keyed_streams;
    }
  }
  return keyed;
}

TEST(KeyedBatch, BurstyTightReplaysTheTable) { EXPECT_GT(replay("bursty-tight"), 0u); }

TEST(KeyedBatch, TcpVsProbeDuelReplaysTheTable) { EXPECT_GT(replay("tcp-vs-probe-duel"), 0u); }

TEST(KeyedBatch, LoadStepReplaysTheTable) { EXPECT_GT(replay("load-step"), 0u); }

TEST(KeyedBatch, TableHasOneRowPerCase) {
  EXPECT_EQ(std::size(kKeyedRows), 3u * 3u * std::size(kProbeTools));
}

}  // namespace
}  // namespace pathload::scenario
