// Observables of a running scenario that the event engine's referee table
// pins (run_ahead_test.cpp, run_ahead_table.inc), the code that reads them,
// and the procedures that produce them. The table was recorded by running
// these procedures on an earlier engine and printing every snapshot's
// values and every report (rates with printf's %a) under its key, so it
// replays against any later engine bit for bit.

#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/estimators.hpp"
#include "core/estimator.hpp"
#include "scenario/fuzz.hpp"
#include "scenario/registry.hpp"
#include "scenario/sim_channel.hpp"
#include "scenario/spec.hpp"
#include "sim/packet.hpp"
#include "sim/path.hpp"
#include "sim/rtt_probe.hpp"
#include "sim/simulator.hpp"
#include "sim/traffic.hpp"
#include "tcp/reno.hpp"
#include "tcp/workload.hpp"
#include "util/rng.hpp"

namespace pathload::scenario::referee {

/// Named counters, in a fixed order for a given scenario.
using Snapshot = std::vector<std::pair<std::string, std::int64_t>>;

/// The clock, the event, packet-id and ticket counters, the pending
/// events, the flows' acked bytes and every link and renewal-source
/// counter. Drawing the next packet id consumes one, so compare runs that
/// have been snapshot equally often.
inline Snapshot snapshot(ScenarioInstance& inst) {
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
  put("flow_bytes_acked", static_cast<std::uint64_t>(inst.flow_bytes_acked().byte_count()));
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

/// What a referee compares of an estimator run; the rates bit for bit.
struct Report {
  int outcome;
  double low_bps;
  double high_bps;
  std::int64_t elapsed_ns;
  std::int64_t packets_sent;
  std::int64_t packets_lost;
  std::int64_t iterations;
};

inline Report report_of(const core::EstimateReport& r) {
  return Report{static_cast<int>(r.outcome),
                r.low.bits_per_sec(),
                r.high.bits_per_sec(),
                r.elapsed.nanos(),
                static_cast<std::int64_t>(r.packets_sent),
                r.packets_lost,
                static_cast<std::int64_t>(r.iterations.size())};
}

inline bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// A channel whose idle gaps go through Simulator::run_for; streams run
/// as SimProbeChannel runs them.
class EventQueueIdle final : public core::ProbeChannel {
 public:
  EventQueueIdle(SimProbeChannel& inner, sim::Simulator& sim) : inner_{inner}, sim_{sim} {}
  core::StreamOutcome run_stream(const core::StreamSpec& spec) override {
    return inner_.run_stream(spec);
  }
  void idle(Duration d) override { sim_.run_for(d); }
  TimePoint now() override { return inner_.now(); }
  Duration rtt() const override { return inner_.rtt(); }
  core::BulkChannel* bulk() override { return inner_.bulk(); }

 private:
  SimProbeChannel& inner_;
  sim::Simulator& sim_;
};

/// Where a procedure reports what it observed, under a unique key.
struct Sink {
  virtual ~Sink() = default;
  virtual void snapshot(const std::string& key, ScenarioInstance& inst) = 0;
  virtual void report(const std::string& key, const Report& r) = 0;
};

/// Run `tool` on `inst` as the estimator registry runs it, seeded `seed`.
inline Report session(ScenarioInstance& inst, const char* tool, std::uint64_t seed) {
  const auto est = baselines::builtin_estimators().make(tool);
  SimProbeChannel inner{inst.simulator(), inst.path()};
  EventQueueIdle channel{inner, inst.simulator()};
  Rng rng{seed};
  return report_of(core::run_guarded(*est, channel, rng));
}

/// Build `spec` with its warmup run through Simulator::run_until after
/// start(), snapshot, then a pathload session and a second snapshot.
inline void warmup_and_session(Sink& sink, const std::string& key, ScenarioSpec spec) {
  const Duration warmup = spec.warmup;
  const std::uint64_t seed = spec.seed;
  spec.warmup = Duration::zero();
  ScenarioInstance inst{std::move(spec)};
  inst.start();
  inst.simulator().run_until(inst.simulator().now() + warmup);
  sink.snapshot(key + " warmup", inst);
  sink.report(key + " pathload", session(inst, "pathload", seed));
  sink.snapshot(key + " after pathload", inst);
}

/// The v1 presets whose cross traffic is renewal sources only.
inline std::vector<std::string> renewal_presets() {
  std::vector<std::string> names;
  for (const ScenarioSpec& spec : Registry::builtin().entries()) {
    if (spec.engine != EngineVersion::kV1 || !spec.flows.empty() || spec.impaired()) continue;
    bool renewal = true;
    for (const HopDecl& hop : spec.hops) {
      if (hop.traffic.model == TrafficModel::kOnOff || hop.traffic.model == TrafficModel::kRamp) {
        renewal = false;
      }
    }
    if (renewal) names.push_back(spec.name);
  }
  return names;
}

inline std::string preset_key(const std::string& preset, double load, std::uint64_t seed) {
  return preset + " load " + std::to_string(load) + " seed " + std::to_string(seed);
}

/// A renewal preset at loads {0.2, 0.9} and seeds {1, 2, 3}.
inline void preset_cases(Sink& sink, const std::string& preset) {
  for (const double load : {0.2, 0.9}) {
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
      ScenarioSpec spec = Registry::builtin().at(preset).with_load(load);
      spec.seed = seed;
      warmup_and_session(sink, preset_key(preset, load, seed), std::move(spec));
    }
  }
}

/// Three hops of one capacity and load, three constant sources each: all
/// nine sources emit at the same nanoseconds, on every hop, so only the
/// tickets order the emissions and the ids they draw.
inline ScenarioSpec tied_constant_spec(std::uint64_t seed) {
  ScenarioSpec spec = ScenarioSpec::parse(R"(name = ties
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
  spec.seed = seed;
  return spec;
}

/// The tied spec, seeds {1, 2, 3}; on seed 1 also 40 single event
/// instants (run_next, then the rest of that instant) after the warmup.
inline void tied_cases(Sink& sink) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const std::string key = "ties seed " + std::to_string(seed);
    if (seed != 1) {
      warmup_and_session(sink, key, tied_constant_spec(seed));
      continue;
    }
    ScenarioSpec spec = tied_constant_spec(seed);
    const Duration warmup = spec.warmup;
    spec.warmup = Duration::zero();
    ScenarioInstance inst{std::move(spec)};
    inst.start();
    sim::Simulator& sim = inst.simulator();
    sim.run_until(sim.now() + warmup);
    sink.snapshot(key + " warmup", inst);
    for (int step = 0; step < 40; ++step) {
      sim.run_next();
      sim.run_until(sim.now());
      sink.snapshot(key + " step " + std::to_string(step), inst);
    }
    sink.report(key + " pathload", session(inst, "pathload", seed));
    sink.snapshot(key + " after pathload", inst);
  }
}

/// A second aggregate attached to paper-path's tight link after the warmup.
inline void second_aggregate_case(Sink& sink) {
  ScenarioSpec spec = Registry::builtin().at("paper-path");
  spec.seed = 5;
  ScenarioInstance inst{std::move(spec)};
  inst.start();
  sim::TrafficAggregate extra{inst.simulator(), inst.tight_link(), Rate::mbps(2), 10,
                              sim::Interarrival::kExponential,
                              sim::PacketSizeMix::paper_mix(), Rng{77}};
  extra.start();
  inst.simulator().run_for(Duration::seconds(1));
  sink.snapshot("second aggregate 1 s", inst);
  sink.report("second aggregate pathload", session(inst, "pathload", 5));
  sink.snapshot("second aggregate after pathload", inst);
}

/// Scenarios whose pending events are not only hop-local renewal traffic:
/// a TCP flow, on/off and ramp neighbours, an impaired hop, fluid links and
/// an RTT prober. One simulated second from start, then a pathload session.
inline void mixed_cases(Sink& sink) {
  const auto preset = [](const char* name) {
    ScenarioSpec spec = Registry::builtin().at(name);
    spec.engine = EngineVersion::kV1;
    spec.seed = 9;
    spec.warmup = Duration::zero();
    return spec;
  };
  const auto run = [&sink](const std::string& key, ScenarioSpec spec, bool prober) {
    ScenarioInstance inst{std::move(spec)};
    inst.start();
    std::unique_ptr<sim::RttProber> ping;
    if (prober) {
      ping = std::make_unique<sim::RttProber>(inst.simulator(), inst.path(),
                                              Duration::milliseconds(100),
                                              Duration::milliseconds(20));
      ping->start();
    }
    inst.simulator().run_for(Duration::seconds(1));
    sink.snapshot(key + " 1 s", inst);
    sink.report(key + " pathload", session(inst, "pathload", 9));
    sink.snapshot(key + " after pathload", inst);
  };
  run("tcp-bg-greedy", preset("tcp-bg-greedy"), false);
  run("bursty-tight", preset("bursty-tight"), false);
  run("load-step", preset("load-step"), false);
  run("lossy-tight", preset("lossy-tight"), false);
  ScenarioSpec v2 = preset("paper-path");
  v2.engine = EngineVersion::kV2;
  run("paper-path v2", std::move(v2), false);
  run("paper-path rtt prober", preset("paper-path"), true);
}

/// A transit packet with no receiver crossing paper-path, observed at
/// eight points of its unloaded transit time, then until it has left.
inline void transit_packet_case(Sink& sink) {
  ScenarioSpec spec = Registry::builtin().at("paper-path");
  spec.seed = 4;
  ScenarioInstance inst{std::move(spec)};
  inst.start();
  sim::Simulator& sim = inst.simulator();
  sim::Packet p;
  p.id = sim.next_packet_id();
  p.flow = 4242;
  p.kind = sim::PacketKind::kProbe;
  p.size_bytes = 1000;
  p.transit = true;
  p.entered = sim.now();
  inst.path().ingress().handle(p);
  const Duration step = inst.path().unloaded_transit_time(DataSize::bytes(1000)) / 8.0;
  for (int i = 0; i < 8; ++i) {
    sim.run_for(step);
    sink.snapshot("transit step " + std::to_string(i), inst);
  }
  sim.run_for(Duration::seconds(1));
  sink.snapshot("transit after 1 s", inst);
  sim.run_for(Duration::milliseconds(500));
  sink.snapshot("transit after 1.5 s", inst);
}

/// Case `index` of the fuzz tuning pool (base 20020800, engine v2 allowed),
/// parsed back from its text as fuzz_one runs it.
inline ScenarioSpec fuzz_tuning_spec(int index) {
  FuzzOptions opt;
  opt.allow_engine_v2 = true;
  const std::uint64_t seed = fuzz_case_seed(20020800, index);
  return ScenarioSpec::parse(generate_scenario(seed, opt).to_text());
}

/// Fuzz tuning cases 3 and 4 (v1: a TCP flow, and on/off plus ramp
/// neighbours): warmup and a pathload session.
inline void fuzz_cases(Sink& sink) {
  for (const int index : {3, 4}) {
    warmup_and_session(sink, "fuzz " + std::to_string(index), fuzz_tuning_spec(index));
  }
}


// --- Counted timers (counted_timer_test.cpp, counted_timer_table.inc) ------

/// What the counted-timer referee pins at one point of a run: the clock,
/// the event, ticket and packet-id counters, the pending events and keys
/// (every key folded into one FNV-1a hash), the TCP counters of the bulk
/// transfers and flows, and every link's forwarded packets.
struct TimerObservation {
  std::int64_t clock_ns{0};
  std::uint64_t events{0};
  std::uint64_t next_ticket{0};
  std::uint64_t next_packet_id{0};
  std::uint64_t pending_events{0};
  std::uint64_t pending_keys{0};
  std::uint64_t pending_keys_hash{0};
  std::uint64_t acked_bytes{0};
  std::uint64_t fast_retransmits{0};
  std::uint64_t timeouts{0};
  std::uint64_t rate_samples{0};
  std::string forwards;  ///< per link, each followed by a space
};

/// A SimProbeChannel that sums what its bulk transfers report.
class BulkTally final : public core::ProbeChannel, public core::BulkChannel {
 public:
  explicit BulkTally(SimProbeChannel& inner) : inner_{inner} {}
  core::StreamOutcome run_stream(const core::StreamSpec& spec) override {
    return inner_.run_stream(spec);
  }
  void idle(Duration d) override { inner_.idle(d); }
  TimePoint now() override { return inner_.now(); }
  Duration rtt() const override { return inner_.rtt(); }
  core::BulkChannel* bulk() override { return this; }
  core::BulkTransferOutcome run_bulk_transfer(const core::BulkTransferSpec& spec) override {
    core::BulkTransferOutcome out = inner_.run_bulk_transfer(spec);
    acked_bytes += static_cast<std::uint64_t>(out.bytes_acked.byte_count());
    fast_retransmits += out.fast_retransmits;
    timeouts += out.timeouts;
    rate_samples += out.rate_samples.size();
    return out;
  }

  std::uint64_t acked_bytes{0};
  std::uint64_t fast_retransmits{0};
  std::uint64_t timeouts{0};
  std::uint64_t rate_samples{0};

 private:
  SimProbeChannel& inner_;
};

/// Observe `inst`, with the bulk transfers `tally` summed (null: none).
/// Drawing the next packet id consumes one, as in snapshot().
inline TimerObservation observe_timers(ScenarioInstance& inst, const BulkTally* tally) {
  sim::Simulator& sim = inst.simulator();
  TimerObservation o;
  o.clock_ns = sim.now().nanos();
  o.events = sim.events_processed();
  o.next_ticket = sim.reserve_fifo_tickets(0);
  o.next_packet_id = sim.next_packet_id();
  o.pending_events = sim.pending_events();
  std::uint64_t hash = 14695981039346656037ULL;
  for (const sim::Simulator::EventKey k : sim.pending_keys()) {
    for (const std::uint64_t half : {static_cast<std::uint64_t>(k >> 64),
                                     static_cast<std::uint64_t>(k)}) {
      for (int b = 0; b < 64; b += 8) {
        hash = (hash ^ ((half >> b) & 0xFF)) * 1099511628211ULL;
      }
    }
    ++o.pending_keys;
  }
  o.pending_keys_hash = hash;
  o.acked_bytes = static_cast<std::uint64_t>(inst.flow_bytes_acked().byte_count());
  for (const auto& flow : inst.flows()) {
    o.timeouts += flow->timeouts();
    auto* packet = dynamic_cast<tcp::SegmentTcpFlow*>(flow.get());
    if (packet != nullptr && packet->connection() != nullptr) {
      o.fast_retransmits += packet->connection()->sender().fast_retransmits();
    }
  }
  if (tally != nullptr) {
    o.acked_bytes += tally->acked_bytes;
    o.fast_retransmits += tally->fast_retransmits;
    o.timeouts += tally->timeouts;
    o.rate_samples += tally->rate_samples;
  }
  for (std::size_t i = 0; i < inst.path().hop_count(); ++i) {
    o.forwards += std::to_string(inst.path().link(i).packets_forwarded()) + " ";
  }
  return o;
}

/// Where a counted-timer procedure reports, under a unique key.
struct TimerSink {
  virtual ~TimerSink() = default;
  virtual void observe(const std::string& key, const TimerObservation& o) = 0;
};

inline const char* engine_name(EngineVersion e) { return e == EngineVersion::kV1 ? "v1" : "v2"; }

/// The presets of the bulk half of --compare.
inline std::vector<std::string> bulk_presets() {
  return {"paper-path", "tcp-bg-greedy", "tcp-bg-rwnd-capped",
          "tcp-vs-probe-duel", "bbr-vs-probe-duel", "btc-path"};
}

/// btc and delivery-rate on fresh instances of `preset` under `engine`,
/// seeds {1, 2, 77}, as the estimator registry runs them; observed when
/// the tool returns (its connection torn down with ACKs in flight and RTO
/// arms pending), then 250 ms and 1.75 s later.
inline void bulk_timer_cases(TimerSink& sink, const std::string& preset, EngineVersion engine) {
  for (const char* tool : {"btc", "delivery-rate"}) {
    for (const std::uint64_t seed : {1ULL, 2ULL, 77ULL}) {
      ScenarioSpec spec = Registry::builtin().at(preset);
      spec.engine = engine;
      spec.seed = seed;
      ScenarioInstance inst{std::move(spec)};
      inst.start();
      SimProbeChannel inner{inst.simulator(), inst.path()};
      BulkTally channel{inner};
      Rng rng{seed};
      const auto est = baselines::builtin_estimators().make(tool);
      core::run_guarded(*est, channel, rng);
      const std::string key = preset + " " + engine_name(engine) + " seed " +
                              std::to_string(seed) + " " + tool;
      sink.observe(key + " done", observe_timers(inst, &channel));
      inst.simulator().run_for(Duration::milliseconds(250));
      sink.observe(key + " +250ms", observe_timers(inst, &channel));
      inst.simulator().run_for(Duration::milliseconds(1500));
      sink.observe(key + " +1750ms", observe_timers(inst, &channel));
    }
  }
}

/// A duel preset with its flow on the packet TCP backend (mode=packet)
/// under `engine`, seeds {1, 2, 77}. Its 5 s on / 5 s off cycle tears a
/// connection down mid-flight at 5 s and starts a fresh one at 10 s.
/// Observed every 700 ms to 12.6 s, and after 300 single steps from 5.6 s.
inline void packet_duel_timer_cases(TimerSink& sink, const std::string& preset,
                                    EngineVersion engine) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 77ULL}) {
    ScenarioSpec spec = Registry::builtin().at(preset);
    spec.engine = engine;
    spec.seed = seed;
    spec.flows.at(0).mode = FlowSpec::Mode::kPacket;
    ScenarioInstance inst{std::move(spec)};
    inst.start();
    sim::Simulator& sim = inst.simulator();
    const std::string key = preset + " packet " + engine_name(engine) + " seed " +
                            std::to_string(seed);
    for (int step = 1; step <= 18; ++step) {
      sim.run_until(TimePoint::origin() + Duration::milliseconds(700 * step));
      sink.observe(key + " " + std::to_string(700 * step) + "ms", observe_timers(inst, nullptr));
      if (step == 8) {
        for (int i = 0; i < 300; ++i) sim.run_next();
        sink.observe(key + " 300 steps", observe_timers(inst, nullptr));
      }
    }
  }
}

/// cc_recovery_test's runs: the duel preset's flow on the packet backend
/// with policy `cc`, its tight hop dropping 3% of packets, seeds {1, 2,
/// 77}. Timeouts fire live, and backoff leaves RTO arms out of order.
/// Observed every 1.5 s to 6 s (the connection ends at 5 s).
inline void recovery_timer_cases(TimerSink& sink, const std::string& preset, const char* cc) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 77ULL}) {
    ScenarioSpec spec = Registry::builtin().at(preset);
    spec.seed = seed;
    spec.flows.at(0).mode = FlowSpec::Mode::kPacket;
    spec.flows.at(0).cc = cc;
    ImpairSpec loss;
    loss.hop = 1;
    loss.loss = 0.03;
    loss.seed = 7;
    spec.impairments.push_back(loss);
    ScenarioInstance inst{std::move(spec)};
    inst.start();
    const std::string key = preset + " " + cc + " impaired seed " + std::to_string(seed);
    for (int step = 1; step <= 4; ++step) {
      inst.simulator().run_until(TimePoint::origin() + Duration::milliseconds(1500 * step));
      sink.observe(key + " " + std::to_string(1500 * step) + "ms", observe_timers(inst, nullptr));
    }
  }
}

/// Fuzz tuning cases 3 and 4 (v1; case 3 has a TCP flow), seeds {1, 2,
/// 77}: warmup, a pathload session, then one more second.
inline void fuzz_timer_cases(TimerSink& sink) {
  for (const int index : {3, 4}) {
    for (const std::uint64_t seed : {1ULL, 2ULL, 77ULL}) {
      ScenarioSpec spec = fuzz_tuning_spec(index);
      spec.seed = seed;
      const Duration warmup = spec.warmup;
      spec.warmup = Duration::zero();
      ScenarioInstance inst{std::move(spec)};
      inst.start();
      inst.simulator().run_until(inst.simulator().now() + warmup);
      const std::string key = "fuzz " + std::to_string(index) + " seed " + std::to_string(seed);
      sink.observe(key + " warmup", observe_timers(inst, nullptr));
      session(inst, "pathload", seed);
      sink.observe(key + " after pathload", observe_timers(inst, nullptr));
      inst.simulator().run_for(Duration::seconds(1));
      sink.observe(key + " +1s", observe_timers(inst, nullptr));
    }
  }
}

/// Counted-timer arms that tie to the nanosecond, on v1 paper-path, seeds
/// {1, 2, 77}. At each of ten instants one counted timer is armed with the
/// 6th of six tickets reserved together, then re-armed with the 2nd, and
/// another is armed with the 5th and then the 3rd, each arm cancelled: so
/// stale arms of one instant are superseded in the reverse of their ticket
/// order, and only the tickets order them. A plain timer holding the 4th
/// ticket observes from inside the run, between the tied arms. Phase 1
/// keeps the timers alive through the run; phase 2 releases them first,
/// leaving every arm to the simulator.
inline void tied_arm_cases(TimerSink& sink) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 77ULL}) {
    ScenarioSpec spec = Registry::builtin().at("paper-path");
    spec.seed = seed;
    ScenarioInstance inst{std::move(spec)};
    inst.start();
    sim::Simulator& sim = inst.simulator();
    struct Watch {
      TimerSink* sink;
      ScenarioInstance* inst;
      std::string key;
    };
    std::vector<std::unique_ptr<Watch>> watches;
    std::vector<sim::Simulator::TimerHandle> watchers;
    for (const int phase : {1, 2}) {
      const std::string key = "tied arms seed " + std::to_string(seed) + " phase " +
                              std::to_string(phase);
      const TimePoint t0 = sim.now() + Duration::milliseconds(10);
      auto a = sim.make_counted_timer([] {});
      auto b = sim.make_counted_timer([] {});
      for (int k = 0; k < 10; ++k) {
        const TimePoint at = t0 + Duration::milliseconds(k);
        const std::uint64_t first = sim.reserve_fifo_tickets(6);
        a.schedule_at(at, first + 5);
        a.schedule_at(at, first + 1);
        b.schedule_at(at, first + 4);
        b.cancel();
        b.schedule_at(at, first + 2);
        b.cancel();
        watches.push_back(std::make_unique<Watch>(
            Watch{&sink, &inst, key + " tie " + std::to_string(k)}));
        watchers.push_back(sim.make_timer([w = watches.back().get()] {
          w->sink->observe(w->key, observe_timers(*w->inst, nullptr));
        }));
        watchers.back().schedule_at(at, first + 3);
      }
      a.schedule_at(t0 + Duration::milliseconds(20));
      if (phase == 1) {
        sim.run_until(t0 + Duration::milliseconds(15));
        sink.observe(key + " 15ms", observe_timers(inst, nullptr));
      } else {
        a = decltype(a){};
        b = decltype(b){};
      }
      sim.run_until(t0 + Duration::milliseconds(40));
      sink.observe(key + " 40ms", observe_timers(inst, nullptr));
    }
  }
}

}  // namespace pathload::scenario::referee
