// Hot-path microbenchmarks (google-benchmark): the simulator's event loop
// and the SLoPS analysis pipeline. These bound how much real time a
// simulated experiment costs and how much CPU the live receiver spends per
// stream.

#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "baselines/estimators.hpp"
#include "core/stream.hpp"
#include "core/trend.hpp"
#include "fluid/fluid_model.hpp"
#include "scenario/experiment.hpp"
#include "scenario/registry.hpp"
#include "scenario/sim_channel.hpp"
#include "scenario/spec.hpp"
#include "scenario/sweep_runner.hpp"
#include "sim/fluid_traffic.hpp"
#include "sim/link.hpp"
#include "sim/path.hpp"
#include "sim/simulator.hpp"
#include "sim/traffic.hpp"
#include "util/alias_sampler.hpp"
#include "util/rng.hpp"

using namespace pathload;

namespace {

void BM_EventScheduleRun(benchmark::State& state) {
  sim::Simulator sim;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_in(Duration::microseconds(i), [&sink] { ++sink; });
    }
    sim.run_all();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventScheduleRun);

void BM_LinkForwarding(benchmark::State& state) {
  sim::Simulator sim;
  sim::Link link{sim, "l", Rate::mbps(1000), Duration::zero(),
                 DataSize::bytes(10'000'000)};
  sim::Packet p;
  p.size_bytes = 500;
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) link.handle(p);
    sim.run_all();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_LinkForwarding);

void BM_TimerRescheduleInPlace(benchmark::State& state) {
  // Cost of one period of a self-re-arming timer: pop + fire + re-arm with
  // no closure construction and no allocation. This is the inner loop of
  // every periodic source (cross traffic, link drain, probers).
  sim::Simulator sim;
  std::uint64_t fires = 0;
  sim::Simulator::TimerHandle timer = sim.make_timer([&] {
    ++fires;
    timer.schedule_in(Duration::microseconds(100));
  });
  timer.schedule_in(Duration::microseconds(100));
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) sim.run_next();
  }
  benchmark::DoNotOptimize(fires);
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_TimerRescheduleInPlace);

// One ACK of a bulk-TCP flow: schedules the next ACK one reverse-path delay
// (100 ms) out and re-arms the RTO 250 ms out; every RTO arm is superseded
// by the next ACK's before it is due, so each fires stale and does nothing.
// Without `rto` the re-arm is a one-shot closure per ACK; with it, the
// chain's counted timer (Simulator::make_counted_timer), as TcpSender arms.
struct FarAck {
  sim::Simulator* sim;
  std::uint64_t* stale;
  sim::Simulator::TimerHandle* rto;
  void operator()() const {
    sim->schedule_in(Duration::milliseconds(100), FarAck{*this});
    if (rto != nullptr) {
      rto->schedule_in(Duration::milliseconds(250));
    } else {
      sim->schedule_in(Duration::milliseconds(250), [s = stale] { ++*s; });
    }
  }
};

void BM_FarEventChurn(benchmark::State& state) {
  // Far-future churn: 128 ACK chains spread over one 100 ms round keep ~450
  // keys pending, every one scheduled past the 33.6 ms ring -- the key
  // pattern of the bulk-TCP workloads, which the second level serves. Arg 0
  // re-arms the RTO with a closure per ACK, arg 1 with one counted timer
  // per chain; both fire the same events.
  sim::Simulator sim;
  std::uint64_t stale = 0;
  std::vector<sim::Simulator::TimerHandle> rtos;  // destroyed before sim
  if (state.range(0) == 1) {
    for (int i = 0; i < 128; ++i) rtos.push_back(sim.make_counted_timer([] {}));
  }
  for (std::size_t i = 0; i < 128; ++i) {
    sim.schedule_in(Duration::nanoseconds(781'250 * static_cast<std::int64_t>(i)),
                    FarAck{&sim, &stale, rtos.empty() ? nullptr : &rtos[i]});
  }
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) sim.run_next();
  }
  benchmark::DoNotOptimize(stale);
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_FarEventChurn)->Arg(0)->Arg(1);

void BM_AliasSamplerPaperMix(benchmark::State& state) {
  // O(1) weighted packet-size draw (one uniform, no allocation); the seed
  // engine built a weights vector per call.
  const auto mix = sim::PacketSizeMix::paper_mix();
  Rng rng{1};
  std::int64_t sink = 0;
  for (auto _ : state) {
    sink += mix.sample(rng);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AliasSamplerPaperMix);

void BM_SegmentFlowRouting(benchmark::State& state) {
  // Segment attach/detach plus per-packet routing through a 4-hop chain
  // whose middle segment [1, 2] hosts the flow: bounds the junction
  // exit-hop check and the segment demux against the plain end-to-end
  // forwarding path (BM_LinkForwarding is the 1-hop baseline).
  sim::Simulator sim;
  sim::Path path{sim, std::vector<sim::HopSpec>(
                          4, sim::HopSpec{Rate::mbps(1000), Duration::zero(),
                                          DataSize::bytes(10'000'000)})};
  struct Sink final : sim::PacketHandler {
    std::uint64_t count{0};
    void handle(const sim::Packet&) override { ++count; }
  } sink;
  const sim::Segment seg{1, 2};
  for (auto _ : state) {
    const std::uint32_t flow = sim.next_flow_id();
    path.segment_exit(seg).register_flow(flow, &sink);
    sim::Packet p;
    p.flow = flow;
    p.kind = sim::PacketKind::kTcpData;
    p.size_bytes = 500;
    p.transit = true;
    p.exit_hop = path.exit_hop_value(seg);
    for (int i = 0; i < 1000; ++i) path.segment_entry(seg).handle(p);
    sim.run_all();
    path.segment_exit(seg).unregister_flow(flow);
  }
  benchmark::DoNotOptimize(sink.count);
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SegmentFlowRouting);

void BM_CrossTrafficSecond(benchmark::State& state) {
  // Cost of one simulated second of 10-source Pareto cross traffic at
  // 6 Mb/s (the Fig. 5 operating point).
  for (auto _ : state) {
    sim::Simulator sim;
    sim::Link link{sim, "l", Rate::mbps(10), Duration::zero(),
                   DataSize::bytes(1'000'000)};
    sim::TrafficAggregate agg{sim,  link, Rate::mbps(6), 10,
                              sim::Interarrival::kPareto,
                              sim::PacketSizeMix::paper_mix(), Rng{1}};
    agg.start();
    sim.run_for(Duration::seconds(1));
    benchmark::DoNotOptimize(link.bytes_forwarded());
  }
}
BENCHMARK(BM_CrossTrafficSecond);

void BM_LinkPropagationSecond(benchmark::State& state) {
  // One simulated second of a 3-hop path, 50 ms of propagation in all, with
  // 10 Pareto sources at 6 Mb/s on each 10 Mb/s hop. Unlike
  // BM_CrossTrafficSecond every link here has a delay and a downstream (its
  // junction), so every forwarded packet passes through the link's delay
  // line. Items are forwarded packets.
  std::uint64_t forwarded = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    sim::Path path{sim,
                   {{Rate::mbps(10), Duration::milliseconds(10)},
                    {Rate::mbps(10), Duration::milliseconds(20)},
                    {Rate::mbps(10), Duration::milliseconds(20)}}};
    std::vector<std::unique_ptr<sim::TrafficAggregate>> cross;
    for (std::size_t i = 0; i < path.hop_count(); ++i) {
      cross.push_back(std::make_unique<sim::TrafficAggregate>(
          sim, path.link(i), Rate::mbps(6), 10, sim::Interarrival::kPareto,
          sim::PacketSizeMix::paper_mix(), Rng{i + 1}));
      cross.back()->start();
    }
    sim.run_for(Duration::seconds(1));
    for (std::size_t i = 0; i < path.hop_count(); ++i) {
      forwarded += path.link(i).packets_forwarded();
    }
    benchmark::DoNotOptimize(forwarded);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(forwarded));
}
BENCHMARK(BM_LinkPropagationSecond);

void BM_CrossTrafficSecondV2(benchmark::State& state) {
  // The same operating point under the engine-v2 mapping: renewal cross
  // traffic collapses to a constant fluid rate on a fluid-mode link, so a
  // simulated second costs zero packet events. Paired with
  // BM_CrossTrafficSecond it times what the fluid mapping saves on one link.
  for (auto _ : state) {
    sim::Simulator sim;
    sim::Link link{sim, "l", Rate::mbps(10), Duration::zero(),
                   DataSize::bytes(1'000'000)};
    link.enable_fluid_mode();
    sim::FluidConstantSource src{sim, link, Rate::mbps(6)};
    src.start();
    sim.run_for(Duration::seconds(1));
    benchmark::DoNotOptimize(link.bytes_forwarded());
  }
}
BENCHMARK(BM_CrossTrafficSecondV2);

void BM_SimSecondsPerSec(benchmark::State& state) {
  // Headline engine metric: simulated seconds per wall-clock second on the
  // full paper-path scenario (3 hops, 10 Pareto sources each, utilization
  // accounting live). Arg 0 = engine v1, Arg 1 = engine v2; each iteration
  // simulates the preset's warmup (run by start()) + 1 s, and items are
  // simulated seconds, so items/s = simulated-seconds/s.
  scenario::ScenarioSpec spec = scenario::Registry::builtin().at("paper-path");
  if (state.range(0) != 0) spec.engine = scenario::EngineVersion::kV2;
  const Duration per_iteration = spec.warmup + Duration::seconds(1);
  for (auto _ : state) {
    scenario::ScenarioInstance inst{spec};
    inst.start();
    inst.simulator().run_for(Duration::seconds(1));
    benchmark::DoNotOptimize(inst.tight_link().bytes_forwarded());
  }
  state.counters["sim_s_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * per_iteration.secs(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimSecondsPerSec)->Arg(0)->Arg(1);

void BM_IdleGapSecond(benchmark::State& state) {
  // One simulated second of an idle gap between probe streams under v1,
  // after the warmup, as the probe channel's idle() runs it: run_until
  // runs each link alone and ranks its tickets and packet ids back into the
  // global order (docs/ENGINE.md, "Decoupled links"). Arg 0: paper-path
  // (3 hops, 10 Pareto sources each). Arg 1: lossy-tight, whose tight link
  // draws its random loss inside its own run. Items are events.
  scenario::ScenarioSpec spec =
      scenario::Registry::builtin().at(state.range(0) == 0 ? "paper-path" : "lossy-tight");
  spec.engine = scenario::EngineVersion::kV1;
  scenario::ScenarioInstance inst{spec};
  inst.start();
  sim::Simulator& sim = inst.simulator();
  const std::uint64_t events0 = sim.events_processed();
  for (auto _ : state) {
    sim.run_for(Duration::seconds(1));
    benchmark::DoNotOptimize(inst.tight_link().packets_forwarded());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(sim.events_processed() - events0));
}
BENCHMARK(BM_IdleGapSecond)->Arg(0)->Arg(1);

// One v2 pathload session built as the perfbench workloads build it, with
// the channel capped at `fastest`. `events` receives the Simulator's count.
core::PathloadResult run_probe_session(const char* preset, std::uint64_t seed,
                                       scenario::SimProbeChannel::BurstPath fastest,
                                       std::uint64_t* events = nullptr) {
  scenario::ScenarioSpec spec = scenario::Registry::builtin().at(preset);
  spec.engine = scenario::EngineVersion::kV2;
  spec.seed = seed;
  scenario::ScenarioInstance inst{std::move(spec)};
  inst.start();
  scenario::SimProbeChannel channel{inst.simulator(), inst.path()};
  channel.set_fastest_burst_path(fastest);
  core::PathloadResult res = core::PathloadSession{core::PathloadConfig{}}.run(channel);
  if (events != nullptr) *events = inst.simulator().events_processed();
  return res;
}

void BM_ProbeFleetSecond(benchmark::State& state) {
  // A full v2 pathload session, seed 77, with every stream event-driven
  // (even arg) vs the default fast paths (odd arg), on paper-path (args
  // 0, 1: quiescent and unimpaired), lossy-tight (args 2, 3: quiescent
  // and impaired) and bursty-tight (args 4, 5: on/off timers always
  // pending, so the default is the keyed batch). Before measuring, pin the contract the speedup rides on
  // (bench_smoke_engine_v2 runs this in the default CI tier): on
  // paper-path, lossy-tight and flaky-path the default run reports
  // byte-identically to the event-driven one, and counts exactly the
  // events of the run without the closed form.
  using BurstPath = scenario::SimProbeChannel::BurstPath;
  static const std::string mismatch = [] {
    for (const char* preset : {"paper-path", "lossy-tight", "flaky-path"}) {
      std::uint64_t ev_on = 0;
      std::uint64_t ev_keyed = 0;
      const auto on = run_probe_session(preset, 77, BurstPath::kClosedForm, &ev_on);
      const auto off = run_probe_session(preset, 77, BurstPath::kEventDriven);
      run_probe_session(preset, 77, BurstPath::kKeyedBatch, &ev_keyed);
      if (off.range.low.bits_per_sec() != on.range.low.bits_per_sec() ||
          off.range.high.bits_per_sec() != on.range.high.bits_per_sec() ||
          off.elapsed.nanos() != on.elapsed.nanos() || off.fleets != on.fleets) {
        return std::string{"fast v2 probe paths are not byte-identical to "
                           "event-driven on "} + preset + " seed 77";
      }
      if (ev_on != ev_keyed) {
        return std::string{"closed-form bursts miscount events on "} + preset +
               " seed 77: " + std::to_string(ev_on) + " vs " + std::to_string(ev_keyed);
      }
    }
    return std::string{};
  }();
  if (!mismatch.empty()) {
    state.SkipWithError(mismatch.c_str());
    for (auto _ : state) {
    }
    return;
  }
  static const char* kPresets[] = {"paper-path", "lossy-tight", "bursty-tight"};
  const char* preset = kPresets[state.range(0) / 2];
  const BurstPath fastest =
      state.range(0) % 2 == 0 ? BurstPath::kEventDriven : BurstPath::kClosedForm;
  for (auto _ : state) {
    const auto res = run_probe_session(preset, 77, fastest);
    benchmark::DoNotOptimize(res.fleets);
  }
}
BENCHMARK(BM_ProbeFleetSecond)->DenseRange(0, 5);

void BM_TcpScenarioSecond(benchmark::State& state) {
  // One simulated second (plus the 2 s warmup run by start()) of the
  // tcp-bg-greedy scenario under engine v2, with the TCP flow on the
  // packet backend (arg 0, `mode=packet`) vs the native fluid AIMD
  // backend (arg 1). This is the Amdahl wall PR 9 knocks down: with
  // cross traffic already fluid, the greedy flow's per-packet events are
  // the remaining cost.
  scenario::ScenarioSpec spec =
      scenario::Registry::builtin().at("tcp-bg-greedy");
  spec.engine = scenario::EngineVersion::kV2;
  if (state.range(0) == 0) {
    for (auto& f : spec.flows) f.mode = scenario::FlowSpec::Mode::kPacket;
  }
  for (auto _ : state) {
    scenario::ScenarioInstance inst{spec};
    inst.start();
    inst.simulator().run_for(Duration::seconds(1));
    benchmark::DoNotOptimize(inst.flow_bytes_acked());
  }
  state.SetItemsProcessed(state.iterations() * 3);
}
BENCHMARK(BM_TcpScenarioSecond)->Arg(0)->Arg(1);

void BM_CcDuelSecond(benchmark::State& state) {
  // One simulated second of the tcp-vs-probe-duel scenario under engine
  // v2 with the competing flow on each congestion policy: reno (arg 0),
  // cubic (arg 1), bbr (arg 2): what the pluggable-CC seam and the
  // model-based policies cost relative to the frozen reno epoch body.
  static const char* kCc[] = {"reno", "cubic", "bbr"};
  scenario::ScenarioSpec spec =
      scenario::Registry::builtin().at("tcp-vs-probe-duel");
  spec.engine = scenario::EngineVersion::kV2;
  for (auto& f : spec.flows) f.cc = kCc[state.range(0)];
  for (auto _ : state) {
    scenario::ScenarioInstance inst{spec};
    inst.start();
    inst.simulator().run_for(Duration::seconds(1));
    benchmark::DoNotOptimize(inst.flow_bytes_acked());
  }
  state.SetItemsProcessed(state.iterations() * 3);
}
BENCHMARK(BM_CcDuelSecond)->Arg(0)->Arg(1)->Arg(2);

std::vector<double> synthetic_owds(int k) {
  Rng rng{7};
  std::vector<double> owds(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    owds[static_cast<std::size_t>(i)] = 0.01 * i + rng.uniform(-1.0, 1.0);
  }
  return owds;
}

void BM_MedianGroups(benchmark::State& state) {
  const auto owds = synthetic_owds(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::median_groups(owds));
  }
}
BENCHMARK(BM_MedianGroups)->Arg(100)->Arg(1000);

void BM_TrendAnalysis(benchmark::State& state) {
  const auto owds = synthetic_owds(static_cast<int>(state.range(0)));
  const core::TrendConfig cfg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::compute_trend(owds, cfg));
  }
}
BENCHMARK(BM_TrendAnalysis)->Arg(100)->Arg(1000);

void BM_MakeStreamSpec(benchmark::State& state) {
  const core::PathloadConfig cfg;
  double r = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::make_stream_spec(Rate::mbps(r), cfg));
    r = r < 100.0 ? r + 1.3 : 1.0;
  }
}
BENCHMARK(BM_MakeStreamSpec);

void BM_FluidOwdSeries(benchmark::State& state) {
  const fluid::FluidPath path{{
      {Rate::mbps(20), Rate::mbps(12)},
      {Rate::mbps(10), Rate::mbps(6)},
      {Rate::mbps(20), Rate::mbps(12)},
  }};
  for (auto _ : state) {
    benchmark::DoNotOptimize(path.owd_series(Rate::mbps(6), DataSize::bytes(800), 100));
  }
}
BENCHMARK(BM_FluidOwdSeries);

void BM_SweepRunner(benchmark::State& state) {
  // Four repeated pathload measurements sharded over state.range(0)
  // threads; results are byte-identical across thread counts, only the
  // wall clock changes.
  scenario::PaperPathConfig path;
  path.hops = 1;
  path.tight_capacity = Rate::mbps(10);
  path.tight_utilization = 0.5;
  path.warmup = Duration::milliseconds(200);
  const scenario::ScenarioSpec spec =
      scenario::ScenarioSpec::from_paper("sweep", "", path);
  const core::PathloadConfig tool;
  scenario::SweepRunner runner{static_cast<int>(state.range(0))};
  for (auto _ : state) {
    const auto rr = scenario::sweep_scenario_repeated(spec, tool, 4, /*seed0=*/7, runner);
    benchmark::DoNotOptimize(rr.results.data());
  }
  state.SetItemsProcessed(state.iterations() * 4);
}
BENCHMARK(BM_SweepRunner)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()->UseRealTime();

void BM_EstimatorMatrix(benchmark::State& state) {
  // The comparison harness end-to-end: a tiny 2-estimator x 2-scenario
  // matrix (fast probe-stream tools, short warmups, 1 run per cell). This
  // bounds the fixed cost of "compare anything against anything" — cell
  // planning, per-run instantiation, channel metering, report reduction —
  // and its ctest wrapper (bench_smoke_estimator_matrix) records rows in
  // BENCH_micro.json so a harness slowdown fails loudly.
  const auto& ereg = pathload::baselines::builtin_estimators();
  const std::vector<scenario::MatrixEstimator> estimators = {
      scenario::MatrixEstimator::from_registry(ereg, "cprobe",
                                               "trains=2, train_length=30"),
      scenario::MatrixEstimator::from_registry(ereg, "pktpair", "pairs=10"),
  };
  scenario::ScenarioSpec paper = scenario::Registry::builtin().at("paper-path");
  paper.warmup = Duration::milliseconds(200);
  scenario::ScenarioSpec tight =
      scenario::Registry::builtin().at("tight-not-narrow");
  tight.warmup = Duration::milliseconds(200);
  scenario::SweepRunner runner{static_cast<int>(state.range(0))};
  for (auto _ : state) {
    const auto cells = scenario::run_matrix(estimators, {paper, tight}, {},
                                            /*runs=*/1, /*seed0=*/11, runner);
    benchmark::DoNotOptimize(cells.data());
  }
  state.SetItemsProcessed(state.iterations() * 4);  // cells per matrix
}
BENCHMARK(BM_EstimatorMatrix)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()->UseRealTime();

void BM_EstimatorMatrixNewTools(benchmark::State& state) {
  // The PR 5 estimators end-to-end on the harness, one run per cell on a
  // short-warmup paper-path: spruce's Poisson-scheduled pairs, igi's
  // turning-point search, pathchirp's gapped (non-periodic) streams.
  // Bounds the cost of the gap-model and chirp probing loops the same way
  // BM_EstimatorMatrix bounds the classic tools; the ctest wrapper
  // bench_smoke_new_estimators records rows so a regression fails loudly.
  const auto& ereg = pathload::baselines::builtin_estimators();
  const std::vector<scenario::MatrixEstimator> estimators = {
      scenario::MatrixEstimator::from_registry(ereg, "spruce",
                                               "capacity_mbps=10, pairs=25"),
      scenario::MatrixEstimator::from_registry(ereg, "igi", "capacity_mbps=10"),
      scenario::MatrixEstimator::from_registry(ereg, "pathchirp", "chirps=4"),
  };
  scenario::ScenarioSpec paper = scenario::Registry::builtin().at("paper-path");
  paper.warmup = Duration::milliseconds(200);
  scenario::SweepRunner runner{static_cast<int>(state.range(0))};
  for (auto _ : state) {
    const auto cells = scenario::run_matrix(estimators, {paper}, {},
                                            /*runs=*/1, /*seed0=*/13, runner);
    benchmark::DoNotOptimize(cells.data());
  }
  state.SetItemsProcessed(state.iterations() * 3);  // cells per matrix
}
BENCHMARK(BM_EstimatorMatrixNewTools)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()->UseRealTime();

}  // namespace

// BENCHMARK_MAIN, plus a default JSON sink: unless the caller passes its
// own --benchmark_out, results also land in BENCH_micro.json so perf runs
// leave a machine-readable record (bench_smoke relies on this).
int main(int argc, char** argv) {
  std::vector<char*> args{argv, argv + argc};
  std::string out_flag = "--benchmark_out=BENCH_micro.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  bool has_out = false;
  bool has_fmt = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
    if (std::strncmp(argv[i], "--benchmark_out_format=", 23) == 0) has_fmt = true;
  }
  // Inject the default only when the caller expressed no output preference
  // at all; a caller-chosen format must never end up inside a file named
  // .json, and a caller-chosen file keeps its own format.
  if (!has_out && !has_fmt) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int ac = static_cast<int>(args.size());
  benchmark::Initialize(&ac, args.data());
  if (benchmark::ReportUnrecognizedArguments(ac, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
