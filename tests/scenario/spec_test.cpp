// Tests for the scenario spec format: parsing, validation diagnostics,
// round-tripping, load transforms, and — the load-bearing one — that a
// paper-form spec builds exactly what its expanded hop list describes.

#include <gtest/gtest.h>

#include <cstdio>

#include "core/session.hpp"
#include "scenario/experiment.hpp"
#include "scenario/registry.hpp"
#include "scenario/sim_channel.hpp"
#include "scenario/spec.hpp"

namespace pathload::scenario {
namespace {

/// EXPECT_THROW plus a substring check on the diagnostic, so a test failure
/// shows which message regressed.
template <typename Fn>
void expect_spec_error(Fn&& fn, const std::string& needle) {
  try {
    fn();
    FAIL() << "expected SpecError containing '" << needle << "'";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string{e.what()}.find(needle), std::string::npos)
        << "message was: " << e.what();
  }
}

constexpr const char* kCustomSpec = R"(
  # A comment, and blank lines, are ignored.
  name = my-scenario
  description = two heterogeneous hops
  seed = 9
  warmup_s = 1.5
  hops = 2
  hop.0.capacity_mbps = 40
  hop.0.delay_ms = 5
  hop.0.traffic.model = poisson
  hop.0.traffic.utilization = 0.25
  hop.0.traffic.sources = 4
  hop.1.capacity_mbps = 10
  hop.1.delay_ms = 30
  hop.1.buffer_ms = 250
  hop.1.traffic.model = pareto
  hop.1.traffic.utilization = 0.6
  hop.1.traffic.pareto_alpha = 1.7
  hop.1.traffic.mix = fixed:1000
)";

TEST(SpecParse, CustomFormRoundTrips) {
  const ScenarioSpec spec = ScenarioSpec::parse(kCustomSpec);
  EXPECT_EQ(spec.name, "my-scenario");
  EXPECT_EQ(spec.seed, 9u);
  EXPECT_EQ(spec.warmup, Duration::seconds(1.5));
  ASSERT_EQ(spec.hops.size(), 2u);
  EXPECT_EQ(spec.hops[0].capacity, Rate::mbps(40));
  EXPECT_EQ(spec.hops[0].traffic.model, TrafficModel::kPoisson);
  EXPECT_EQ(spec.hops[0].traffic.sources, 4);
  EXPECT_EQ(spec.hops[1].buffer_drain, Duration::milliseconds(250));
  EXPECT_DOUBLE_EQ(spec.hops[1].traffic.pareto_alpha, 1.7);
  EXPECT_EQ(spec.hops[1].traffic.mix.bins().size(), 1u);
  EXPECT_EQ(spec.tight_hop(), 1u);
  EXPECT_DOUBLE_EQ(spec.avail_bw().mbits_per_sec(), 4.0);

  // to_text() re-parses to an equivalent spec.
  const ScenarioSpec again = ScenarioSpec::parse(spec.to_text());
  EXPECT_EQ(again.to_text(), spec.to_text());
  EXPECT_EQ(again.hops.size(), spec.hops.size());
  EXPECT_EQ(again.seed, spec.seed);
}

TEST(SpecParse, PaperFormRoundTrips) {
  const ScenarioSpec spec = ScenarioSpec::parse(R"(
    name = paper-variant
    seed = 5
    paper.hops = 6
    paper.tight_capacity_mbps = 20
    paper.tight_utilization = 0.4
    paper.beta = 1.5
    paper.traffic = poisson
  )");
  ASSERT_TRUE(spec.paper.has_value());
  EXPECT_EQ(spec.paper->hops, 6);
  EXPECT_EQ(spec.paper->tight_capacity, Rate::mbps(20));
  EXPECT_EQ(spec.paper->model, sim::Interarrival::kExponential);
  EXPECT_EQ(spec.hops.size(), 6u);
  EXPECT_EQ(spec.tight_hop(), 3u);
  EXPECT_DOUBLE_EQ(spec.avail_bw().mbits_per_sec(), 12.0);
  const ScenarioSpec again = ScenarioSpec::parse(spec.to_text());
  EXPECT_EQ(again.to_text(), spec.to_text());
  EXPECT_EQ(again.seed, 5u);
}

TEST(SpecParse, DiagnosticsNameLineAndFix) {
  // Malformed line (no '=').
  expect_spec_error([] { ScenarioSpec::parse("name = x\nhops 3\n"); },
                    "line 2: expected 'key = value'");
  // Unknown top-level key.
  expect_spec_error([] { ScenarioSpec::parse("name = x\nhops = 1\nhop.0.traffic.model = none\nbogus = 1\n"); },
                    "unknown key");
  // Unknown hop field.
  expect_spec_error(
      [] { ScenarioSpec::parse("name = x\nhops = 1\nhop.0.trafic.model = poisson\n"); },
      "unknown hop field 'trafic.model'");
  // Non-numeric value, with the key and the offending text.
  expect_spec_error(
      [] { ScenarioSpec::parse("name = x\nhops = 1\nhop.0.capacity_mbps = fast\n"); },
      "expected a number, got 'fast'");
  // Hop index out of range names the declared count.
  expect_spec_error(
      [] { ScenarioSpec::parse("name = x\nhops = 2\nhop.5.capacity_mbps = 1\n"); },
      "hop index 5 out of range (hops = 2)");
  // Duplicate key.
  expect_spec_error([] { ScenarioSpec::parse("name = x\nname = y\nhops = 1\n"); },
                    "duplicate key 'name'");
  // Unknown traffic model lists the valid ones.
  expect_spec_error(
      [] { ScenarioSpec::parse("name = x\nhops = 1\nhop.0.traffic.model = fractal\n"); },
      "none|poisson|pareto|constant|onoff|ramp");
  // Missing name.
  expect_spec_error([] { ScenarioSpec::parse("hops = 1\nhop.0.traffic.model = none\n"); },
                    "missing 'name");
  // No path at all.
  expect_spec_error([] { ScenarioSpec::parse("name = x\n"); },
                    "declares no path");
  // Mixing paper.* with hop.* is ambiguous.
  expect_spec_error(
      [] { ScenarioSpec::parse("name = x\nhops = 1\npaper.hops = 3\n"); },
      "mixes paper.* keys");
  // A renewal model without a load is a forgotten key, not silence.
  expect_spec_error(
      [] { ScenarioSpec::parse("name = x\nhops = 1\nhop.0.traffic.model = pareto\n"); },
      "no load is set");
  // A negative seed must not silently wrap through strtoull.
  expect_spec_error(
      [] { ScenarioSpec::parse("name = x\nseed = -1\nhops = 1\nhop.0.traffic.model = none\n"); },
      "expected a non-negative integer, got '-1'");
  // A burst that truncates to zero bytes must fail at validation, not as an
  // uncaught invalid_argument from OnOffSource at instantiation.
  expect_spec_error(
      [] {
        ScenarioSpec::parse(
            "name = x\nhops = 1\nhop.0.traffic.model = onoff\n"
            "hop.0.traffic.utilization = 0.5\n"
            "hop.0.traffic.mean_burst_kb = 0.0004\n");
      },
      "at least one byte");
}

TEST(SpecValidate, OutOfRangeValues) {
  // Utilization at or above 1.
  expect_spec_error(
      [] {
        ScenarioSpec::parse(
            "name = x\nhops = 1\nhop.0.traffic.model = poisson\n"
            "hop.0.traffic.utilization = 1.3\n");
      },
      "must be in [0, 1), got 1.3");
  // Negative capacity.
  expect_spec_error(
      [] {
        ScenarioSpec::parse(
            "name = x\nhops = 1\nhop.0.capacity_mbps = -4\n"
            "hop.0.traffic.model = none\n");
      },
      "hop 0: capacity_mbps: must be positive");
  // Pareto alpha at 1 (infinite mean).
  expect_spec_error(
      [] {
        ScenarioSpec::parse(
            "name = x\nhops = 1\nhop.0.traffic.model = pareto\n"
            "hop.0.traffic.utilization = 0.5\nhop.0.traffic.pareto_alpha = 1\n");
      },
      "must be > 1");
  // On/off peak below the mean load.
  expect_spec_error(
      [] {
        ScenarioSpec::parse(
            "name = x\nhops = 1\nhop.0.traffic.model = onoff\n"
            "hop.0.traffic.utilization = 0.6\n"
            "hop.0.traffic.peak_utilization = 0.5\n");
      },
      "traffic.peak_utilization");
  // Ramp window running backwards.
  expect_spec_error(
      [] {
        ScenarioSpec::parse(
            "name = x\nhops = 1\nhop.0.traffic.model = ramp\n"
            "hop.0.traffic.utilization = 0.3\n"
            "hop.0.traffic.end_utilization = 0.7\n"
            "hop.0.traffic.ramp_start_s = 10\nhop.0.traffic.ramp_end_s = 5\n");
      },
      "must not precede ramp_start_s");
  // Paper form is validated too.
  expect_spec_error(
      [] { ScenarioSpec::parse("name = x\npaper.tight_utilization = 1.5\n"); },
      "paper.tight_utilization");
}

TEST(SpecValidate, PaperFormNegativeDelayIsRejected) {
  // The expanded hops get a negative propagation delay; before the per-hop
  // checks ran on paper specs this validated, then the run threw from
  // Simulator::schedule_at.
  expect_spec_error(
      [] {
        ScenarioSpec::parse("name = x\npaper.hops = 3\npaper.total_prop_delay_ms = -30\n");
      },
      "hop 0: delay_ms: must not be negative");
}

TEST(SpecValidate, PaperConfigWithoutBufferIsRejected) {
  PaperPathConfig cfg;
  cfg.buffer_drain = Duration::zero();
  const ScenarioSpec spec = ScenarioSpec::from_paper("p", "", cfg);
  expect_spec_error([&] { spec.validate(); }, "hop 0: buffer_ms: must be positive");
  EXPECT_THROW(ScenarioInstance{spec}, SpecError);
}

TEST(SpecValidate, PaperFormNegativeWarmupIsRejected) {
  PaperPathConfig cfg;
  cfg.warmup = Duration::seconds(-1);
  const ScenarioSpec spec = ScenarioSpec::from_paper("p", "", cfg);
  expect_spec_error([&] { spec.validate(); }, "warmup_s must not be negative");
}

TEST(SpecParse, OnOffAndRampDefaultToOneSource) {
  const ScenarioSpec spec = ScenarioSpec::parse(R"(
    name = x
    hops = 2
    hop.0.traffic.model = onoff
    hop.0.traffic.utilization = 0.5
    hop.1.traffic.model = ramp
    hop.1.traffic.utilization = 0.3
    hop.1.traffic.end_utilization = 0.6
  )");
  EXPECT_EQ(spec.hops[0].traffic.sources, 1);
  EXPECT_EQ(spec.hops[1].traffic.sources, 1);
  // ...unless set explicitly.
  const ScenarioSpec multi = ScenarioSpec::parse(R"(
    name = x
    hops = 1
    hop.0.traffic.sources = 3
    hop.0.traffic.model = onoff
    hop.0.traffic.utilization = 0.5
  )");
  EXPECT_EQ(multi.hops[0].traffic.sources, 3);
}

TEST(SpecParse, FlowLinesParseWithDefaults) {
  const ScenarioSpec spec = ScenarioSpec::parse(R"(
    name = flowy
    hops = 3
    hop.0.traffic.model = none
    hop.1.traffic.model = none
    hop.2.traffic.model = none
    flow tcp
    flow tcp hops=1-2 rwnd=32 start_s=0.5 count=3 reverse_ms=100
    flow tcp hops=1 on_s=2 off_s=1 stop_s=30 mss=576
  )");
  ASSERT_EQ(spec.flows.size(), 3u);
  // Defaults: whole path, greedy, one flow, starts at 0.
  EXPECT_EQ(spec.flows[0].first_hop, 0u);
  EXPECT_EQ(spec.flows[0].last_hop, sim::Segment::kPathEnd);
  EXPECT_FALSE(spec.flows[0].rwnd.has_value());
  EXPECT_EQ(spec.flows[0].count, 1);
  EXPECT_EQ(spec.flows[0].start_s, 0.0);
  EXPECT_FALSE(spec.flows[0].cycles());
  // Explicit segment + rwnd cap.
  EXPECT_EQ(spec.flows[1].first_hop, 1u);
  EXPECT_EQ(spec.flows[1].last_hop, 2u);
  EXPECT_DOUBLE_EQ(*spec.flows[1].rwnd, 32.0);
  EXPECT_EQ(spec.flows[1].count, 3);
  EXPECT_DOUBLE_EQ(spec.flows[1].reverse_ms, 100.0);
  // Single-hop shorthand + on/off restart variant.
  EXPECT_EQ(spec.flows[2].first_hop, 1u);
  EXPECT_EQ(spec.flows[2].last_hop, 1u);
  EXPECT_TRUE(spec.flows[2].cycles());
  EXPECT_DOUBLE_EQ(*spec.flows[2].on_s, 2.0);
  EXPECT_DOUBLE_EQ(*spec.flows[2].off_s, 1.0);
  EXPECT_DOUBLE_EQ(*spec.flows[2].stop_s, 30.0);
  EXPECT_EQ(spec.flows[2].mss_bytes, 576);
  EXPECT_TRUE(spec.has_flows());

  // to_text() renders flow lines that re-parse to the same spec.
  const ScenarioSpec again = ScenarioSpec::parse(spec.to_text());
  EXPECT_EQ(again.to_text(), spec.to_text());
  ASSERT_EQ(again.flows.size(), 3u);
  EXPECT_EQ(again.flows[1].count, 3);
}

TEST(SpecParse, FlowModeKeyParsesAndRoundTrips) {
  const auto parse_mode = [](const std::string& flow_line) {
    return ScenarioSpec::parse(
        "name = x\nhops = 2\nhop.0.traffic.model = none\n"
        "hop.1.traffic.model = none\n" + flow_line + "\n");
  };
  // Default: auto (the engine's native backend); omitted from to_text.
  const ScenarioSpec def = parse_mode("flow tcp");
  EXPECT_EQ(def.flows[0].mode, FlowSpec::Mode::kAuto);
  EXPECT_EQ(def.to_text().find("mode="), std::string::npos);
  const ScenarioSpec autod = parse_mode("flow tcp mode=auto");
  EXPECT_EQ(autod.flows[0].mode, FlowSpec::Mode::kAuto);
  // mode=packet pins the packet backend and survives the round-trip.
  const ScenarioSpec pinned = parse_mode("flow tcp rwnd=8 mode=packet");
  EXPECT_EQ(pinned.flows[0].mode, FlowSpec::Mode::kPacket);
  EXPECT_NE(pinned.to_text().find("mode=packet"), std::string::npos);
  const ScenarioSpec again = ScenarioSpec::parse(pinned.to_text());
  EXPECT_EQ(again.flows[0].mode, FlowSpec::Mode::kPacket);
  EXPECT_EQ(again.to_text(), pinned.to_text());
  // Unknown values fail with the accepted set.
  expect_spec_error([&] { parse_mode("flow tcp mode=fluid"); },
                    "unknown mode 'fluid' (expected auto or packet");
}

TEST(SpecParse, FlowCcKeyParsesAndRoundTrips) {
  const auto parse_cc = [](const std::string& flow_line) {
    return ScenarioSpec::parse(
        "name = x\nhops = 2\nhop.0.traffic.model = none\n"
        "hop.1.traffic.model = none\n" + flow_line + "\n");
  };
  // Default: reno (the bit-frozen legacy policy); omitted from to_text.
  const ScenarioSpec def = parse_cc("flow tcp");
  EXPECT_EQ(def.flows[0].cc, "reno");
  EXPECT_EQ(def.to_text().find("cc="), std::string::npos);
  const ScenarioSpec expl = parse_cc("flow tcp cc=reno");
  EXPECT_EQ(expl.flows[0].cc, "reno");
  EXPECT_EQ(expl.to_text().find("cc="), std::string::npos);
  // Every non-default policy parses and survives the round-trip.
  for (const std::string name : {"reno-rfc", "cubic", "bbr"}) {
    const ScenarioSpec pinned = parse_cc("flow tcp rwnd=8 cc=" + name);
    EXPECT_EQ(pinned.flows[0].cc, name);
    EXPECT_NE(pinned.to_text().find("cc=" + name), std::string::npos) << name;
    const ScenarioSpec again = ScenarioSpec::parse(pinned.to_text());
    EXPECT_EQ(again.flows[0].cc, name);
    EXPECT_EQ(again.to_text(), pinned.to_text());
  }
  // Unknown values fail with the accepted set.
  expect_spec_error([&] { parse_cc("flow tcp cc=vegas"); },
                    "unknown cc 'vegas' (expected reno, reno-rfc, cubic, or bbr");
}

TEST(SpecParse, FlowLinesWorkWithThePaperForm) {
  const ScenarioSpec spec = ScenarioSpec::parse(R"(
    name = paper-with-flow
    paper.hops = 3
    flow tcp rwnd=16
  )");
  ASSERT_TRUE(spec.paper.has_value());
  ASSERT_EQ(spec.flows.size(), 1u);
  EXPECT_DOUBLE_EQ(*spec.flows[0].rwnd, 16.0);
  const ScenarioSpec again = ScenarioSpec::parse(spec.to_text());
  EXPECT_EQ(again.to_text(), spec.to_text());
}

TEST(SpecParse, FlowLineDiagnostics) {
  const auto with_flow = [](const std::string& flow_line) {
    return "name = x\nhops = 2\nhop.0.traffic.model = none\n"
           "hop.1.traffic.model = none\n" + flow_line + "\n";
  };
  // Missing kind.
  expect_spec_error([&] { ScenarioSpec::parse(with_flow("flow")); },
                    "line 5: flow: expected 'flow <kind>");
  // Unknown kind.
  expect_spec_error([&] { ScenarioSpec::parse(with_flow("flow udp")); },
                    "unknown flow kind 'udp'");
  // Unknown key lists the legal ones.
  expect_spec_error([&] { ScenarioSpec::parse(with_flow("flow tcp window=3")); },
                    "unknown key 'window' (expected hops, rwnd");
  // Malformed token.
  expect_spec_error([&] { ScenarioSpec::parse(with_flow("flow tcp rwnd")); },
                    "expected key=value, got 'rwnd'");
  // Duplicate key within the line.
  expect_spec_error([&] { ScenarioSpec::parse(with_flow("flow tcp rwnd=2 rwnd=3")); },
                    "duplicate key 'rwnd'");
  // Bad hop-range syntax.
  expect_spec_error([&] { ScenarioSpec::parse(with_flow("flow tcp hops=a-b")); },
                    "hops expects <hop> or <first>-<last>");
  // An index that overflows strtoul must not alias kPathEnd (whole path).
  expect_spec_error(
      [&] {
        ScenarioSpec::parse(with_flow("flow tcp hops=0-99999999999999999999"));
      },
      "hop indices in [0, 64]");
  // Range out of the path.
  expect_spec_error([&] { ScenarioSpec::parse(with_flow("flow tcp hops=1-5")); },
                    "flow 0: hops: segment 1-5 does not fit the path (hops 0-1");
  // Backwards range.
  expect_spec_error([&] { ScenarioSpec::parse(with_flow("flow tcp hops=1-0")); },
                    "first must not exceed last");
  // Non-numeric value names the flow key.
  expect_spec_error([&] { ScenarioSpec::parse(with_flow("flow tcp start_s=soon")); },
                    "flow start_s: expected a number, got 'soon'");
  // rwnd below one segment.
  expect_spec_error([&] { ScenarioSpec::parse(with_flow("flow tcp rwnd=0.5")); },
                    "flow 0: rwnd: must be at least 1 segment");
  // stop before start.
  expect_spec_error(
      [&] { ScenarioSpec::parse(with_flow("flow tcp start_s=5 stop_s=2")); },
      "stop_s: must come after start_s (5)");
  // on_s without off_s (and vice versa) is half a restart variant.
  expect_spec_error([&] { ScenarioSpec::parse(with_flow("flow tcp on_s=2")); },
                    "on_s and off_s must be set together");
  expect_spec_error([&] { ScenarioSpec::parse(with_flow("flow tcp off_s=2")); },
                    "on_s and off_s must be set together");
  // count bounds.
  expect_spec_error([&] { ScenarioSpec::parse(with_flow("flow tcp count=0")); },
                    "flow 0: count: must be in [1, 64]");
}

TEST(SpecParse, OverlappingFlowSegmentsAreLegal) {
  // Overlap is a feature (competing flows sharing links), including two
  // flows that end after the same hop and an end-to-end flow over both.
  const ScenarioSpec spec = ScenarioSpec::parse(R"(
    name = overlappy
    hops = 3
    hop.0.traffic.model = none
    hop.1.traffic.model = none
    hop.2.traffic.model = none
    flow tcp hops=0-1
    flow tcp hops=1-1
    flow tcp hops=0-2
  )");
  ASSERT_EQ(spec.flows.size(), 3u);
  ScenarioInstance inst{spec};
  EXPECT_EQ(inst.flows().size(), 3u);
}

TEST(SpecInstance, FlowBearingSpecRunsDeterministically) {
  auto run_once = [] {
    ScenarioSpec spec = ScenarioSpec::parse(R"(
      name = det
      warmup_s = 3
      hops = 2
      hop.0.capacity_mbps = 20
      hop.0.traffic.model = poisson
      hop.0.traffic.utilization = 0.2
      hop.1.capacity_mbps = 10
      hop.1.traffic.model = pareto
      hop.1.traffic.utilization = 0.3
      flow tcp hops=0-1 rwnd=16
      flow tcp hops=1 on_s=1 off_s=0.5
    )");
    ScenarioInstance inst{std::move(spec)};
    inst.start();
    return std::tuple{inst.simulator().events_processed(),
                      inst.flow_bytes_acked().byte_count(),
                      inst.tight_link().bytes_forwarded().byte_count()};
  };
  const auto a = run_once();
  EXPECT_EQ(a, run_once());
  EXPECT_GT(std::get<1>(a), 0);
}

TEST(SpecTransform, WithLoadPreservesPaperBetaInvariant) {
  PaperPathConfig cfg;  // beta = 2, ux = 0.6
  const ScenarioSpec base = ScenarioSpec::from_paper("p", "", cfg);
  const ScenarioSpec swept = base.with_load(0.2);
  ASSERT_TRUE(swept.paper.has_value());
  EXPECT_DOUBLE_EQ(swept.paper->tight_utilization, 0.2);
  // Non-tight capacity re-derives from the new avail-bw: Cx = A*beta/(1-ux).
  EXPECT_DOUBLE_EQ(swept.hops[0].capacity.mbits_per_sec(), 8.0 * 2.0 / 0.4);
  // Custom specs change only the tight hop's load.
  const ScenarioSpec custom = ScenarioSpec::parse(kCustomSpec);
  const ScenarioSpec custom_swept = custom.with_load(0.3);
  EXPECT_DOUBLE_EQ(custom_swept.hops[1].traffic.utilization, 0.3);
  EXPECT_EQ(custom_swept.hops[0].capacity, custom.hops[0].capacity);
  EXPECT_DOUBLE_EQ(custom_swept.hops[0].traffic.utilization, 0.25);
  expect_spec_error([&] { (void)custom.with_load(1.0); }, "must be in [0, 1)");
}

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// What a v1 pathload session costs and reports: events, packet ids and
/// per-link forwards after the run, then the verdict with floats exact.
std::string paper_session_trace(ScenarioSpec spec, std::uint64_t seed) {
  spec.seed = seed;
  ScenarioInstance inst{std::move(spec)};
  inst.start();
  SimProbeChannel channel{inst.simulator(), inst.path()};
  core::PathloadSession session{core::PathloadConfig{}};
  const core::PathloadResult r = session.run(channel);
  std::string out = "events=" + std::to_string(inst.simulator().events_processed()) +
                    " ids=" + std::to_string(inst.simulator().next_packet_id()) +
                    " forwarded=";
  for (std::size_t i = 0; i < inst.path().hop_count(); ++i) {
    out += std::to_string(inst.path().link(i).packets_forwarded()) + ",";
  }
  out += " low=" + hex(r.range.low.bits_per_sec()) +
         " high=" + hex(r.range.high.bits_per_sec()) +
         " converged=" + std::to_string(r.converged) + " fleets=" + std::to_string(r.fleets) +
         " streams=" + std::to_string(r.streams_sent) +
         " pkts=" + std::to_string(r.packets_sent) +
         " bytes=" + std::to_string(r.bytes_sent.byte_count()) +
         " lost=" + std::to_string(r.packets_lost) +
         " elapsed=" + std::to_string(r.elapsed.nanos());
  return out;
}

TEST(SpecInstance, PaperFormBuildsFromItsHopList) {
  // A paper-form spec is built from its expanded hop list alone: dropping
  // the PaperPathConfig it came from leaves the v1 run unchanged to the
  // last event, packet id, forward and verdict bit.
  for (const char* name : {"paper-path", "paper-path-poisson", "fig11-access",
                           "fig12-abilene", "fig12-crete", "fig12-pireaus"}) {
    const ScenarioSpec& preset = Registry::builtin().at(name);
    ASSERT_TRUE(preset.paper.has_value()) << name;
    ASSERT_EQ(preset.engine, EngineVersion::kV1) << name;
    ScenarioSpec hops_only = preset;
    hops_only.paper.reset();
    for (const std::uint64_t seed : {1ULL, 77ULL}) {
      SCOPED_TRACE(std::string{name} + " seed " + std::to_string(seed));
      EXPECT_EQ(paper_session_trace(preset, seed), paper_session_trace(hops_only, seed));
    }
  }
}

TEST(SpecInstance, CustomSpecWarmupIsDeterministic) {
  auto warmup_state = [] {
    ScenarioSpec spec = ScenarioSpec::parse(kCustomSpec);
    ScenarioInstance inst{std::move(spec)};
    inst.start();
    return std::pair{inst.simulator().events_processed(),
                     inst.tight_link().bytes_forwarded().byte_count()};
  };
  const auto a = warmup_state();
  EXPECT_EQ(a, warmup_state());
  EXPECT_GT(a.first, 0u);
}

TEST(SpecInstance, NonstationaryAccessors) {
  const ScenarioSpec spec = ScenarioSpec::parse(R"(
    name = stepper
    hops = 1
    hop.0.capacity_mbps = 10
    hop.0.traffic.model = ramp
    hop.0.traffic.utilization = 0.3
    hop.0.traffic.end_utilization = 0.75
    hop.0.traffic.ramp_start_s = 15
    hop.0.traffic.ramp_end_s = 15
  )");
  EXPECT_TRUE(spec.nonstationary());
  EXPECT_DOUBLE_EQ(spec.avail_bw().mbits_per_sec(), 7.0);
  EXPECT_DOUBLE_EQ(spec.final_avail_bw().mbits_per_sec(), 2.5);
  EXPECT_FALSE(ScenarioSpec::parse(kCustomSpec).nonstationary());
}

}  // namespace
}  // namespace pathload::scenario
