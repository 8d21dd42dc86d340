// Declarative scenario specifications.
//
// A ScenarioSpec describes a complete measurement scenario — an N-hop path
// of heterogeneous links, each with its own cross-traffic model, plus the
// warmup and seed that make a run reproducible — without constructing any
// simulation state. Specs come from three places:
//
//  * C++ builders (ScenarioSpec::from_paper, or filling the structs
//    directly), used by the registry's named presets and the benches;
//  * the key=value text format parsed by ScenarioSpec::parse (see
//    docs/SCENARIOS.md for the reference and worked examples);
//  * transforms of an existing spec (with_load for sweeps).
//
// ScenarioInstance turns a validated spec into a live testbed: Simulator +
// Path + per-hop traffic generators, ready for a SimProbeChannel. It is the
// only place a scenario is built: specs from the paper parameterization
// (PaperPathConfig) are expanded into their hop list by from_paper and then
// built like any other spec.
//
// Units in specs follow the text format: capacities in Mb/s, delays and
// buffer drain times in milliseconds, burst sizes in kilobytes, timestamps
// in seconds; utilizations and Pareto shapes are dimensionless.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "scenario/paper_path.hpp"
#include "sim/path.hpp"
#include "sim/simulator.hpp"
#include "sim/traffic.hpp"

#include "sim/flow.hpp"

namespace pathload::scenario {

/// A spec failed to parse or validate. The message always names the
/// offending line (when parsing) or hop/field, what was expected, and what
/// was found.
class SpecError : public std::runtime_error {
 public:
  explicit SpecError(const std::string& what) : std::runtime_error{what} {}
};

/// Which generator family loads a hop. kNone disables cross traffic on the
/// hop (the hop still serializes transit packets).
enum class TrafficModel {
  kNone,
  kPoisson,   ///< sim::Interarrival::kExponential renewal arrivals
  kPareto,    ///< sim::Interarrival::kPareto, shape `pareto_alpha`
  kConstant,  ///< CBR (deterministic interarrivals)
  kOnOff,     ///< sim::OnOffSource — exponential ON/OFF, Pareto burst sizes
  kRamp,      ///< sim::RampLoadSource — non-stationary ramp/step load
};

/// Round-trippable name of a traffic model ("poisson", "onoff", ...).
std::string_view to_string(TrafficModel m);

/// Determinism-contract version a spec runs under (the `engine` directive;
/// docs/ENGINE.md).
///
///  * kV1 — the original packet engine: mt19937-64 draws, std::pow inverse
///    CDFs, every cross-traffic packet simulated. Bit-compatible with every
///    golden anchor captured since PR 1.
///  * kV2 — the hybrid fluid/packet engine: cross traffic as fluid rate
///    segments (sim/fluid_traffic.hpp) over Link's fluid mode, CounterRng
///    draws, exp2/log2 inverse CDFs. Probe streams, TCP flows, and the
///    UtilizationMonitor stay packet-accurate. Its RNG and floating-point
///    sequences are free to change relative to v1; v2 has its own anchors.
enum class EngineVersion {
  kV1,
  kV2,
};

/// Round-trippable name of an engine version ("v1", "v2").
std::string_view to_string(EngineVersion v);

/// Cross-traffic declaration for one hop. Only the fields relevant to
/// `model` are consulted; validation flags nonsense combinations.
struct TrafficSpec {
  TrafficModel model{TrafficModel::kNone};

  /// Long-run offered load as a fraction of the hop capacity, in [0, 1).
  /// For kRamp this is the load *before* the ramp.
  double utilization{0.0};

  /// Independent sources sharing the hop's aggregate rate (statistical
  /// multiplexing degree, Section VI-B). Renewal models default to the
  /// paper's 10; on/off and ramp sources default to 1 (a single bursty or
  /// ramping aggregate is the interesting case).
  int sources{10};

  /// Pareto interarrival shape (kPareto only; must be > 1).
  double pareto_alpha{1.9};

  /// kOnOff: burst emission rate as a fraction of hop capacity, in
  /// (utilization, 1]; the ratio utilization/peak_utilization is the duty
  /// cycle.
  double peak_utilization{0.95};
  /// kOnOff: mean Pareto burst size, kilobytes.
  double mean_burst_kb{30.0};
  /// kOnOff: Pareto shape of burst sizes (must be > 1).
  double burst_alpha{1.5};

  /// kRamp: load after the ramp, in [0, 1) (may be below `utilization` for
  /// a downward step). Rates at both ends must be positive.
  double end_utilization{0.0};
  /// kRamp: ramp window, seconds after traffic start. Equal values make an
  /// instantaneous step.
  double ramp_start_s{0.0};
  double ramp_end_s{0.0};
  /// kRamp: optional return window making the profile a *wave*: after
  /// holding end_utilization the load ramps back to `utilization` over
  /// [ramp_back_start_s, ramp_back_end_s]. Both zero (the default)
  /// disables the return segment; when set, the window must not precede
  /// ramp_end_s. Equal values make the return an instantaneous step.
  double ramp_back_start_s{0.0};
  double ramp_back_end_s{0.0};

  /// True when the return segment is configured.
  bool has_ramp_back() const {
    return ramp_back_start_s > 0.0 || ramp_back_end_s > 0.0;
  }

  /// Packet size distribution (all models).
  sim::PacketSizeMix mix{sim::PacketSizeMix::paper_mix()};
};

/// One hop of a scenario path.
struct HopDecl {
  Rate capacity{Rate::mbps(10)};
  Duration delay{Duration::milliseconds(10)};
  /// Buffer expressed as a drain time at capacity: buffer_bytes =
  /// capacity * buffer_drain ("sufficiently buffered", paper Section V-A).
  Duration buffer_drain{Duration::milliseconds(500)};
  TrafficSpec traffic{};
};

/// One responsive TCP cross flow attached to a segment of the path,
/// declared in the text format as a `flow` directive line:
///
///   flow tcp hops=1-2 rwnd=32 start_s=0.5 count=3
///
/// Tokens after the kind are key=value pairs; see docs/SCENARIOS.md for the
/// key table. Unlike the open-loop per-hop traffic models, these flows
/// react to queueing and loss (tcp::SegmentTcpFlow under v1,
/// sim::FluidTcpSource under v2 — see `mode`), so a scenario's
/// effective avail-bw is emergent — `avail_bw()` keeps reporting the
/// open-loop configured value (what the flows compete *for*).
struct FlowSpec {
  /// Hop range [first_hop, last_hop] the flow traverses. kPathEnd in
  /// last_hop means the final hop; the default is the whole path.
  std::size_t first_hop{0};
  std::size_t last_hop{sim::Segment::kPathEnd};

  /// Receiver advertised window in segments; unset = greedy.
  std::optional<double> rwnd{};
  /// Identical parallel flows this entry expands to (each draws its own
  /// flow id and connection state).
  int count{1};

  double start_s{0.0};             ///< first connection, seconds from traffic start
  std::optional<double> stop_s{};  ///< flow end (unset: runs to the end)
  /// Restart variant: both set => a fresh connection every cycle.
  std::optional<double> on_s{};
  std::optional<double> off_s{};

  int mss_bytes{1460};
  double reverse_ms{50.0};  ///< uncongested reverse-path (ACK) delay

  /// Backend selection under engine v2 (ignored — always packet — under
  /// v1). kAuto picks the engine's native backend: the rate-based
  /// sim::FluidTcpSource for v2, tcp::SegmentTcpFlow for v1. kPacket
  /// (`mode=packet`) opts a v2 flow back into the packet-accurate backend,
  /// e.g. when per-segment loss/retransmission behaviour is the point.
  enum class Mode { kAuto, kPacket };
  Mode mode{Mode::kAuto};

  /// Congestion-control policy (`cc=` key): "reno" (default; the
  /// bit-frozen historical policy), "reno-rfc" (RFC 5681-conformant
  /// ssthresh/slow-start), "cubic", or "bbr" (delivery-rate model-based).
  /// Honored by both backends — tcp::TcpConfig::cc for packet flows,
  /// sim::FluidTcpConfig::cc for fluid ones.
  std::string cc{"reno"};

  bool cycles() const { return on_s.has_value() && off_s.has_value(); }
};

/// Stochastic impairments of one hop's link, declared in the text format as
/// an `impair` directive line:
///
///   impair hop=1 loss=0.02 dup=0.01 reorder_ms=2 seed=7
///
/// All knobs are strictly opt-in: a spec without impair lines builds links
/// that never touch an impairment RNG, so pre-impairment scenarios stay
/// bit-identical (the golden-anchor contract). Each impaired link draws
/// from its own stream: `seed` when given, otherwise derived from the
/// scenario seed and the hop index (so per-run seed offsets also reseed the
/// impairments).
struct ImpairSpec {
  std::size_t hop{0};
  /// Random-loss probability, [0, 1).
  double loss{0.0};
  /// Duplication probability, [0, 1).
  double dup{0.0};
  /// Reorder jitter: per-packet extra propagation delay drawn uniformly
  /// from [0, reorder_ms) milliseconds.
  double reorder_ms{0.0};
  /// Explicit impairment-stream seed; unset derives one from the scenario.
  std::optional<std::uint64_t> seed{};

  bool any() const { return loss > 0.0 || dup > 0.0 || reorder_ms > 0.0; }
};

/// A named, self-contained scenario: path shape, per-hop traffic, duration
/// controls, and the default seed. Construct via from_paper/parse or fill
/// the fields and call validate().
struct ScenarioSpec {
  std::string name;
  std::string description;
  std::vector<HopDecl> hops;
  /// Responsive TCP cross flows (segment-scoped), on top of the per-hop
  /// open-loop traffic. Valid with both path forms.
  std::vector<FlowSpec> flows;
  /// Per-hop link impairments (at most one entry per hop). Valid with both
  /// path forms; empty means pristine links.
  std::vector<ImpairSpec> impairments;
  Duration warmup{Duration::seconds(2)};
  std::uint64_t seed{1};
  /// Determinism-contract version (the `engine` directive). Defaults to v1
  /// so every pre-v2 spec, preset, and golden anchor is untouched; to_text
  /// emits the line only for v2, keeping v1 round-trips byte-identical.
  EngineVersion engine{EngineVersion::kV1};

  /// Set when the spec was derived from the paper's Fig. 4 parameterization.
  /// Kept so load sweeps preserve the paper's invariant that the non-tight
  /// capacities track beta * At (with_load re-derives the whole path) and
  /// so to_text emits the paper.* keys. `hops` always holds the expanded
  /// path, and instantiation reads only `hops`.
  std::optional<PaperPathConfig> paper;

  /// Build a spec from the paper's Fig. 4 parameterization: the middle hop
  /// is the tight link, the others get the beta-derived capacity, and the
  /// propagation delay is split evenly. This is the only place that
  /// derivation lives.
  static ScenarioSpec from_paper(std::string name, std::string description,
                                 const PaperPathConfig& cfg);

  /// Parse the key=value text format (docs/SCENARIOS.md). Throws SpecError
  /// with the line number and an actionable message on any problem; the
  /// returned spec is already validated.
  static ScenarioSpec parse(std::string_view text);

  /// Render the spec in the text format parse() accepts (round-trips).
  std::string to_text() const;

  /// Check every invariant (hop count, ranges, model-specific fields).
  /// Throws SpecError naming the hop and field on the first violation.
  void validate() const;

  /// The spec with the tight hop's long-run utilization set to `util`.
  /// Paper-derived specs re-derive the whole path (beta invariant); custom
  /// specs change only the tight hop's traffic.
  ScenarioSpec with_load(double util) const;

  /// Index of the tight hop: minimum capacity * (1 - utilization), using
  /// pre-ramp utilizations.
  std::size_t tight_hop() const;

  /// Configured long-run end-to-end avail-bw, min over hops of
  /// C * (1 - u). For ramp hops this is the pre-ramp value; see
  /// final_avail_bw() for the post-ramp one.
  Rate avail_bw() const;

  /// Avail-bw with every ramp hop at its end_utilization.
  Rate final_avail_bw() const;

  /// True if any hop uses the kRamp model (the scenario is non-stationary).
  bool nonstationary() const;

  /// True when responsive TCP cross flows are declared. Their throughput is
  /// emergent, so avail_bw() is then the open-loop value the flows and the
  /// estimator compete for, not a truth the estimate must match.
  bool has_flows() const { return !flows.empty(); }

  /// True when any hop carries link impairments (loss/dup/reorder).
  bool impaired() const { return !impairments.empty(); }
};

/// Deterministic per-hop impairment seed when an `impair` line has no
/// explicit seed= (splitmix64 over the scenario seed and hop index, so
/// per-run seed offsets reseed the impairment streams independently of the
/// traffic forks).
std::uint64_t derive_impair_seed(std::uint64_t scenario_seed, std::size_t hop);

/// A live, ready-to-measure instantiation of a spec: simulator + path +
/// per-hop traffic. One instance per measurement run keeps runs
/// statistically independent and reproducible by seed.
class ScenarioInstance {
 public:
  /// Validates the spec (throws SpecError) and builds the testbed.
  explicit ScenarioInstance(ScenarioSpec spec);
  ~ScenarioInstance();

  sim::Simulator& simulator() { return sim_; }
  sim::Path& path() { return *path_; }
  const ScenarioSpec& spec() const { return spec_; }

  std::size_t tight_index() const { return tight_index_; }
  sim::Link& tight_link() { return path_->link(tight_index_); }
  Rate configured_avail_bw() const { return spec_.avail_bw(); }

  /// The live responsive cross flows, one per expanded `flow` entry
  /// (count=N entries expand to N), in declaration order. Held behind the
  /// sim::ResponsiveFlow seam: packet-accurate tcp::SegmentTcpFlow under
  /// v1 (and `mode=packet`), rate-based sim::FluidTcpSource under v2.
  const std::vector<std::unique_ptr<sim::ResponsiveFlow>>& flows() const {
    return flows_;
  }
  /// Payload acknowledged by every flow so far, restarts included.
  DataSize flow_bytes_acked() const;

  /// Launch the declared flows, start cross traffic, and run the warmup
  /// period (flows whose start_s falls inside the warmup begin during it).
  void start();

 private:
  /// Engine-v1 traffic: packet generators on an Rng fork() chain.
  void build_v1_traffic();
  /// Engine-v2 traffic: every link in fluid mode, cross traffic from
  /// sim/fluid_traffic.hpp with CounterRng streams keyed (seed, hop, source).
  void build_v2_traffic();

  ScenarioSpec spec_;
  // The Simulator must outlive every TimerHandle owner, hence member order —
  // flows_ last so its timers and connections die first.
  sim::Simulator sim_;
  std::unique_ptr<sim::Path> path_;
  std::vector<std::unique_ptr<sim::TrafficGen>> traffic_;
  std::vector<std::unique_ptr<sim::ResponsiveFlow>> flows_;
  std::size_t tight_index_{0};
};

}  // namespace pathload::scenario
