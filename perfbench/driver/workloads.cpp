#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <exception>
#include <optional>

#include "baselines/estimators.hpp"
#include "core/estimator.hpp"
#include "scenario/experiment.hpp"
#include "scenario/fuzz.hpp"
#include "scenario/registry.hpp"
#include "scenario/sim_channel.hpp"
#include "scenario/spec.hpp"

namespace perfbench {

using namespace pathload;

namespace {

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// run_guarded turns a stray exception or channel fault into a `failed`
/// report with one of these note prefixes; for the benchmark it is a
/// failed op.
std::string crash_note(const core::EstimateReport& r) {
  if (r.outcome == core::EstimateReport::Outcome::kFailed &&
      (starts_with(r.outcome_note, "error:") ||
       starts_with(r.outcome_note, "channel fault:"))) {
    return r.estimator + ": " + r.outcome_note;
  }
  return {};
}

/// The fields the per-op digest covers.
void fold_report(Digest& d, const core::EstimateReport& r) {
  d.add_f64(r.low.bits_per_sec());
  d.add_f64(r.high.bits_per_sec());
  d.add_u64(static_cast<std::uint64_t>(r.outcome));
  d.add_u64(static_cast<std::uint64_t>(r.packets_sent));
  d.add_u64(static_cast<std::uint64_t>(r.elapsed.nanos()));
}

/// Every field of a report, for the decorator identity check.
std::uint64_t full_report_hash(const core::EstimateReport& r) {
  Digest d;
  fold_report(d, r);
  d.add_str(r.estimator);
  d.add_str(r.outcome_note);
  d.add_u64(r.valid ? 1 : 0);
  d.add_u64(static_cast<std::uint64_t>(r.packets_lost));
  d.add_u64(static_cast<std::uint64_t>(r.streams_sent));
  d.add_u64(static_cast<std::uint64_t>(r.bytes_sent.byte_count()));
  d.add_f64(r.capacity.has_value() ? r.capacity->bits_per_sec() : -1.0);
  for (const auto& it : r.iterations) {
    d.add_f64(it.offered_mbps);
    d.add_f64(it.measured_mbps);
    d.add_str(it.note);
  }
  return d.value();
}

std::string identity_mismatch(const std::string& what, const core::EstimateReport& bare,
                              const core::EstimateReport& decorated) {
  if (full_report_hash(bare) == full_report_hash(decorated)) return {};
  return what + ": decorated report differs from scenario::run_estimator_once (" +
         std::to_string(bare.low.bits_per_sec()) + " vs " +
         std::to_string(decorated.low.bits_per_sec()) + " b/s low)";
}

/// Per-op counts a traced op adds to the tracer, from a report.
void count_report(Tracer* tr, const core::EstimateReport& r) {
  if (tr == nullptr || r.estimator != "pathload") return;
  tr->add("core.pathload.runs", 1);
  tr->add("core.pathload.streams", static_cast<double>(r.streams_sent));
  tr->add("core.pathload.fleets", static_cast<double>(r.iterations.size()));
}

std::string capacity_hint(const core::EstimatorRegistry::Entry& entry,
                          const scenario::ScenarioSpec& spec) {
  if (!entry.needs_capacity_hint) return {};
  Rate narrow = spec.hops.front().capacity;
  for (const auto& h : spec.hops) narrow = std::min(narrow, h.capacity);
  return core::kv_config_line("capacity_mbps", narrow.mbits_per_sec());
}

// ---------------------------------------------------------------------------
// Scenario workloads: each op runs a fixed list of estimators, each on a
// fresh ScenarioInstance of one spec, exactly as scenario_runner --compare
// (and scenario::run_estimator_once) does.

struct Tool {
  std::string name;
  std::string overrides;
  std::string span;  ///< "estimator.<name>"
};

struct Config {
  scenario::ScenarioSpec spec;
  std::uint64_t seed_offset{0};
  std::vector<Tool> tools;
};

class ScenarioWorkload final : public Workload {
 public:
  ScenarioWorkload(std::vector<Config> configs, int depth)
      : configs_{std::move(configs)}, depth_{depth} {}

  int configs() const override { return static_cast<int>(configs_.size()); }
  int depth() const override { return depth_; }

  OpOutcome run(const OpInput& in, Tracer* tr) override {
    const Config& c = configs_.at(static_cast<std::size_t>(in.config));
    const std::uint64_t seed = seed_of(in);
    OpOutcome out;
    Digest d;
    for (const Tool& tool : c.tools) {
      const core::EstimateReport r = run_tool(c.spec, seed, tool, tr, d, out.sim_s);
      fold_report(d, r);
      count_report(tr, r);
      if (out.error.empty()) out.error = crash_note(r);
    }
    out.digest = d.value();
    return out;
  }

  std::string check_decorator_identity() override {
    const OpInput in{};
    const Config& c = configs_.front();
    Tracer scratch{0};
    for (const Tool& tool : c.tools) {
      const auto bare_est = reg().make(tool.name, tool.overrides);
      const core::EstimateReport bare =
          scenario::run_estimator_once(c.spec, *bare_est, seed_of(in));
      Digest d;
      double sim_s = 0.0;
      const core::EstimateReport decorated =
          run_tool(c.spec, seed_of(in), tool, &scratch, d, sim_s);
      std::string bad = identity_mismatch(c.spec.name + " " + tool.name, bare, decorated);
      if (!bad.empty()) return bad;
    }
    return {};
  }

 private:
  static const core::EstimatorRegistry& reg() { return baselines::builtin_estimators(); }

  std::uint64_t seed_of(const OpInput& in) const {
    return kPoolBase[in.pool] + configs_.at(static_cast<std::size_t>(in.config)).seed_offset +
           static_cast<std::uint64_t>(in.index);
  }

  /// One estimator run, the body of scenario::run_estimator_once with a
  /// span around each layer call. Folds the Simulator's exact counts into
  /// `d` and its clock into `sim_s`.
  static core::EstimateReport run_tool(const scenario::ScenarioSpec& spec,
                                       std::uint64_t seed, const Tool& tool, Tracer* tr,
                                       Digest& d, double& sim_s) {
    std::unique_ptr<core::Estimator> est;
    {
      Tracer::Scope span{tr, "estimator.make"};
      est = reg().make(tool.name, tool.overrides);
    }
    std::unique_ptr<scenario::ScenarioInstance> inst;
    std::optional<scenario::SimProbeChannel> channel;
    {
      Tracer::Scope span{tr, "scenario.build"};
      scenario::ScenarioSpec seeded = spec;
      seeded.seed = seed;
      inst = std::make_unique<scenario::ScenarioInstance>(std::move(seeded));
    }
    {
      Tracer::Scope span{tr, "scenario.warmup"};
      inst->start();
      channel.emplace(inst->simulator(), inst->path());
    }
    sim::Simulator& sim = inst->simulator();
    if (tr != nullptr) tr->add("sim.warmup_events", static_cast<double>(sim.events_processed()));
    Rng rng{seed};
    core::EstimateReport report;
    if (tr != nullptr) {
      TimingChannel timed{*channel, *tr, &sim};
      Tracer::Scope span{tr, tool.span.c_str()};
      report = core::run_guarded(*est, timed, rng);
    } else {
      report = core::run_guarded(*est, *channel, rng);
    }

    std::uint64_t forwarded = 0, drops = 0, impaired = 0;
    for (std::size_t i = 0; i < inst->path().hop_count(); ++i) {
      const sim::Link& link = inst->path().link(i);
      forwarded += link.packets_forwarded();
      drops += link.drops();
      impaired += link.impaired_drops();
    }
    d.add_u64(sim.events_processed());
    d.add_u64(forwarded);
    sim_s += sim.now().secs();
    if (tr != nullptr) {
      tr->add("sim.events", static_cast<double>(sim.events_processed()));
      tr->add("sim.pkts_forwarded", static_cast<double>(forwarded));
      tr->add("sim.drops", static_cast<double>(drops));
      tr->add("sim.impaired_drops", static_cast<double>(impaired));
    }
    {
      Tracer::Scope span{tr, "scenario.teardown"};
      channel.reset();
      inst.reset();
    }
    return report;
  }

  std::vector<Config> configs_;
  int depth_;
};

std::vector<Tool> tools_for(const scenario::ScenarioSpec& spec,
                            std::initializer_list<const char*> names) {
  const core::EstimatorRegistry& reg = baselines::builtin_estimators();
  std::vector<Tool> tools;
  for (const char* name : names) {
    tools.push_back(Tool{name, capacity_hint(reg.at(name), spec),
                         std::string{"estimator."} + name});
  }
  return tools;
}

std::unique_ptr<Workload> fig05_v1() {
  // The paper's Fig. 5 sweep: both traffic models at four tight-link loads,
  // engine v1, with the figure bench's seed derivation (seed0 + u * 1000).
  const auto& registry = scenario::Registry::builtin();
  std::vector<Config> configs;
  for (const char* preset : {"paper-path-poisson", "paper-path"}) {
    for (const double u : {0.20, 0.50, 0.75, 0.90}) {
      scenario::ScenarioSpec spec = registry.at(preset).with_load(u);
      std::vector<Tool> tools = tools_for(spec, {"pathload"});
      configs.push_back(Config{std::move(spec), static_cast<std::uint64_t>(std::llround(u * 1000)),
                               std::move(tools)});
    }
  }
  return std::make_unique<ScenarioWorkload>(std::move(configs), 4);
}

std::unique_ptr<Workload> v2_compare(std::initializer_list<const char*> presets,
                                     std::initializer_list<const char*> tools, int depth) {
  const auto& registry = scenario::Registry::builtin();
  std::vector<Config> configs;
  for (const char* preset : presets) {
    scenario::ScenarioSpec spec = registry.at(preset);
    spec.engine = scenario::EngineVersion::kV2;
    std::vector<Tool> plan = tools_for(spec, tools);
    configs.push_back(Config{std::move(spec), 0, std::move(plan)});
  }
  return std::make_unique<ScenarioWorkload>(std::move(configs), depth);
}

// ---------------------------------------------------------------------------
// The fuzz workload. fuzz_one builds its own instances, so the driver sees
// the estimator runs through a registry whose entries wrap the builtin ones:
// the wrapper forwards every call, and decorates the channel when tracing.

/// Where the wrapped estimators report during one op.
struct FuzzSink {
  Tracer* tr{nullptr};
  Digest* digest{nullptr};
  double sim_s{0.0};
};

class ObservedEstimator final : public core::Estimator {
 public:
  ObservedEstimator(std::unique_ptr<core::Estimator> inner, FuzzSink& sink, const char* span)
      : inner_{std::move(inner)}, sink_{sink}, span_{span} {}

  std::string_view name() const override { return inner_->name(); }
  std::string config_text() const override { return inner_->config_text(); }
  bool needs_bulk_tcp() const override { return inner_->needs_bulk_tcp(); }
  bool needs_capacity_hint() const override { return inner_->needs_capacity_hint(); }

  core::EstimateReport run(core::ProbeChannel& channel, Rng& rng) override {
    core::EstimateReport r;
    if (sink_.tr != nullptr) {
      TimingChannel timed{channel, *sink_.tr, nullptr};
      Tracer::Scope span{sink_.tr, span_};
      r = inner_->run(timed, rng);
    } else {
      r = inner_->run(channel, rng);
    }
    sink_.sim_s += channel.now().secs();
    if (sink_.digest != nullptr) fold_report(*sink_.digest, r);
    count_report(sink_.tr, r);
    return r;
  }

 private:
  std::unique_ptr<core::Estimator> inner_;
  FuzzSink& sink_;
  const char* span_;  ///< owned by the FuzzWorkload, which outlives every op
};

class FuzzWorkload final : public Workload {
 public:
  FuzzWorkload() {
    opt_.allow_engine_v2 = true;
    for (const auto& e : baselines::builtin_estimators().entries()) {
      span_names_.push_back("estimator." + e.name);
      core::EstimatorRegistry::Entry wrapped = e;
      wrapped.make = [this, make = e.make,
                      span = span_names_.back().c_str()](const core::KvOverrides& kv) {
        std::unique_ptr<core::Estimator> inner = make(kv);
        core::apply_common_overrides(*inner, kv);
        return std::make_unique<ObservedEstimator>(std::move(inner), sink_, span);
      };
      reg_.add(std::move(wrapped));
    }
  }
  FuzzWorkload(const FuzzWorkload&) = delete;
  FuzzWorkload& operator=(const FuzzWorkload&) = delete;

  int configs() const override { return 8; }
  // A small pool keeps a cycle short (~2 s), so a run has a dozen cycles
  // to find an undisturbed one; its 16 cases still cover v1 flows,
  // v1 impairments and a calm spec.
  int depth() const override { return 2; }

  OpOutcome run(const OpInput& in, Tracer* tr) override {
    const std::uint64_t seed = seed_of(in);
    const std::vector<std::string> estimators = scenario::default_fuzz_estimators(reg_, seed);
    Digest d;
    sink_ = FuzzSink{tr, &d, 0.0};
    scenario::FuzzResult result;
    if (tr == nullptr) {
      result = scenario::fuzz_one(reg_, seed, opt_, estimators);
    } else {
      // fuzz_one's own steps, spanned one by one.
      scenario::ScenarioSpec parsed;
      bool roundtrip = false;
      {
        Tracer::Scope span{tr, "scenario.spec"};
        const scenario::ScenarioSpec spec = scenario::generate_scenario(seed, opt_);
        const std::string text = spec.to_text();
        parsed = scenario::ScenarioSpec::parse(text);
        roundtrip = parsed.to_text() == text;
      }
      if (!roundtrip) {
        result.violations.push_back({"roundtrip", "", "to_text -> parse -> to_text differs"});
      } else {
        Tracer::Scope span{tr, "scenario.fuzz_check"};
        result = scenario::fuzz_check(reg_, parsed, seed, opt_, estimators);
      }
    }
    const double estimator_sim_s = sink_.sim_s;
    sink_ = FuzzSink{};

    OpOutcome out;
    d.add_str(result.spec_text);
    d.add_u64(result.violations.size());
    out.digest = d.value();
    // fuzz_check samples the monitor bracket on its own instance of calm
    // specs: warmup, then monitor_span.
    out.sim_s = estimator_sim_s +
                (result.calm ? (result.spec.warmup + opt_.monitor_span).secs() : 0.0);
    if (!result.violations.empty()) {
      const auto& v = result.violations.front();
      out.error = "fuzz seed " + std::to_string(seed) + ": " + v.invariant + " " +
                  v.estimator + " " + v.detail;
    }
    return out;
  }

  std::string check_decorator_identity() override {
    const std::uint64_t seed = seed_of(OpInput{});
    const scenario::ScenarioSpec spec =
        scenario::ScenarioSpec::parse(scenario::generate_scenario(seed, opt_).to_text());
    Tracer scratch{0};
    for (const std::string& name : scenario::default_fuzz_estimators(reg_, seed)) {
      const std::string overrides = capacity_hint(reg_.at(name), spec) +
                                    core::kv_config_line("deadline_s", opt_.deadline_s);
      const auto bare_est = baselines::builtin_estimators().make(name, overrides);
      const core::EstimateReport bare = scenario::run_estimator_once(spec, *bare_est, spec.seed);
      const auto wrapped = reg_.make(name, overrides);
      sink_ = FuzzSink{&scratch, nullptr, 0.0};
      const core::EstimateReport decorated = scenario::run_estimator_once(spec, *wrapped, spec.seed);
      sink_ = FuzzSink{};
      std::string bad = identity_mismatch("fuzz " + name, bare, decorated);
      if (!bad.empty()) return bad;
    }
    return {};
  }

 private:
  std::uint64_t seed_of(const OpInput& in) const {
    return scenario::fuzz_case_seed(kPoolBase[in.pool], in.config + configs() * in.index);
  }

  scenario::FuzzOptions opt_;
  FuzzSink sink_;
  std::deque<std::string> span_names_;  ///< stable: spans keep the pointers
  core::EstimatorRegistry reg_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(std::string_view name) {
  if (name == "fig05-v1") return fig05_v1();
  if (name == "probe-v2") {
    return v2_compare({"paper-path", "hetero-5hop", "tight-ladder-8hop", "bursty-tight",
                       "load-step", "tcp-vs-probe-duel", "lossy-tight", "flaky-path"},
                      {"pathload", "cprobe", "pktpair", "topp", "delphi", "spruce", "igi",
                       "pathchirp"},
                      8);
  }
  if (name == "bulk-v2") {
    return v2_compare({"paper-path", "tcp-bg-greedy", "tcp-bg-rwnd-capped",
                       "tcp-vs-probe-duel", "bbr-vs-probe-duel", "btc-path"},
                      {"btc", "delivery-rate"}, 4);
  }
  if (name == "fuzz-mixed") return std::make_unique<FuzzWorkload>();
  return nullptr;
}

double tail_percentile(std::string_view name) {
  if (name == "probe-v2") return 99.0;
  return 90.0;
}

std::string check_engine_anchors() {
  // Values from tests/integration/engine_determinism_test.cpp and
  // engine_v2_test.cpp.
  core::PathloadConfig tool;
  scenario::PaperPathConfig v1;
  v1.seed = 77;
  const core::PathloadResult a = scenario::run_pathload_once(v1, tool, 77);
  if (a.range.low.bits_per_sec() != 3397806.7157649733 ||
      a.range.high.bits_per_sec() != 3964114.850317501 || a.fleets != 4 ||
      a.elapsed.nanos() != 25971036628) {
    return "engine v1 seed-77 anchor moved";
  }
  scenario::ScenarioSpec spec = scenario::Registry::builtin().at("paper-path");
  spec.engine = scenario::EngineVersion::kV2;
  const core::PathloadResult b = scenario::run_scenario_once(spec, tool, 77);
  if (b.range.low.bits_per_sec() != 3524446.4416307611 ||
      b.range.high.bits_per_sec() != 4111863.2394286562 || b.fleets != 4 ||
      b.elapsed.nanos() != 24983809069) {
    return "engine v2 seed-77 anchor moved";
  }
  return {};
}

}  // namespace perfbench
