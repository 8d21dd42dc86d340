#include "scenario/spec.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <sstream>

#include "sim/fluid_traffic.hpp"
#include "tcp/workload.hpp"
#include "util/counter_rng.hpp"

namespace pathload::scenario {

namespace {

std::string trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string{s.substr(b, e - b)};
}

/// One `key = value` line of a spec, with its 1-based source line for
/// error messages.
struct KvLine {
  int no;
  std::string key;
  std::string value;
};

[[noreturn]] void fail(const KvLine& l, const std::string& what) {
  throw SpecError{"line " + std::to_string(l.no) + ": " + l.key + ": " + what};
}

double parse_num(const KvLine& l) {
  char* end = nullptr;
  const double v = std::strtod(l.value.c_str(), &end);
  if (end == l.value.c_str() || *end != '\0') {
    fail(l, "expected a number, got '" + l.value + "'");
  }
  return v;
}

int parse_int(const KvLine& l) {
  const double v = parse_num(l);
  const int i = static_cast<int>(v);
  if (static_cast<double>(i) != v) {
    fail(l, "expected an integer, got '" + l.value + "'");
  }
  return i;
}

std::uint64_t parse_u64(const KvLine& l) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(l.value.c_str(), &end, 10);
  // strtoull silently wraps a leading '-'; reject it explicitly so the
  // error message tells the truth.
  if (l.value.empty() || l.value[0] == '-' || end == l.value.c_str() ||
      *end != '\0') {
    fail(l, "expected a non-negative integer, got '" + l.value + "'");
  }
  return v;
}

TrafficModel parse_model(const KvLine& l) {
  if (l.value == "none") return TrafficModel::kNone;
  if (l.value == "poisson") return TrafficModel::kPoisson;
  if (l.value == "pareto") return TrafficModel::kPareto;
  if (l.value == "constant") return TrafficModel::kConstant;
  if (l.value == "onoff") return TrafficModel::kOnOff;
  if (l.value == "ramp") return TrafficModel::kRamp;
  fail(l, "unknown traffic model '" + l.value +
              "' (expected none|poisson|pareto|constant|onoff|ramp)");
}

sim::Interarrival renewal_of(TrafficModel m) {
  switch (m) {
    case TrafficModel::kPoisson: return sim::Interarrival::kExponential;
    case TrafficModel::kPareto: return sim::Interarrival::kPareto;
    case TrafficModel::kConstant: return sim::Interarrival::kConstant;
    default: throw std::logic_error{"renewal_of: not a renewal model"};
  }
}

TrafficModel model_of(sim::Interarrival m) {
  switch (m) {
    case sim::Interarrival::kExponential: return TrafficModel::kPoisson;
    case sim::Interarrival::kPareto: return TrafficModel::kPareto;
    case sim::Interarrival::kConstant: return TrafficModel::kConstant;
  }
  return TrafficModel::kPoisson;
}

sim::PacketSizeMix parse_mix(const KvLine& l) {
  if (l.value == "paper") return sim::PacketSizeMix::paper_mix();
  if (l.value.rfind("fixed:", 0) == 0) {
    const KvLine sub{l.no, l.key, l.value.substr(6)};
    const int bytes = parse_int(sub);
    if (bytes <= 0) fail(l, "fixed mix size must be a positive byte count");
    return sim::PacketSizeMix::fixed(bytes);
  }
  fail(l, "unknown mix '" + l.value + "' (expected paper or fixed:<bytes>)");
}

std::string mix_to_text(const sim::PacketSizeMix& mix) {
  if (mix.bins().size() == 1) {
    return "fixed:" + std::to_string(mix.bins().front().size_bytes);
  }
  return "paper";
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

/// Field-level checks of a paper parameterization, shared by from_paper and
/// validate(). Must run before any derived quantity (nontight_capacity) is
/// touched, since ux >= 1 would divide by zero there.
void validate_paper(const PaperPathConfig& cfg) {
  if (cfg.hops < 1) throw SpecError{"paper.hops: need at least one hop"};
  if (cfg.tight_capacity <= Rate::zero()) {
    throw SpecError{"paper.tight_capacity_mbps: must be positive"};
  }
  if (cfg.tight_utilization < 0.0 || cfg.tight_utilization >= 1.0) {
    throw SpecError{"paper.tight_utilization: must be in [0, 1), got " +
                    fmt(cfg.tight_utilization)};
  }
  if (cfg.nontight_utilization < 0.0 || cfg.nontight_utilization >= 1.0) {
    throw SpecError{"paper.nontight_utilization: must be in [0, 1), got " +
                    fmt(cfg.nontight_utilization)};
  }
  if (cfg.beta <= 0.0) {
    throw SpecError{"paper.beta: must be positive, got " + fmt(cfg.beta)};
  }
  if (cfg.model == sim::Interarrival::kPareto && cfg.pareto_alpha <= 1.0) {
    throw SpecError{"paper.pareto_alpha: must be > 1 for a finite mean, got " +
                    fmt(cfg.pareto_alpha)};
  }
  if (cfg.sources_per_link < 1) {
    throw SpecError{"paper.sources_per_link: must be >= 1"};
  }
}

[[noreturn]] void fail_hop(std::size_t hop, const std::string& field,
                           const std::string& what) {
  throw SpecError{"hop " + std::to_string(hop) + ": " + field + ": " + what};
}

void validate_hop(std::size_t i, const HopDecl& h) {
  if (h.capacity <= Rate::zero()) {
    fail_hop(i, "capacity_mbps", "must be positive, got " + fmt(h.capacity.mbits_per_sec()));
  }
  if (h.delay < Duration::zero()) {
    fail_hop(i, "delay_ms", "must not be negative, got " + fmt(h.delay.millis()));
  }
  if (h.buffer_drain <= Duration::zero()) {
    fail_hop(i, "buffer_ms", "must be positive, got " + fmt(h.buffer_drain.millis()));
  }
  const TrafficSpec& t = h.traffic;
  if (t.model == TrafficModel::kNone) return;
  if (t.utilization < 0.0 || t.utilization >= 1.0) {
    fail_hop(i, "traffic.utilization", "must be in [0, 1), got " + fmt(t.utilization));
  }
  if (t.sources < 1) {
    fail_hop(i, "traffic.sources", "must be >= 1, got " + std::to_string(t.sources));
  }
  if (t.mix.mean_bytes() <= 0.0) {
    fail_hop(i, "traffic.mix", "mean packet size must be positive");
  }
  switch (t.model) {
    case TrafficModel::kPoisson:
    case TrafficModel::kConstant:
      break;
    case TrafficModel::kPareto:
      if (t.pareto_alpha <= 1.0) {
        fail_hop(i, "traffic.pareto_alpha",
                 "must be > 1 for a finite mean, got " + fmt(t.pareto_alpha));
      }
      break;
    case TrafficModel::kOnOff:
      if (t.utilization <= 0.0) {
        fail_hop(i, "traffic.utilization",
                 "onoff traffic needs a positive mean load (or set model = none)");
      }
      if (t.peak_utilization <= t.utilization || t.peak_utilization > 1.0) {
        fail_hop(i, "traffic.peak_utilization",
                 "must be in (utilization, 1]: bursts emit above the mean load "
                 "but not above the hop capacity; got " + fmt(t.peak_utilization) +
                 " with utilization " + fmt(t.utilization));
      }
      if (DataSize::kilobytes(t.mean_burst_kb).byte_count() <= 0) {
        fail_hop(i, "traffic.mean_burst_kb",
                 "must be at least one byte (0.001), got " + fmt(t.mean_burst_kb));
      }
      if (t.burst_alpha <= 1.0) {
        fail_hop(i, "traffic.burst_alpha",
                 "must be > 1 for a finite mean burst, got " + fmt(t.burst_alpha));
      }
      break;
    case TrafficModel::kRamp:
      if (t.utilization <= 0.0) {
        fail_hop(i, "traffic.utilization",
                 "ramp traffic needs a positive pre-ramp load (the arrival "
                 "process cannot restart from rate zero)");
      }
      if (t.end_utilization <= 0.0 || t.end_utilization >= 1.0) {
        fail_hop(i, "traffic.end_utilization",
                 "must be in (0, 1), got " + fmt(t.end_utilization));
      }
      if (t.ramp_start_s < 0.0) {
        fail_hop(i, "traffic.ramp_start_s", "must not be negative, got " + fmt(t.ramp_start_s));
      }
      if (t.ramp_end_s < t.ramp_start_s) {
        fail_hop(i, "traffic.ramp_end_s",
                 "must not precede ramp_start_s (" + fmt(t.ramp_start_s) +
                 "), got " + fmt(t.ramp_end_s));
      }
      if (t.has_ramp_back()) {
        if (t.ramp_back_start_s < t.ramp_end_s) {
          fail_hop(i, "traffic.ramp_back_start_s",
                   "the return segment must not precede ramp_end_s (" +
                   fmt(t.ramp_end_s) + "), got " + fmt(t.ramp_back_start_s));
        }
        if (t.ramp_back_end_s < t.ramp_back_start_s) {
          fail_hop(i, "traffic.ramp_back_end_s",
                   "must not precede ramp_back_start_s (" +
                   fmt(t.ramp_back_start_s) + "), got " + fmt(t.ramp_back_end_s));
        }
      }
      break;
    case TrafficModel::kNone:
      break;
  }
}

/// Long-run pre-ramp utilization of a hop (0 when traffic is disabled).
double initial_util(const HopDecl& h) {
  return h.traffic.model == TrafficModel::kNone ? 0.0 : h.traffic.utilization;
}

[[noreturn]] void fail_flow_line(int no, const std::string& what) {
  throw SpecError{"line " + std::to_string(no) + ": flow: " + what};
}

/// Parse the `i` or `i-j` value of a flow's hops= key.
void parse_flow_hops(int no, const std::string& value, FlowSpec& flow) {
  auto parse_index = [&](const std::string& s) -> std::size_t {
    char* end = nullptr;
    errno = 0;
    const unsigned long v = std::strtoul(s.c_str(), &end, 10);
    // The overflow check matters: strtoul clamps to ULONG_MAX, which would
    // otherwise alias Segment::kPathEnd and validate as "whole path".
    if (s.empty() || s[0] == '-' || end == s.c_str() || *end != '\0' ||
        errno == ERANGE || v > 64) {
      fail_flow_line(no, "hops expects <hop> or <first>-<last> with "
                         "hop indices in [0, 64], got '" + value + "'");
    }
    return static_cast<std::size_t>(v);
  };
  const auto dash = value.find('-');
  if (dash == std::string::npos) {
    flow.first_hop = flow.last_hop = parse_index(value);
  } else {
    flow.first_hop = parse_index(value.substr(0, dash));
    flow.last_hop = parse_index(value.substr(dash + 1));
  }
}

/// Parse one `flow <kind> key=value ...` directive body (everything after
/// the `flow` token). Field-level range checks live in validate_flow so
/// C++-built specs get the same diagnostics.
FlowSpec parse_flow_line(int no, const std::string& body) {
  std::istringstream in{body};
  std::string tok;
  if (!(in >> tok)) {
    fail_flow_line(no, "expected 'flow <kind> key=value ...' (kinds: tcp)");
  }
  if (tok != "tcp") {
    fail_flow_line(no, "unknown flow kind '" + tok + "' (expected tcp)");
  }
  FlowSpec flow;
  std::set<std::string> seen;
  while (in >> tok) {
    const auto eq = tok.find('=');
    if (eq == std::string::npos || eq == 0) {
      fail_flow_line(no, "expected key=value, got '" + tok + "'");
    }
    const std::string key = tok.substr(0, eq);
    const std::string value = tok.substr(eq + 1);
    if (!seen.insert(key).second) {
      fail_flow_line(no, "duplicate key '" + key + "'");
    }
    const KvLine kv{no, "flow " + key, value};
    if (key == "hops") {
      parse_flow_hops(no, value, flow);
    } else if (key == "rwnd") {
      flow.rwnd = parse_num(kv);
    } else if (key == "count") {
      flow.count = parse_int(kv);
    } else if (key == "start_s") {
      flow.start_s = parse_num(kv);
    } else if (key == "stop_s") {
      flow.stop_s = parse_num(kv);
    } else if (key == "on_s") {
      flow.on_s = parse_num(kv);
    } else if (key == "off_s") {
      flow.off_s = parse_num(kv);
    } else if (key == "mss") {
      flow.mss_bytes = parse_int(kv);
    } else if (key == "reverse_ms") {
      flow.reverse_ms = parse_num(kv);
    } else if (key == "mode") {
      if (value == "auto") {
        flow.mode = FlowSpec::Mode::kAuto;
      } else if (value == "packet") {
        flow.mode = FlowSpec::Mode::kPacket;
      } else {
        fail_flow_line(no, "unknown mode '" + value +
                               "' (expected auto or packet; auto picks the "
                               "engine's native flow backend)");
      }
    } else if (key == "cc") {
      if (value == "reno" || value == "reno-rfc" || value == "cubic" ||
          value == "bbr") {
        flow.cc = value;
      } else {
        fail_flow_line(no, "unknown cc '" + value +
                               "' (expected reno, reno-rfc, cubic, or bbr)");
      }
    } else {
      fail_flow_line(no, "unknown key '" + key +
                             "' (expected hops, rwnd, count, start_s, stop_s, "
                             "on_s, off_s, mss, reverse_ms, mode, cc)");
    }
  }
  return flow;
}

[[noreturn]] void fail_flow(std::size_t flow, const std::string& field,
                            const std::string& what) {
  throw SpecError{"flow " + std::to_string(flow) + ": " + field + ": " + what};
}

void validate_flow(std::size_t i, const FlowSpec& f, std::size_t hop_count) {
  const std::size_t last =
      f.last_hop == sim::Segment::kPathEnd ? hop_count - 1 : f.last_hop;
  if (f.first_hop > last || last >= hop_count) {
    fail_flow(i, "hops",
              "segment " + std::to_string(f.first_hop) + "-" +
                  std::to_string(last) + " does not fit the path (hops 0-" +
                  std::to_string(hop_count - 1) +
                  ", first must not exceed last)");
  }
  if (f.rwnd.has_value() && *f.rwnd < 1.0) {
    fail_flow(i, "rwnd",
              "must be at least 1 segment (drop the key for a greedy flow), "
              "got " + fmt(*f.rwnd));
  }
  if (f.count < 1 || f.count > 64) {
    fail_flow(i, "count", "must be in [1, 64], got " + std::to_string(f.count));
  }
  if (f.start_s < 0.0) {
    fail_flow(i, "start_s", "must not be negative, got " + fmt(f.start_s));
  }
  if (f.stop_s.has_value() && *f.stop_s <= f.start_s) {
    fail_flow(i, "stop_s", "must come after start_s (" + fmt(f.start_s) +
                               "), got " + fmt(*f.stop_s));
  }
  if (f.on_s.has_value() != f.off_s.has_value()) {
    fail_flow(i, f.on_s.has_value() ? "off_s" : "on_s",
              "on_s and off_s must be set together (the on/off restart "
              "variant needs both; drop both for a long-lived flow)");
  }
  if (f.on_s.has_value() && *f.on_s <= 0.0) {
    fail_flow(i, "on_s", "must be positive, got " + fmt(*f.on_s));
  }
  if (f.off_s.has_value() && *f.off_s <= 0.0) {
    fail_flow(i, "off_s", "must be positive, got " + fmt(*f.off_s));
  }
  if (f.mss_bytes <= 0) {
    fail_flow(i, "mss",
              "must be a positive byte count, got " + std::to_string(f.mss_bytes));
  }
  if (f.reverse_ms < 0.0) {
    fail_flow(i, "reverse_ms", "must not be negative, got " + fmt(f.reverse_ms));
  }
  if (f.cc != "reno" && f.cc != "reno-rfc" && f.cc != "cubic" && f.cc != "bbr") {
    fail_flow(i, "cc", "unknown policy '" + f.cc +
                           "' (expected reno, reno-rfc, cubic, or bbr)");
  }
}

/// Render one flow entry as the directive line parse_flow_line accepts;
/// defaults are omitted so presets stay terse, and the hop range is printed
/// resolved so a rendered spec is self-describing.
std::string flow_to_text(const FlowSpec& f, std::size_t hop_count) {
  const std::size_t last =
      f.last_hop == sim::Segment::kPathEnd ? hop_count - 1 : f.last_hop;
  std::string out = "flow tcp hops=" + std::to_string(f.first_hop) + "-" +
                    std::to_string(last);
  if (f.rwnd.has_value()) out += " rwnd=" + fmt(*f.rwnd);
  if (f.count != 1) out += " count=" + std::to_string(f.count);
  if (f.start_s != 0.0) out += " start_s=" + fmt(f.start_s);
  if (f.stop_s.has_value()) out += " stop_s=" + fmt(*f.stop_s);
  if (f.on_s.has_value()) out += " on_s=" + fmt(*f.on_s);
  if (f.off_s.has_value()) out += " off_s=" + fmt(*f.off_s);
  if (f.mss_bytes != 1460) out += " mss=" + std::to_string(f.mss_bytes);
  if (f.reverse_ms != 50.0) out += " reverse_ms=" + fmt(f.reverse_ms);
  if (f.mode == FlowSpec::Mode::kPacket) out += " mode=packet";
  if (f.cc != "reno") out += " cc=" + f.cc;
  out += "\n";
  return out;
}

[[noreturn]] void fail_impair_line(int no, const std::string& what) {
  throw SpecError{"line " + std::to_string(no) + ": impair: " + what};
}

/// Parse one `impair key=value ...` directive body (everything after the
/// `impair` token). Range checks live in validate_impair so C++-built specs
/// get the same diagnostics.
ImpairSpec parse_impair_line(int no, const std::string& body) {
  std::istringstream in{body};
  std::string tok;
  ImpairSpec imp;
  bool hop_set = false;
  std::set<std::string> seen;
  while (in >> tok) {
    const auto eq = tok.find('=');
    if (eq == std::string::npos || eq == 0) {
      fail_impair_line(no, "expected key=value, got '" + tok + "'");
    }
    const std::string key = tok.substr(0, eq);
    const std::string value = tok.substr(eq + 1);
    if (!seen.insert(key).second) {
      fail_impair_line(no, "duplicate key '" + key + "'");
    }
    const KvLine kv{no, "impair " + key, value};
    if (key == "hop") {
      const int idx = parse_int(kv);
      if (idx < 0 || idx > 64) {
        fail_impair_line(no, "hop index must be in [0, 64], got '" + value + "'");
      }
      imp.hop = static_cast<std::size_t>(idx);
      hop_set = true;
    } else if (key == "loss") {
      imp.loss = parse_num(kv);
    } else if (key == "dup") {
      imp.dup = parse_num(kv);
    } else if (key == "reorder_ms") {
      imp.reorder_ms = parse_num(kv);
    } else if (key == "seed") {
      imp.seed = parse_u64(kv);
    } else {
      fail_impair_line(no, "unknown key '" + key +
                               "' (expected hop, loss, dup, reorder_ms, seed)");
    }
  }
  if (!hop_set) {
    fail_impair_line(no, "hop= is required (which hop's link to impair)");
  }
  return imp;
}

[[noreturn]] void fail_impair(std::size_t entry, const std::string& field,
                              const std::string& what) {
  throw SpecError{"impair " + std::to_string(entry) + ": " + field + ": " + what};
}

void validate_impair(std::size_t i, const ImpairSpec& imp, std::size_t hop_count) {
  if (imp.hop >= hop_count) {
    fail_impair(i, "hop",
                "hop index " + std::to_string(imp.hop) +
                    " does not fit the path (hops 0-" +
                    std::to_string(hop_count - 1) + ")");
  }
  if (imp.loss < 0.0 || imp.loss >= 1.0) {
    fail_impair(i, "loss", "must be in [0, 1), got " + fmt(imp.loss));
  }
  if (imp.dup < 0.0 || imp.dup >= 1.0) {
    fail_impair(i, "dup", "must be in [0, 1), got " + fmt(imp.dup));
  }
  if (imp.reorder_ms < 0.0) {
    fail_impair(i, "reorder_ms", "must not be negative, got " + fmt(imp.reorder_ms));
  }
  if (!imp.any()) {
    fail_impair(i, "loss",
                "impair line enables nothing; set at least one of loss, dup, "
                "reorder_ms (or drop the line)");
  }
}

/// Render one impairment as the directive line parse_impair_line accepts;
/// zero knobs are omitted so presets stay terse.
std::string impair_to_text(const ImpairSpec& imp) {
  std::string out = "impair hop=" + std::to_string(imp.hop);
  if (imp.loss != 0.0) out += " loss=" + fmt(imp.loss);
  if (imp.dup != 0.0) out += " dup=" + fmt(imp.dup);
  if (imp.reorder_ms != 0.0) out += " reorder_ms=" + fmt(imp.reorder_ms);
  if (imp.seed.has_value()) out += " seed=" + std::to_string(*imp.seed);
  out += "\n";
  return out;
}

}  // namespace

std::uint64_t derive_impair_seed(std::uint64_t scenario_seed, std::size_t hop) {
  // splitmix64 over (seed, hop): decorrelated from the scenario's traffic
  // forks (mt19937_64 draws), stable under changes to the rest of the spec.
  std::uint64_t z = scenario_seed + 0x9e3779b97f4a7c15ULL * (hop + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string_view to_string(EngineVersion v) {
  switch (v) {
    case EngineVersion::kV1: return "v1";
    case EngineVersion::kV2: return "v2";
  }
  return "?";
}

std::string_view to_string(TrafficModel m) {
  switch (m) {
    case TrafficModel::kNone: return "none";
    case TrafficModel::kPoisson: return "poisson";
    case TrafficModel::kPareto: return "pareto";
    case TrafficModel::kConstant: return "constant";
    case TrafficModel::kOnOff: return "onoff";
    case TrafficModel::kRamp: return "ramp";
  }
  return "?";
}

ScenarioSpec ScenarioSpec::from_paper(std::string name, std::string description,
                                      const PaperPathConfig& cfg) {
  validate_paper(cfg);
  ScenarioSpec spec;
  spec.name = std::move(name);
  spec.description = std::move(description);
  spec.warmup = cfg.warmup;
  spec.seed = cfg.seed;
  spec.paper = cfg;

  // The Fig. 4 derivation: the middle hop is tight, every other hop gets
  // Cx = beta * At / (1 - ux), and the propagation delay splits evenly.
  // ScenarioInstance builds exactly this hop list, so these expressions and
  // their order are what the golden anchors pin.
  const std::size_t tight = static_cast<std::size_t>(cfg.hops / 2);
  const Duration per_hop_delay = cfg.total_prop_delay / static_cast<double>(cfg.hops);
  spec.hops.reserve(static_cast<std::size_t>(cfg.hops));
  for (int i = 0; i < cfg.hops; ++i) {
    const bool is_tight = static_cast<std::size_t>(i) == tight;
    HopDecl hop;
    hop.capacity = is_tight ? cfg.tight_capacity : cfg.nontight_capacity();
    hop.delay = per_hop_delay;
    hop.buffer_drain = cfg.buffer_drain;
    hop.traffic.model = model_of(cfg.model);
    hop.traffic.utilization =
        is_tight ? cfg.tight_utilization : cfg.nontight_utilization;
    hop.traffic.sources = cfg.sources_per_link;
    hop.traffic.pareto_alpha = cfg.pareto_alpha;
    hop.traffic.mix = cfg.size_mix;
    spec.hops.push_back(std::move(hop));
  }
  return spec;
}

ScenarioSpec ScenarioSpec::parse(std::string_view text) {
  std::vector<KvLine> lines;
  // `flow` / `impair` directive lines (1-based line number + body after the
  // keyword); unlike keys they may repeat, one line per entry.
  std::vector<std::pair<int, std::string>> flow_lines;
  std::vector<std::pair<int, std::string>> impair_lines;
  std::set<std::string> seen;
  {
    std::istringstream in{std::string{text}};
    std::string raw;
    int no = 0;
    while (std::getline(in, raw)) {
      ++no;
      if (const auto hash = raw.find('#'); hash != std::string::npos) {
        raw.erase(hash);
      }
      const std::string stripped = trim(raw);
      if (stripped.empty()) continue;
      if (stripped.rfind("flow", 0) == 0 &&
          (stripped.size() == 4 ||
           std::isspace(static_cast<unsigned char>(stripped[4])))) {
        flow_lines.emplace_back(no, stripped.substr(4));
        continue;
      }
      if (stripped.rfind("impair", 0) == 0 &&
          (stripped.size() == 6 ||
           std::isspace(static_cast<unsigned char>(stripped[6])))) {
        impair_lines.emplace_back(no, stripped.substr(6));
        continue;
      }
      const auto eq = stripped.find('=');
      if (eq == std::string::npos) {
        throw SpecError{"line " + std::to_string(no) +
                        ": expected 'key = value', got '" + stripped + "'"};
      }
      KvLine l{no, trim(stripped.substr(0, eq)), trim(stripped.substr(eq + 1))};
      if (l.key.empty()) {
        throw SpecError{"line " + std::to_string(no) + ": empty key before '='"};
      }
      if (!seen.insert(l.key).second) {
        throw SpecError{"line " + std::to_string(no) + ": duplicate key '" +
                        l.key + "'"};
      }
      lines.push_back(std::move(l));
    }
  }

  const bool paper_mode = std::any_of(lines.begin(), lines.end(), [](const KvLine& l) {
    return l.key.rfind("paper.", 0) == 0;
  });
  const bool custom_mode = std::any_of(lines.begin(), lines.end(), [](const KvLine& l) {
    return l.key == "hops" || l.key.rfind("hop.", 0) == 0;
  });
  if (paper_mode && custom_mode) {
    throw SpecError{
        "spec mixes paper.* keys with hops/hop.* keys; use one form "
        "(paper.* for the Fig. 4 parameterization, hops/hop.* for a custom path)"};
  }
  if (!paper_mode && !custom_mode) {
    throw SpecError{
        "spec declares no path: set either 'hops = N' plus hop.<i>.* keys, "
        "or paper.* keys (see docs/SCENARIOS.md)"};
  }

  ScenarioSpec spec;
  PaperPathConfig pcfg;

  int hop_count = 0;
  if (custom_mode) {
    const auto hops_line = std::find_if(lines.begin(), lines.end(),
                                        [](const KvLine& l) { return l.key == "hops"; });
    if (hops_line == lines.end()) {
      throw SpecError{"hop.* keys present but 'hops = N' is missing"};
    }
    hop_count = parse_int(*hops_line);
    if (hop_count < 1 || hop_count > 64) {
      fail(*hops_line, "must be in [1, 64], got " + hops_line->value);
    }
    spec.hops.resize(static_cast<std::size_t>(hop_count));
  }
  std::vector<bool> sources_set(static_cast<std::size_t>(std::max(hop_count, 0)));

  for (const KvLine& l : lines) {
    if (l.key == "name") {
      if (l.value.empty()) fail(l, "must not be empty");
      if (l.value.find_first_not_of(
              "abcdefghijklmnopqrstuvwxyz0123456789-_") != std::string::npos) {
        fail(l, "preset names use lowercase letters, digits, '-' and '_'; got '" +
                    l.value + "'");
      }
      spec.name = l.value;
    } else if (l.key == "description") {
      spec.description = l.value;
    } else if (l.key == "engine") {
      if (l.value == "v1") {
        spec.engine = EngineVersion::kV1;
      } else if (l.value == "v2") {
        spec.engine = EngineVersion::kV2;
      } else {
        fail(l, "unknown engine '" + l.value + "' (expected v1 or v2; see "
                "docs/ENGINE.md)");
      }
    } else if (l.key == "seed") {
      spec.seed = parse_u64(l);
    } else if (l.key == "warmup_s") {
      const double s = parse_num(l);
      if (s < 0.0) fail(l, "must not be negative, got " + l.value);
      spec.warmup = Duration::seconds(s);
    } else if (l.key == "hops") {
      // consumed above
    } else if (l.key.rfind("paper.", 0) == 0) {
      const std::string field = l.key.substr(6);
      if (field == "hops") {
        pcfg.hops = parse_int(l);
      } else if (field == "tight_capacity_mbps") {
        pcfg.tight_capacity = Rate::mbps(parse_num(l));
      } else if (field == "tight_utilization") {
        pcfg.tight_utilization = parse_num(l);
      } else if (field == "beta") {
        pcfg.beta = parse_num(l);
      } else if (field == "nontight_utilization") {
        pcfg.nontight_utilization = parse_num(l);
      } else if (field == "traffic") {
        const TrafficModel m = parse_model(l);
        if (m == TrafficModel::kOnOff || m == TrafficModel::kRamp ||
            m == TrafficModel::kNone) {
          fail(l, "the paper parameterization supports poisson|pareto|constant; "
                  "use a custom hop list for onoff/ramp traffic");
        }
        pcfg.model = renewal_of(m);
      } else if (field == "pareto_alpha") {
        pcfg.pareto_alpha = parse_num(l);
      } else if (field == "sources_per_link") {
        pcfg.sources_per_link = parse_int(l);
      } else if (field == "total_prop_delay_ms") {
        pcfg.total_prop_delay = Duration::milliseconds(parse_num(l));
      } else if (field == "buffer_ms") {
        const double ms = parse_num(l);
        if (ms <= 0.0) fail(l, "must be positive, got " + l.value);
        pcfg.buffer_drain = Duration::milliseconds(ms);
      } else {
        fail(l, "unknown paper key (expected hops, tight_capacity_mbps, "
                "tight_utilization, beta, nontight_utilization, traffic, "
                "pareto_alpha, sources_per_link, total_prop_delay_ms, buffer_ms)");
      }
    } else if (l.key.rfind("hop.", 0) == 0) {
      const auto dot = l.key.find('.', 4);
      if (dot == std::string::npos) {
        fail(l, "expected hop.<index>.<field>");
      }
      const KvLine idx_line{l.no, l.key, l.key.substr(4, dot - 4)};
      char* end = nullptr;
      const long idx = std::strtol(idx_line.value.c_str(), &end, 10);
      if (end == idx_line.value.c_str() || *end != '\0' || idx < 0) {
        fail(l, "expected hop.<index>.<field> with a non-negative index");
      }
      if (idx >= hop_count) {
        fail(l, "hop index " + std::to_string(idx) + " out of range (hops = " +
                    std::to_string(hop_count) + ")");
      }
      HopDecl& hop = spec.hops[static_cast<std::size_t>(idx)];
      const std::string field = l.key.substr(dot + 1);
      if (field == "capacity_mbps") {
        hop.capacity = Rate::mbps(parse_num(l));
      } else if (field == "delay_ms") {
        hop.delay = Duration::milliseconds(parse_num(l));
      } else if (field == "buffer_ms") {
        hop.buffer_drain = Duration::milliseconds(parse_num(l));
      } else if (field == "traffic.model") {
        hop.traffic.model = parse_model(l);
        if ((hop.traffic.model == TrafficModel::kOnOff ||
             hop.traffic.model == TrafficModel::kRamp) &&
            !sources_set[static_cast<std::size_t>(idx)]) {
          hop.traffic.sources = 1;
        }
      } else if (field == "traffic.utilization") {
        hop.traffic.utilization = parse_num(l);
      } else if (field == "traffic.sources") {
        hop.traffic.sources = parse_int(l);
        sources_set[static_cast<std::size_t>(idx)] = true;
      } else if (field == "traffic.pareto_alpha") {
        hop.traffic.pareto_alpha = parse_num(l);
      } else if (field == "traffic.peak_utilization") {
        hop.traffic.peak_utilization = parse_num(l);
      } else if (field == "traffic.mean_burst_kb") {
        hop.traffic.mean_burst_kb = parse_num(l);
      } else if (field == "traffic.burst_alpha") {
        hop.traffic.burst_alpha = parse_num(l);
      } else if (field == "traffic.end_utilization") {
        hop.traffic.end_utilization = parse_num(l);
      } else if (field == "traffic.ramp_start_s") {
        hop.traffic.ramp_start_s = parse_num(l);
      } else if (field == "traffic.ramp_end_s") {
        hop.traffic.ramp_end_s = parse_num(l);
      } else if (field == "traffic.ramp_back_start_s") {
        hop.traffic.ramp_back_start_s = parse_num(l);
      } else if (field == "traffic.ramp_back_end_s") {
        hop.traffic.ramp_back_end_s = parse_num(l);
      } else if (field == "traffic.mix") {
        hop.traffic.mix = parse_mix(l);
      } else {
        fail(l, "unknown hop field '" + field +
                "' (expected capacity_mbps, delay_ms, buffer_ms, or traffic.{"
                "model, utilization, sources, pareto_alpha, peak_utilization, "
                "mean_burst_kb, burst_alpha, end_utilization, ramp_start_s, "
                "ramp_end_s, ramp_back_start_s, ramp_back_end_s, mix})");
      }
    } else {
      fail(l, "unknown key (expected name, description, engine, seed, "
              "warmup_s, hops, hop.<i>.*, or paper.*)");
    }
  }

  if (spec.name.empty()) {
    throw SpecError{"spec is missing 'name = <preset-name>'"};
  }

  for (const auto& [no, body] : flow_lines) {
    spec.flows.push_back(parse_flow_line(no, body));
  }
  for (const auto& [no, body] : impair_lines) {
    spec.impairments.push_back(parse_impair_line(no, body));
  }

  if (paper_mode) {
    pcfg.seed = spec.seed;
    pcfg.warmup = spec.warmup;
    ScenarioSpec out = from_paper(spec.name, spec.description, pcfg);
    out.engine = spec.engine;
    out.flows = std::move(spec.flows);
    out.impairments = std::move(spec.impairments);
    out.validate();
    return out;
  }

  // A model without a load is almost certainly a forgotten key; fail with
  // the fix rather than silently generating no traffic.
  for (std::size_t i = 0; i < spec.hops.size(); ++i) {
    const TrafficSpec& t = spec.hops[i].traffic;
    if (t.model != TrafficModel::kNone && t.model != TrafficModel::kOnOff &&
        t.model != TrafficModel::kRamp && t.utilization == 0.0) {
      fail_hop(i, "traffic.utilization",
               "traffic.model = " + std::string{to_string(t.model)} +
                   " but no load is set; set hop." + std::to_string(i) +
                   ".traffic.utilization, or model = none");
    }
  }

  spec.validate();
  return spec;
}

void ScenarioSpec::validate() const {
  if (name.empty()) throw SpecError{"spec is missing a name"};
  // The paper.* checks come first: they guard the derived quantities the
  // expanded hop list was computed from, and name the keys the user wrote.
  if (paper) validate_paper(*paper);
  if (hops.empty()) throw SpecError{"spec has no hops"};
  if (warmup < Duration::zero()) throw SpecError{"warmup_s must not be negative"};
  for (std::size_t i = 0; i < hops.size(); ++i) validate_hop(i, hops[i]);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    validate_flow(i, flows[i], hops.size());
  }
  std::set<std::size_t> impaired_hops;
  for (std::size_t i = 0; i < impairments.size(); ++i) {
    validate_impair(i, impairments[i], hops.size());
    if (!impaired_hops.insert(impairments[i].hop).second) {
      fail_impair(i, "hop",
                  "hop " + std::to_string(impairments[i].hop) +
                      " already has an impair line; merge the knobs into one");
    }
  }
}

std::string ScenarioSpec::to_text() const {
  std::string out;
  out += "name = " + name + "\n";
  if (!description.empty()) out += "description = " + description + "\n";
  // v1 is implicit: emitting the line only for v2 keeps every pre-engine
  // preset text, golden spec file, and shard round-trip byte-identical.
  if (engine == EngineVersion::kV2) out += "engine = v2\n";
  out += "seed = " + std::to_string(seed) + "\n";
  out += "warmup_s = " + fmt(warmup.secs()) + "\n";
  if (paper) {
    const PaperPathConfig& p = *paper;
    out += "paper.hops = " + std::to_string(p.hops) + "\n";
    out += "paper.tight_capacity_mbps = " + fmt(p.tight_capacity.mbits_per_sec()) + "\n";
    out += "paper.tight_utilization = " + fmt(p.tight_utilization) + "\n";
    out += "paper.beta = " + fmt(p.beta) + "\n";
    out += "paper.nontight_utilization = " + fmt(p.nontight_utilization) + "\n";
    out += "paper.traffic = " + std::string{to_string(model_of(p.model))} + "\n";
    out += "paper.pareto_alpha = " + fmt(p.pareto_alpha) + "\n";
    out += "paper.sources_per_link = " + std::to_string(p.sources_per_link) + "\n";
    out += "paper.total_prop_delay_ms = " + fmt(p.total_prop_delay.millis()) + "\n";
    out += "paper.buffer_ms = " + fmt(p.buffer_drain.millis()) + "\n";
    for (const FlowSpec& f : flows) {
      out += flow_to_text(f, static_cast<std::size_t>(p.hops));
    }
    for (const ImpairSpec& imp : impairments) out += impair_to_text(imp);
    return out;
  }
  out += "hops = " + std::to_string(hops.size()) + "\n";
  for (std::size_t i = 0; i < hops.size(); ++i) {
    const HopDecl& h = hops[i];
    const std::string pre = "hop." + std::to_string(i) + ".";
    out += pre + "capacity_mbps = " + fmt(h.capacity.mbits_per_sec()) + "\n";
    out += pre + "delay_ms = " + fmt(h.delay.millis()) + "\n";
    out += pre + "buffer_ms = " + fmt(h.buffer_drain.millis()) + "\n";
    const TrafficSpec& t = h.traffic;
    out += pre + "traffic.model = " + std::string{to_string(t.model)} + "\n";
    if (t.model == TrafficModel::kNone) continue;
    out += pre + "traffic.utilization = " + fmt(t.utilization) + "\n";
    out += pre + "traffic.sources = " + std::to_string(t.sources) + "\n";
    out += pre + "traffic.mix = " + mix_to_text(t.mix) + "\n";
    if (t.model == TrafficModel::kPareto) {
      out += pre + "traffic.pareto_alpha = " + fmt(t.pareto_alpha) + "\n";
    } else if (t.model == TrafficModel::kOnOff) {
      out += pre + "traffic.peak_utilization = " + fmt(t.peak_utilization) + "\n";
      out += pre + "traffic.mean_burst_kb = " + fmt(t.mean_burst_kb) + "\n";
      out += pre + "traffic.burst_alpha = " + fmt(t.burst_alpha) + "\n";
    } else if (t.model == TrafficModel::kRamp) {
      out += pre + "traffic.end_utilization = " + fmt(t.end_utilization) + "\n";
      out += pre + "traffic.ramp_start_s = " + fmt(t.ramp_start_s) + "\n";
      out += pre + "traffic.ramp_end_s = " + fmt(t.ramp_end_s) + "\n";
      if (t.has_ramp_back()) {
        out += pre + "traffic.ramp_back_start_s = " + fmt(t.ramp_back_start_s) + "\n";
        out += pre + "traffic.ramp_back_end_s = " + fmt(t.ramp_back_end_s) + "\n";
      }
    }
  }
  for (const FlowSpec& f : flows) out += flow_to_text(f, hops.size());
  for (const ImpairSpec& imp : impairments) out += impair_to_text(imp);
  return out;
}

ScenarioSpec ScenarioSpec::with_load(double util) const {
  if (util < 0.0 || util >= 1.0) {
    throw SpecError{"with_load: utilization must be in [0, 1), got " + fmt(util)};
  }
  if (paper) {
    PaperPathConfig p = *paper;
    p.tight_utilization = util;
    ScenarioSpec out = from_paper(name, description, p);
    out.engine = engine;
    out.flows = flows;
    out.impairments = impairments;
    out.warmup = warmup;
    out.seed = seed;
    return out;
  }
  ScenarioSpec out = *this;
  const std::size_t tight = tight_hop();
  if (out.hops[tight].traffic.model == TrafficModel::kNone) {
    throw SpecError{"with_load: tight hop " + std::to_string(tight) +
                    " has traffic.model = none; nothing to sweep"};
  }
  out.hops[tight].traffic.utilization = util;
  return out;
}

std::size_t ScenarioSpec::tight_hop() const {
  if (paper) {
    // Fig. 4's convention: the middle hop, regardless of beta ties.
    return static_cast<std::size_t>(paper->hops / 2);
  }
  std::size_t best = 0;
  double best_avail = hops[0].capacity.bits_per_sec() * (1.0 - initial_util(hops[0]));
  for (std::size_t i = 1; i < hops.size(); ++i) {
    const double avail = hops[i].capacity.bits_per_sec() * (1.0 - initial_util(hops[i]));
    if (avail < best_avail) {
      best = i;
      best_avail = avail;
    }
  }
  return best;
}

Rate ScenarioSpec::avail_bw() const {
  // For paper specs use the paper's own formula: bit-for-bit the truth
  // value the figure benches compare coverage against.
  if (paper) return paper->tight_avail_bw();
  const std::size_t tight = tight_hop();
  return hops[tight].capacity * (1.0 - initial_util(hops[tight]));
}

Rate ScenarioSpec::final_avail_bw() const {
  if (paper) return paper->tight_avail_bw();
  Rate best = Rate::mbps(1e12);
  for (const auto& h : hops) {
    // A wave returns to its pre-ramp load; a one-way ramp holds its end
    // load.
    const double u = h.traffic.model == TrafficModel::kRamp &&
                             !h.traffic.has_ramp_back()
                         ? h.traffic.end_utilization
                         : initial_util(h);
    best = std::min(best, h.capacity * (1.0 - u));
  }
  return best;
}

bool ScenarioSpec::nonstationary() const {
  return std::any_of(hops.begin(), hops.end(), [](const HopDecl& h) {
    return h.traffic.model == TrafficModel::kRamp;
  });
}

namespace {

/// Translate a validated FlowSpec into the workload layer's config.
tcp::SegmentFlowConfig flow_config(const FlowSpec& f) {
  tcp::SegmentFlowConfig cfg;
  cfg.segment = sim::Segment{f.first_hop, f.last_hop};
  cfg.tcp.mss_bytes = f.mss_bytes;
  cfg.tcp.cc = f.cc;
  if (f.rwnd.has_value()) cfg.tcp.advertised_window = *f.rwnd;
  cfg.reverse_delay = Duration::milliseconds(f.reverse_ms);
  cfg.start = Duration::seconds(f.start_s);
  if (f.stop_s.has_value()) cfg.stop = Duration::seconds(*f.stop_s);
  if (f.on_s.has_value()) cfg.on_period = Duration::seconds(*f.on_s);
  if (f.off_s.has_value()) cfg.off_period = Duration::seconds(*f.off_s);
  return cfg;
}

/// The same FlowSpec as the fluid backend's config (field-for-field twin
/// of flow_config, so either backend sees the identical shape).
sim::FluidTcpConfig fluid_flow_config(const FlowSpec& f) {
  sim::FluidTcpConfig cfg;
  cfg.segment = sim::Segment{f.first_hop, f.last_hop};
  cfg.mss_bytes = f.mss_bytes;
  cfg.cc = f.cc;
  if (f.rwnd.has_value()) cfg.advertised_window = *f.rwnd;
  cfg.reverse_delay = Duration::milliseconds(f.reverse_ms);
  cfg.start = Duration::seconds(f.start_s);
  if (f.stop_s.has_value()) cfg.stop = Duration::seconds(*f.stop_s);
  if (f.on_s.has_value()) cfg.on_period = Duration::seconds(*f.on_s);
  if (f.off_s.has_value()) cfg.off_period = Duration::seconds(*f.off_s);
  return cfg;
}

}  // namespace

ScenarioInstance::ScenarioInstance(ScenarioSpec spec) : spec_{std::move(spec)} {
  spec_.validate();
  std::vector<sim::HopSpec> hop_specs;
  hop_specs.reserve(spec_.hops.size());
  for (const HopDecl& h : spec_.hops) {
    hop_specs.push_back(
        sim::HopSpec{h.capacity, h.delay, h.capacity.bytes_in(h.buffer_drain)});
  }
  path_ = std::make_unique<sim::Path>(sim_, std::move(hop_specs));
  tight_index_ = spec_.tight_hop();

  const bool v2 = spec_.engine == EngineVersion::kV2;
  if (v2) {
    build_v2_traffic();
  } else {
    build_v1_traffic();
  }

  // Impairments install after the traffic, identically under both engines.
  // Links without an impair entry never get an impairment RNG, so
  // unimpaired specs stay bit-identical to pre-impairment builds.
  for (const ImpairSpec& imp : spec_.impairments) {
    sim::LinkImpairments li;
    li.loss = imp.loss;
    li.dup = imp.dup;
    li.reorder = Duration::milliseconds(imp.reorder_ms);
    li.seed = imp.seed.has_value() ? *imp.seed
                                   : derive_impair_seed(spec_.seed, imp.hop);
    path_->link(imp.hop).set_impairments(li);
  }

  // Expand `flow` entries (count=N becomes N flows). A spec without flows
  // builds no flow state at all, so pre-flow scenarios stay bit-identical.
  for (const FlowSpec& f : spec_.flows) {
    for (int c = 0; c < f.count; ++c) {
      // Under v2 a `flow tcp` entry is natively a fluid rate source (the
      // links run in fluid mode, so a packet-mode flow there pays
      // per-segment events against fluid queues); `mode=packet` opts back
      // into the packet-accurate Reno connection.
      if (v2 && f.mode != FlowSpec::Mode::kPacket) {
        flows_.push_back(std::make_unique<sim::FluidTcpSource>(
            sim_, *path_, fluid_flow_config(f)));
      } else {
        flows_.push_back(std::make_unique<tcp::SegmentTcpFlow>(
            sim_, *path_, flow_config(f)));
      }
    }
  }
}

void ScenarioInstance::build_v1_traffic() {
  // One fork per traffic-carrying hop, in hop order, then per-source forks
  // inside the generator. Hops without traffic consume no randomness, so
  // adding an unloaded hop leaves the other hops' streams untouched.
  Rng rng{spec_.seed};
  for (std::size_t i = 0; i < spec_.hops.size(); ++i) {
    const TrafficSpec& t = spec_.hops[i].traffic;
    sim::Link& link = path_->link(i);
    const Rate mean = link.capacity() * t.utilization;
    switch (t.model) {
      case TrafficModel::kNone:
        traffic_.push_back(nullptr);
        break;
      case TrafficModel::kPoisson:
      case TrafficModel::kPareto:
      case TrafficModel::kConstant: {
        if (mean <= Rate::zero()) {
          traffic_.push_back(nullptr);
          break;
        }
        traffic_.push_back(std::make_unique<sim::TrafficAggregate>(
            sim_, link, mean, t.sources, renewal_of(t.model), t.mix, rng.fork(),
            t.pareto_alpha));
        break;
      }
      case TrafficModel::kOnOff: {
        Rng hop_rng = rng.fork();
        const double n = static_cast<double>(t.sources);
        sim::OnOffParams params;
        params.peak_rate = link.capacity() * t.peak_utilization / n;
        params.mean_burst = DataSize::kilobytes(t.mean_burst_kb);
        params.burst_alpha = t.burst_alpha;
        std::vector<std::unique_ptr<sim::TrafficGen>> members;
        members.reserve(static_cast<std::size_t>(t.sources));
        for (int s = 0; s < t.sources; ++s) {
          members.push_back(std::make_unique<sim::OnOffSource>(
              sim_, link, mean / n, params, t.mix, hop_rng.fork()));
        }
        traffic_.push_back(std::make_unique<sim::GenGroup>(std::move(members)));
        break;
      }
      case TrafficModel::kRamp: {
        Rng hop_rng = rng.fork();
        const double n = static_cast<double>(t.sources);
        sim::RampParams params;
        params.start_rate = mean / n;
        params.end_rate = link.capacity() * t.end_utilization / n;
        params.ramp_start = Duration::seconds(t.ramp_start_s);
        params.ramp_end = Duration::seconds(t.ramp_end_s);
        if (t.has_ramp_back()) {
          // The wave returns to the pre-ramp load.
          params.back_rate = mean / n;
          params.back_start = Duration::seconds(t.ramp_back_start_s);
          params.back_end = Duration::seconds(t.ramp_back_end_s);
        }
        std::vector<std::unique_ptr<sim::TrafficGen>> members;
        members.reserve(static_cast<std::size_t>(t.sources));
        for (int s = 0; s < t.sources; ++s) {
          members.push_back(std::make_unique<sim::RampLoadSource>(
              sim_, link, params, t.mix, hop_rng.fork()));
        }
        traffic_.push_back(std::make_unique<sim::GenGroup>(std::move(members)));
        break;
      }
    }
  }
}

void ScenarioInstance::build_v2_traffic() {
  // Every link runs in fluid mode under v2 — including unloaded ones, so a
  // probe or TCP packet costs one scheduled event per hop instead of two,
  // with packet-on-packet FIFO queueing still exact (Link::accept_fluid).
  for (std::size_t i = 0; i < path_->hop_count(); ++i) {
    path_->link(i).enable_fluid_mode();
  }
  // CounterRng streams are keyed (scenario seed, hop, source), so draws are
  // order-independent: unlike the v1 fork() chain, adding or removing a
  // hop's traffic never perturbs another hop's sequence.
  const auto stream_id = [](std::size_t hop, int source) {
    return (static_cast<std::uint64_t>(hop) << 20) |
           static_cast<std::uint64_t>(source);
  };
  for (std::size_t i = 0; i < spec_.hops.size(); ++i) {
    const TrafficSpec& t = spec_.hops[i].traffic;
    sim::Link& link = path_->link(i);
    const Rate mean = link.capacity() * t.utilization;
    switch (t.model) {
      case TrafficModel::kNone:
        traffic_.push_back(nullptr);
        break;
      case TrafficModel::kPoisson:
      case TrafficModel::kPareto:
      case TrafficModel::kConstant:
        // A renewal process offered at lambda is, in the fluid view,
        // exactly the constant rate lambda = u * C of the paper's Section
        // III-A model (fluid::FluidLink): zero events, zero draws. The
        // sources/pareto_alpha knobs only shape packet-scale burstiness,
        // which fluid service averages out by construction.
        if (mean <= Rate::zero()) {
          traffic_.push_back(nullptr);
        } else {
          traffic_.push_back(
              std::make_unique<sim::FluidConstantSource>(sim_, link, mean));
        }
        break;
      case TrafficModel::kOnOff: {
        // Burst structure survives fluid service (it lives on timescales
        // the workload variable resolves), so each source keeps its own
        // ON/OFF process — as fluid rate segments.
        const double n = static_cast<double>(t.sources);
        sim::OnOffParams params;
        params.peak_rate = link.capacity() * t.peak_utilization / n;
        params.mean_burst = DataSize::kilobytes(t.mean_burst_kb);
        params.burst_alpha = t.burst_alpha;
        std::vector<std::unique_ptr<sim::TrafficGen>> members;
        members.reserve(static_cast<std::size_t>(t.sources));
        for (int s = 0; s < t.sources; ++s) {
          members.push_back(std::make_unique<sim::FluidOnOffSource>(
              sim_, link, mean / n, params,
              CounterRng{spec_.seed, stream_id(i, s)}));
        }
        traffic_.push_back(std::make_unique<sim::GenGroup>(std::move(members)));
        break;
      }
      case TrafficModel::kRamp: {
        // The ramp profile is deterministic in fluid form (v1's randomness
        // only jitters arrivals around it), and rate contributions add, so
        // one source carries the hop's whole aggregate.
        sim::RampParams params;
        params.start_rate = mean;
        params.end_rate = link.capacity() * t.end_utilization;
        params.ramp_start = Duration::seconds(t.ramp_start_s);
        params.ramp_end = Duration::seconds(t.ramp_end_s);
        if (t.has_ramp_back()) {
          params.back_rate = mean;
          params.back_start = Duration::seconds(t.ramp_back_start_s);
          params.back_end = Duration::seconds(t.ramp_back_end_s);
        }
        traffic_.push_back(
            std::make_unique<sim::FluidRampSource>(sim_, link, params));
        break;
      }
    }
  }
}

ScenarioInstance::~ScenarioInstance() = default;

DataSize ScenarioInstance::flow_bytes_acked() const {
  DataSize total{};
  for (const auto& f : flows_) total += f->bytes_acked();
  return total;
}

void ScenarioInstance::start() {
  // Flows launch first so a start_s of zero begins exactly at traffic
  // start; their events interleave with cross traffic during the warmup.
  for (auto& f : flows_) f->launch();
  for (auto& t : traffic_) {
    if (t) t->start();
  }
  sim_.run_for(spec_.warmup);
}

}  // namespace pathload::scenario
