// Benchmark driver: one workload, one client thread, closed loop.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    --digests <file> [--spans <file>] [--held-out]
//   perfbench_driver --workload <name> --record <file>
//
// A run: preflight (engine anchors, decorator identity), set-up repeated
// kSetupRepeats times (each ends with one untimed warm-up op), then ops back
// to back for --seconds. Every op's digest is compared with the one recorded
// for its pool entry. With --trace 0 the end-to-end metrics are printed;
// with --trace 1 rounds alternate traced/untraced over the same inputs and
// the per-layer metrics are printed. The last stdout line is one JSON object.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "tcp/reno.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 7;
constexpr std::size_t kKeptSpans = 200'000;

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  int pool{0};
  std::string digests;
  std::string spans;
  std::string record;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "perfbench_driver: %s\n", why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--held-out") {
      a.pool = 1;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v);
    else if (k == "--trace") a.trace = std::atoi(v) != 0;
    else if (k == "--digests") a.digests = v;
    else if (k == "--spans") a.spans = v;
    else if (k == "--record") a.record = v;
    else usage(("unknown argument " + k).c_str());
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.record.empty() && a.digests.empty()) usage("--digests is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

/// Closed-loop op order. A round runs every config once, in a shuffled
/// order, each at the next seed of its own shuffled seed permutation; the
/// shuffles come from --seed. `depth` rounds make a cycle, which visits
/// every pool entry exactly once. With `repeat` 2 each round's inputs run
/// twice in a row (the traced/untraced pairs of --trace 1).
class Schedule {
 public:
  Schedule(int configs, int depth, int pool, std::uint64_t seed, int repeat)
      : rng_{seed}, depth_{depth}, pool_{pool}, repeat_{repeat} {
    for (int c = 0; c < configs; ++c) {
      order_.push_back(c);
      std::vector<int> p(static_cast<std::size_t>(depth));
      for (int i = 0; i < depth; ++i) p[static_cast<std::size_t>(i)] = i;
      std::shuffle(p.begin(), p.end(), rng_);
      perm_.push_back(std::move(p));
    }
    pos_ = order_.size();
  }

  OpInput next() {
    if (pos_ == order_.size()) {
      ++round_;
      if (round_ % repeat_ == 0) std::shuffle(order_.begin(), order_.end(), rng_);
      pos_ = 0;
    }
    const int c = order_[pos_++];
    const int step = (round_ / repeat_) % depth_;
    return OpInput{pool_, c, perm_[static_cast<std::size_t>(c)][static_cast<std::size_t>(step)]};
  }

  /// Round of the op last returned by next().
  int round() const { return round_; }
  bool round_done() const { return pos_ == order_.size(); }
  /// True when the op last returned by next() completed a cycle.
  bool cycle_done() const { return round_done() && (round_ + 1) % (depth_ * repeat_) == 0; }

 private:
  std::mt19937_64 rng_;
  int depth_;
  int pool_;
  int repeat_;
  std::vector<int> order_;
  std::vector<std::vector<int>> perm_;
  std::size_t pos_{0};
  int round_{-1};
};

using DigestKey = std::tuple<int, int, int>;

std::map<DigestKey, std::uint64_t> load_digests(const std::string& path) {
  std::map<DigestKey, std::uint64_t> out;
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) usage(("cannot read digests " + path).c_str());
  int p = 0, c = 0, i = 0;
  char hex[32];
  while (std::fscanf(f, "%d %d %d %31s", &p, &c, &i, hex) == 4) {
    out[{p, c, i}] = std::strtoull(hex, nullptr, 16);
  }
  std::fclose(f);
  return out;
}

OpOutcome run_op(Workload& w, const OpInput& in, Tracer* tr) {
  try {
    return w.run(in, tr);
  } catch (const std::exception& e) {
    OpOutcome o;
    o.error = std::string{"exception: "} + e.what();
    return o;
  }
}

int record(const Args& a) {
  auto w = make_workload(a.workload);
  std::FILE* f = std::fopen(a.record.c_str(), "w");
  if (f == nullptr) usage(("cannot write " + a.record).c_str());
  int bad = 0;
  for (int p = 0; p < kPools; ++p) {
    for (int c = 0; c < w->configs(); ++c) {
      for (int i = 0; i < w->depth(); ++i) {
        const OpOutcome o = run_op(*w, OpInput{p, c, i}, nullptr);
        if (!o.error.empty()) {
          std::fprintf(stderr, "pool %d config %d index %d failed: %s\n", p, c, i,
                       o.error.c_str());
          ++bad;
        }
        std::fprintf(f, "%d %d %d %016" PRIx64 "\n", p, c, i, o.digest);
      }
    }
  }
  std::fclose(f);
  return bad == 0 ? 0 : 1;
}

/// Host-side timings of the untraced ops of one cycle of the input pool.
struct Cycle {
  std::vector<double> op_ms;
  double sim_s{0.0};
  double op_s{0.0};
  double wall_s{0.0};  ///< from the end of the previous cycle to the end of this one

  void add(double ms, double op_sim_s) {
    op_ms.push_back(ms);
    sim_s += op_sim_s;
    op_s += ms * 1e-3;
  }
};

/// Moves the calling thread to the next CPU of its original affinity set,
/// round robin. On a shared VM the vCPUs run at different speeds, and the
/// kernel keeps a busy thread on one of them for a whole run; rotating per
/// cycle (and per set-up) makes every run sample every vCPU alike.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    }
  }

  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[next_++ % cpus_.size()], &set);
    sched_setaffinity(0, sizeof set, &set);
  }

 private:
  std::vector<int> cpus_;
  std::size_t next_{0};
};

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Per-layer metrics from the traced ops (see README.md for the map).
std::vector<Metric> layer_metrics(const Tracer& tr, const Tracer::CounterMap& r0,
                                  double ops, double ops0, double traced_p50,
                                  double untraced_p50) {
  auto st = [&](const char* name) {
    const auto it = tr.stats().find(name);
    return it != tr.stats().end() ? it->second : SpanStats{};
  };
  auto cnt = [&](const Tracer::CounterMap& m, const char* name) {
    const auto it = m.find(name);
    return it != m.end() ? it->second : 0.0;
  };
  auto total = [&](const char* name) { return static_cast<double>(st(name).total_ns); };
  auto self = [&](const char* name) { return static_cast<double>(st(name).self_ns); };
  auto mean_total = [&](const char* name) {
    return ratio(total(name), static_cast<double>(st(name).count));
  };
  auto mean_self = [&](const char* name) {
    return ratio(self(name), static_cast<double>(st(name).count));
  };
  const auto& c = tr.counters();

  const double op_ns = total("op");
  const double sim_ns = total("sim.stream") + total("sim.idle") + total("scenario.warmup");
  const double sim_events =
      cnt(c, "sim.stream_events") + cnt(c, "sim.idle_events") + cnt(c, "sim.warmup_events");
  const double segments = cnt(c, "tcp.bytes_acked") / pathload::tcp::TcpConfig{}.mss_bytes;
  double estimator_self = 0.0;
  for (const auto& [name, s] : tr.stats()) {
    if (name.rfind("estimator.", 0) == 0) estimator_self += static_cast<double>(s.self_ns);
  }
  const double builds = static_cast<double>(st("scenario.build").count);

  std::vector<Metric> m = {
      {"sim.ns_per_event", ratio(sim_ns, sim_events), "ns"},
      {"sim.idle_ms", ratio(total("sim.idle"), ops) / 1e6, "ms"},
      {"sim.events", ratio(cnt(r0, "sim.events"), ops0), "count"},
      {"sim.stream_us", mean_total("sim.stream") / 1e3, "us"},
      {"sim.stream_ns_per_pkt", ratio(total("sim.stream"), cnt(c, "sim.stream_pkts")), "ns"},
      {"sim.events_per_probe_pkt",
       ratio(cnt(r0, "sim.stream_events"), cnt(r0, "sim.stream_pkts")), "count"},
      {"sim.pkts_forwarded", ratio(cnt(r0, "sim.pkts_forwarded"), ops0), "count"},
      {"sim.drops", ratio(cnt(r0, "sim.drops"), ops0), "count"},
      {"sim.impaired_drops", ratio(cnt(r0, "sim.impaired_drops"), ops0), "count"},
      {"sim.frac", ratio(sim_ns, op_ns), "frac"},
      {"tcp.bulk_ms", ratio(total("tcp.bulk"), ops) / 1e6, "ms"},
      {"tcp.bulk_ns_per_segment", ratio(total("tcp.bulk"), segments), "ns"},
      {"tcp.fast_retransmits", ratio(cnt(r0, "tcp.fast_retransmits"), ops0), "count"},
      {"tcp.timeouts", ratio(cnt(r0, "tcp.timeouts"), ops0), "count"},
      {"tcp.rate_samples", ratio(cnt(r0, "tcp.rate_samples"), ops0), "count"},
      {"tcp.frac", ratio(total("tcp.bulk"), op_ns), "frac"},
      {"core.pathload.self_us", mean_self("estimator.pathload") / 1e3, "us"},
      {"core.pathload.streams",
       ratio(cnt(r0, "core.pathload.streams"), cnt(r0, "core.pathload.runs")), "count"},
      {"core.pathload.fleets",
       ratio(cnt(r0, "core.pathload.fleets"), cnt(r0, "core.pathload.runs")), "count"},
  };
  for (const char* tool : {"cprobe", "pktpair", "topp", "delphi", "spruce", "igi", "pathchirp",
                           "btc", "delivery-rate"}) {
    const std::string span = std::string{"estimator."} + tool;
    m.push_back({std::string{"baselines."} + tool + ".self_us",
                 mean_self(span.c_str()) / 1e3, "us"});
  }
  const double scenario_ns = total("scenario.build") + total("scenario.teardown") +
                             total("scenario.spec") + self("scenario.fuzz_check");
  const std::vector<Metric> rest = {
      {"estimator.frac", ratio(estimator_self, op_ns), "frac"},
      {"scenario.build_us", mean_total("scenario.build") / 1e3, "us"},
      {"scenario.warmup_ms", mean_total("scenario.warmup") / 1e6, "ms"},
      {"scenario.spec_us", ratio(total("scenario.spec"), ops) / 1e3, "us"},
      {"scenario.fuzz_check_ms", ratio(self("scenario.fuzz_check"), ops) / 1e6, "ms"},
      {"scenario.teardown_us", mean_total("scenario.teardown") / 1e3, "us"},
      {"scenario.frac", ratio(scenario_ns, op_ns), "frac"},
      {"alloc.per_op", ratio(static_cast<double>(st("op").allocs), ops), "count"},
      {"alloc.per_stream",
       ratio(cnt(c, "sim.stream_allocs"), static_cast<double>(st("sim.stream").count)), "count"},
      {"alloc.per_build",
       ratio(static_cast<double>(st("scenario.build").allocs + st("scenario.warmup").allocs),
             builds),
       "count"},
      {"harness.other_frac", ratio(self("op"), op_ns), "frac"},
      {"trace.overhead_frac", ratio(traced_p50, untraced_p50) - 1.0, "frac"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

void print_result(bool correct, long attempted, long failed, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-28s %14.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), v, metrics[i].unit);
  }
  std::printf("}}\n");
}

int run(const Args& a) {
  const std::map<DigestKey, std::uint64_t> expected = load_digests(a.digests);

  // Preflight: the engines still reproduce their golden anchors, and the
  // tracing decorators change no bit of what the estimators report.
  if (const std::string bad = check_engine_anchors(); !bad.empty()) {
    std::fprintf(stderr, "preflight: %s\n", bad.c_str());
    return 3;
  }
  if (const std::string bad = make_workload(a.workload)->check_decorator_identity();
      !bad.empty()) {
    std::fprintf(stderr, "preflight: %s\n", bad.c_str());
    return 3;
  }

  int reported = 0;
  auto ok = [&](const OpInput& in, const OpOutcome& o) {
    std::string why = o.error;
    if (why.empty()) {
      const auto it = expected.find({in.pool, in.config, in.index});
      if (it == expected.end()) why = "no recorded digest";
      else if (it->second != o.digest) why = "digest differs from the recorded one";
    }
    if (!why.empty() && reported++ < 5) {
      std::fprintf(stderr, "failed op (pool %d config %d index %d): %s\n", in.pool,
                   in.config, in.index, why.c_str());
    }
    return why.empty();
  };

  // Set-up, repeated: build the workload and run one untimed warm-up op on
  // a fixed input.
  std::unique_ptr<Workload> w;
  std::vector<double> setup_s;
  bool setup_ok = true;
  CpuRotation cpus;
  for (int r = 0; r < kSetupRepeats; ++r) {
    cpus.next();
    const std::int64_t t0 = host_ns();
    w = make_workload(a.workload);
    const OpInput warm{0, 0, 0};
    const OpOutcome o = run_op(*w, warm, nullptr);
    setup_s.push_back(static_cast<double>(host_ns() - t0) * 1e-9);
    setup_ok = ok(warm, o) && setup_ok;
  }

  long attempted = 0;
  long failed = 0;

  Tracer tracer{a.trace ? kKeptSpans : 0};
  Schedule sched{w->configs(), w->depth(), a.pool, a.seed, a.trace ? 2 : 1};
  // Untraced statistics cover whole cycles only, so every run's figures
  // come from the same multiset of inputs; ops of the last, partial cycle
  // are still checked.
  std::vector<Cycle> cycles;
  Cycle pending;
  std::vector<double> traced_ms;
  Tracer::CounterMap round0;
  double ops0 = 0.0;
  const std::int64_t start = host_ns();
  std::int64_t cycle_start = start;
  const auto deadline = start + static_cast<std::int64_t>(a.seconds * 1e9);
  // A traced run needs one traced and one untraced round at least.
  while (host_ns() < deadline || (a.trace && (sched.round() < 1 || !sched.round_done()))) {
    const OpInput in = sched.next();
    const bool traced = a.trace && sched.round() % 2 == 0;
    if (a.trace && sched.round() == 1 && ops0 == 0.0) {
      round0 = tracer.counters();
      ops0 = static_cast<double>(traced_ms.size());
    }
    Tracer* tr = traced ? &tracer : nullptr;
    OpOutcome o;
    tracer.set_op(static_cast<std::int32_t>(attempted));
    count_allocations(traced);
    const std::int64_t t0 = host_ns();
    {
      Tracer::Scope span{tr, "op"};
      o = run_op(*w, in, tr);
    }
    const std::int64_t t1 = host_ns();
    count_allocations(false);
    ++attempted;
    if (!ok(in, o)) ++failed;
    const double ms = static_cast<double>(t1 - t0) * 1e-6;
    if (traced) {
      traced_ms.push_back(ms);
      continue;
    }
    pending.add(ms, o.sim_s);
    if (!a.trace && sched.cycle_done()) {
      pending.wall_s = static_cast<double>(t1 - cycle_start) * 1e-9;
      cycle_start = t1;
      cycles.push_back(std::move(pending));
      pending = Cycle{};
      cpus.next();
    }
  }
  const bool correct = setup_ok && failed == 0;

  if (a.trace) {
    if (!a.spans.empty()) {
      if (std::FILE* f = std::fopen(a.spans.c_str(), "w")) {
        tracer.write(f);
        std::fclose(f);
      }
    }
    const double traced_p50 = percentile(traced_ms, 50);
    const double untraced_p50 = percentile(pending.op_ms, 50);
    std::printf("workload %s (traced): %zu traced + %zu untraced ops, %zu spans kept, "
                "%" PRIu64 " dropped\n",
                a.workload.c_str(), traced_ms.size(), pending.op_ms.size(), tracer.kept().size(),
                tracer.dropped());
    print_result(correct, attempted, failed,
                 layer_metrics(tracer, round0, static_cast<double>(traced_ms.size()), ops0,
                               traced_p50, untraced_p50));
    return 0;
  }

  if (cycles.empty()) {
    std::printf("warning: no whole cycle of the input pool fit in %g s; "
                "figures cover a partial cycle\n",
                a.seconds);
    pending.wall_s = static_cast<double>(host_ns() - cycle_start) * 1e-9;
    cycles.push_back(std::move(pending));
  }
  // The host's speed drifts over seconds on a shared machine, and drift
  // only ever slows a cycle down. Every cycle runs the same inputs, so the
  // fastest cycle is the least disturbed pass over the pool: rates come
  // from it, and each op time is scaled to its speed before taking
  // percentiles.
  const auto fastest = std::min_element(
      cycles.begin(), cycles.end(),
      [](const Cycle& x, const Cycle& y) { return x.op_s < y.op_s; });
  std::vector<double> cycle_op_s, op_ms;
  for (const Cycle& c : cycles) {
    cycle_op_s.push_back(c.op_s);
    for (const double ms : c.op_ms) op_ms.push_back(ms * fastest->op_s / c.op_s);
  }
  const double ops_per_cycle = static_cast<double>(cycles.front().op_ms.size());
  const double tail_p = tail_percentile(a.workload);
  const double beyond = std::floor(static_cast<double>(op_ms.size()) * (1.0 - tail_p / 100.0));
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::printf("workload %s: %zu cycles of %.0f ops; op_ms_tail is p%g, %.0f ops beyond it%s\n",
              a.workload.c_str(), cycles.size(), ops_per_cycle, tail_p, beyond,
              beyond < 10 ? " (fewer than 10: run longer)" : "");
  std::printf("op seconds per cycle:");
  for (const double v : cycle_op_s) std::printf(" %.3f", v);
  std::printf("\nsetup_s of the %d set-ups:", kSetupRepeats);
  for (const double v : setup_s) std::printf(" %.4f", v);
  std::printf("\n");
  print_result(correct, attempted, failed,
               {
                   {"setup_s", percentile(setup_s, 50), "s"},
                   {"ops_per_s", ops_per_cycle / fastest->wall_s, "1/s"},
                   {"op_ms_p50", percentile(op_ms, 50), "ms"},
                   {"op_ms_tail", percentile(op_ms, tail_p), "ms"},
                   {"sim_s_per_host_s", fastest->sim_s / fastest->op_s, "s/s"},
                   {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"},
               });
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args a = perfbench::parse_args(argc, argv);
  if (!perfbench::make_workload(a.workload)) {
    perfbench::usage(("unknown workload " + a.workload).c_str());
  }
  return a.record.empty() ? perfbench::run(a) : perfbench::record(a);
}
