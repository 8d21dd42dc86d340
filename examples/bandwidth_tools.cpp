// Side-by-side comparison of the bandwidth-estimation tool families the
// paper discusses, on the same path — the "server selection" use case from
// the introduction: which estimate would you trust to pick a mirror?
//
//   $ ./build/examples/bandwidth_tools
//   $ ./build/examples/bandwidth_tools --live <host>:<port>
//
// The default run uses a simulated single-queue path. With --live, the
// same registry estimators run over a net::LiveProbeChannel connected to a
// running pathload_rcv (its printed control port is the port to use) — the
// Estimator-over-LiveProbeChannel path end to end. BTC is the exception:
// it needs a bulk-TCP-capable channel, which the live channel lacks, so it
// reports the same structured capability-mismatch error scenario_runner
// gives instead of silently falling back to the simulator.
//
// Runs SLoPS/pathload, cprobe-style train dispersion (ADR), packet-pair
// capacity probing, TOPP, and a greedy-TCP (BTC) transfer, and contrasts
// what each one measures.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "baselines/btc.hpp"
#include "baselines/dispersion.hpp"
#include "baselines/estimators.hpp"
#include "baselines/topp.hpp"
#include "core/session.hpp"
#include "net/live_channel.hpp"
#include "scenario/paper_path.hpp"
#include "scenario/sim_channel.hpp"
#include "scenario/spec.hpp"
#include "util/table.hpp"

using namespace pathload;

namespace {

/// The structured capability-mismatch message for bulk-TCP estimators on
/// the live channel — the same core::channel_support_summary catalogue
/// scenario_runner's --channel error ends with: name who supports what
/// instead of silently substituting a simulator.
core::EstimatorError live_bulk_mismatch(const core::EstimatorRegistry& reg,
                                        const std::string& names) {
  return core::EstimatorError{
      "--live: " + names +
      ": measuring by greedy TCP connection needs a bulk-TCP-capable "
      "channel, and the live channel has no TCP data mover; refusing to "
      "fall back to sim silently.\n" +
      core::channel_support_summary(reg)};
}

int run_live(const std::string& target) {
  const auto colon = target.rfind(':');
  if (colon == std::string::npos || colon + 1 >= target.size()) {
    std::fprintf(stderr,
                 "bandwidth_tools: --live expects <host>:<port> (the control "
                 "port a running pathload_rcv printed), got '%s'\n",
                 target.c_str());
    return 2;
  }
  const std::string host = target.substr(0, colon);
  const int port = std::atoi(target.c_str() + colon + 1);
  if (port <= 0 || port > 65535) {
    std::fprintf(stderr, "bandwidth_tools: bad --live port in '%s'\n",
                 target.c_str());
    return 2;
  }

  const core::EstimatorRegistry& reg = baselines::builtin_estimators();
  try {
    net::LiveProbeChannel channel{{host, static_cast<std::uint16_t>(port)}};
    std::printf("live path to %s (control RTT ~ %s)\n\n", target.c_str(),
                channel.rtt().str().c_str());

    Table table{{"tool", "reports", "value_Mbps", "probe_MB", "time_s"}};
    std::string skipped;
    std::string unhinted;
    for (const auto& entry : reg.entries()) {
      if (entry.needs_bulk_tcp) {
        // Don't throw mid-table: record the row, print the structured
        // error once after the results.
        table.add_row({entry.name, entry.quantity, "n/a (needs bulk TCP)", "-", "-"});
        skipped += (skipped.empty() ? "" : ", ") + entry.name;
        continue;
      }
      if (entry.needs_capacity_hint) {
        // Same structured path as the bulk-TCP mismatch: a live path's
        // capacity is not known a priori, and this example takes no
        // capacity flag — declare the gap instead of running the tool
        // into its EstimatorError mid-table.
        table.add_row({entry.name, entry.quantity,
                       "n/a (needs capacity_mbps hint)", "-", "-"});
        unhinted += (unhinted.empty() ? "" : ", ") + entry.name;
        continue;
      }
      const auto est = entry.make(core::KvOverrides{});
      Rng rng{1};
      const core::EstimateReport r = est->run(channel, rng);
      std::string value = "n/a";
      if (r.valid) {
        value = r.is_range ? "[" + Table::num(r.low.mbits_per_sec(), 1) + ", " +
                                 Table::num(r.high.mbits_per_sec(), 1) + "]"
                           : Table::num(r.center().mbits_per_sec(), 1);
      }
      table.add_row({entry.name, entry.quantity, value,
                     Table::num(r.bytes_sent.bits() / 8e6, 2),
                     Table::num(r.elapsed.secs(), 1)});
    }
    table.print();
    if (!skipped.empty()) {
      std::printf("\n%s\n", live_bulk_mismatch(reg, skipped).what());
    }
    if (!unhinted.empty()) {
      std::printf("\n%s: the gap model needs the bottleneck capacity a "
                  "priori (capacity_mbps); measure it first (pktpair above) "
                  "and run these via scenario_runner --set, which fills the "
                  "hint from a scenario's declared narrow link.\n",
                  unhinted.c_str());
    }
  } catch (const core::EstimatorError& e) {
    std::fprintf(stderr, "bandwidth_tools: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bandwidth_tools: --live %s: %s\n", target.c_str(),
                 e.what());
    return 1;
  }
  return 0;
}

int run_sim() {
  scenario::PaperPathConfig network;
  network.hops = 1;
  network.tight_capacity = Rate::mbps(10);
  network.tight_utilization = 0.55;  // A = 4.5 Mb/s, C = 10 Mb/s
  network.model = sim::Interarrival::kPareto;
  const scenario::ScenarioSpec spec =
      scenario::ScenarioSpec::from_paper("network", "", network);

  std::printf("path: C = 10 Mb/s, u = 55%% -> avail-bw A = 4.5 Mb/s\n\n");
  Table table{{"tool", "reports", "value_Mbps", "intrusive?"}};

  {
    scenario::ScenarioInstance bed{spec};
    bed.start();
    scenario::SimProbeChannel ch{bed.simulator(), bed.path()};
    core::PathloadSession session{core::PathloadConfig{}};
    const auto r = session.run(ch);
    table.add_row({"pathload (SLoPS)", "avail-bw range",
                   "[" + Table::num(r.range.low.mbits_per_sec(), 1) + ", " +
                       Table::num(r.range.high.mbits_per_sec(), 1) + "]",
                   "no (avg rate <= R/10)"});
  }
  {
    scenario::ScenarioInstance bed{spec};
    bed.start();
    scenario::SimProbeChannel ch{bed.simulator(), bed.path()};
    const Rate adr = baselines::CprobeEstimator{}.measure(ch);
    table.add_row({"cprobe (train dispersion)", "ADR (not avail-bw!)",
                   Table::num(adr.mbits_per_sec(), 1), "mildly (short bursts)"});
  }
  {
    scenario::ScenarioInstance bed{spec};
    bed.start();
    scenario::SimProbeChannel ch{bed.simulator(), bed.path()};
    const Rate cap = baselines::PacketPairEstimator{}.measure(ch);
    table.add_row({"packet pair", "capacity C", Table::num(cap.mbits_per_sec(), 1),
                   "no"});
  }
  {
    scenario::ScenarioInstance bed{spec};
    bed.start();
    scenario::SimProbeChannel ch{bed.simulator(), bed.path()};
    baselines::ToppConfig tc;
    tc.max_rate = Rate::mbps(16);
    tc.step = Rate::mbps(0.5);
    const auto est = baselines::ToppEstimator{tc}.measure(ch);
    table.add_row({"TOPP", "avail-bw + capacity",
                   est.valid ? Table::num(est.avail_bw.mbits_per_sec(), 1) + " / " +
                                   Table::num(est.capacity.mbits_per_sec(), 1)
                             : "n/a",
                   "moderately (rate sweep)"});
  }
  {
    scenario::ScenarioInstance bed{spec};
    bed.start();
    baselines::BtcConfig bc;
    bc.duration = Duration::seconds(60);
    const auto r = baselines::BtcMeasurement{bc}.run(bed.simulator(), bed.path());
    table.add_row({"greedy TCP (BTC)", "TCP bulk throughput",
                   Table::num(r.average_throughput.mbits_per_sec(), 1),
                   "yes (saturates path)"});
  }
  table.print();
  std::printf(
      "\nNote how train dispersion lands between A and C (the ADR), packet\n"
      "pairs report C, and BTC reports what TCP can *take* (>= A, at the\n"
      "cost of queueing delay for everyone else) — only SLoPS/TOPP answer\n"
      "the avail-bw question, and only SLoPS bounds its own footprint.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--live") == 0) {
    if (argc != 3) {
      std::fprintf(stderr, "usage: %s [--live <host>:<port>]\n", argv[0]);
      return 2;
    }
    return run_live(argv[2]);
  }
  if (argc != 1) {
    std::fprintf(stderr, "usage: %s [--live <host>:<port>]\n", argv[0]);
    return 2;
  }
  return run_sim();
}
