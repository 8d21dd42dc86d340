// Quickstart: measure the available bandwidth of a (simulated) network
// path with pathload.
//
//   $ ./build/examples/quickstart
//
// Builds the paper's 3-hop topology (tight link 10 Mb/s at 60% load, so
// the true avail-bw is 4 Mb/s), runs one pathload measurement through it,
// and prints the estimated range. Swap SimProbeChannel for
// net::LiveProbeChannel (see live_loopback.cpp) to measure a real path.

#include <cstdio>

#include "core/session.hpp"
#include "scenario/paper_path.hpp"
#include "scenario/sim_channel.hpp"
#include "scenario/spec.hpp"

using namespace pathload;

int main() {
  // 1. A network to measure: H = 3 hops, tight middle link.
  scenario::PaperPathConfig network;
  network.hops = 3;
  network.tight_capacity = Rate::mbps(10);
  network.tight_utilization = 0.60;  // avail-bw = 10 * (1 - 0.6) = 4 Mb/s
  network.model = sim::Interarrival::kPareto;

  scenario::ScenarioInstance testbed{
      scenario::ScenarioSpec::from_paper("quickstart", "", network)};
  testbed.start();  // cross traffic + queue warmup

  // 2. A probe channel through that network and a pathload session on it.
  scenario::SimProbeChannel channel{testbed.simulator(), testbed.path()};
  core::PathloadConfig tool;  // paper defaults: K=100, N=12, omega=1 Mb/s
  core::PathloadSession session{tool};

  // 3. Measure.
  const core::PathloadResult result = session.run(channel);

  std::printf("true avail-bw : %s\n", testbed.configured_avail_bw().str().c_str());
  std::printf("pathload range: [%s, %s]\n", result.range.low.str().c_str(),
              result.range.high.str().c_str());
  std::printf("center        : %s\n", result.range.center().str().c_str());
  std::printf("fleets        : %d (%lld streams, %s of probes, %.1f s)\n",
              result.fleets, static_cast<long long>(result.streams_sent),
              result.bytes_sent.str().c_str(), result.elapsed.secs());
  return 0;
}
