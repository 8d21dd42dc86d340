// Rate adaptation for a streaming application — one of the paper's
// motivating use cases ("rate adaptation in streaming applications",
// Section IX).
//
//   $ ./build/examples/streaming_rate_adaptation
//
// A video server must pick an encoding bitrate for a session. It measures
// the path with pathload, then picks the highest ladder rung that fits
// under the *lower* bound of the reported range (conservative: the range
// is the band the avail-bw varied over, so the lower bound is what the
// path can sustain through its dips). The simulation then verifies the
// choice: a CBR "video" at that rate suffers little queueing, while the
// next rung up would not.

#include <cstdio>
#include <vector>

#include "core/session.hpp"
#include "scenario/paper_path.hpp"
#include "scenario/sim_channel.hpp"
#include "scenario/spec.hpp"
#include "sim/rtt_probe.hpp"
#include "sim/traffic.hpp"
#include "util/stats.hpp"

using namespace pathload;

namespace {

/// Play `rate` CBR traffic through the (already loaded) path for a while
/// and report the 95th-percentile one-way queueing jitter the "viewer"
/// would have to buffer for.
double playback_jitter_ms(scenario::ScenarioInstance& bed, Rate rate) {
  auto& sim = bed.simulator();
  class Viewer final : public sim::PacketHandler {
   public:
    void handle(const sim::Packet& p) override {
      arrivals.push_back((sim_->now() - p.entered).secs());
    }
    sim::Simulator* sim_{nullptr};
    std::vector<double> arrivals;  // one-way transit times
  } viewer;
  viewer.sim_ = &sim;

  const std::uint32_t flow = sim.next_flow_id();
  bed.path().egress().register_flow(flow, &viewer);

  // 1300 B frames at the target rate.
  const Duration frame_gap = Duration::seconds(1300.0 * 8.0 / rate.bits_per_sec());
  const TimePoint end = sim.now() + Duration::seconds(10);
  while (sim.now() < end) {
    sim::Packet frame;
    frame.id = sim.next_packet_id();
    frame.flow = flow;
    frame.kind = sim::PacketKind::kProbe;
    frame.size_bytes = 1300;
    frame.transit = true;
    frame.entered = sim.now();
    bed.path().ingress().handle(frame);
    sim.run_for(frame_gap);
  }
  sim.run_for(Duration::seconds(1));  // drain
  bed.path().egress().unregister_flow(flow);

  if (viewer.arrivals.empty()) return 1e9;
  const double base = *std::min_element(viewer.arrivals.begin(), viewer.arrivals.end());
  std::vector<double> jitter;
  jitter.reserve(viewer.arrivals.size());
  for (double t : viewer.arrivals) jitter.push_back(t - base);
  return percentile(jitter, 0.95) * 1e3;
}

}  // namespace

int main() {
  scenario::PaperPathConfig network;
  network.hops = 2;
  network.tight_capacity = Rate::mbps(10);
  network.tight_utilization = 0.65;  // A = 3.5 Mb/s
  network.beta = 2.0;
  network.nontight_utilization = 0.5;
  network.model = sim::Interarrival::kPareto;

  scenario::ScenarioInstance bed{
      scenario::ScenarioSpec::from_paper("network", "", network)};
  bed.start();

  // Measure.
  scenario::SimProbeChannel channel{bed.simulator(), bed.path()};
  core::PathloadSession session{core::PathloadConfig{}};
  const auto result = session.run(channel);
  std::printf("measured avail-bw range: [%.2f, %.2f] Mb/s (true A = %.2f)\n",
              result.range.low.mbits_per_sec(), result.range.high.mbits_per_sec(),
              bed.configured_avail_bw().mbits_per_sec());

  // Pick from the encoding ladder.
  const std::vector<double> ladder_mbps{0.8, 1.5, 2.5, 4.0, 6.0, 8.0};
  double chosen = ladder_mbps.front();
  for (double rung : ladder_mbps) {
    if (Rate::mbps(rung) <= result.range.low) chosen = rung;
  }
  std::printf("encoding ladder: 0.8 / 1.5 / 2.5 / 4.0 / 6.0 / 8.0 Mb/s\n");
  std::printf("chosen bitrate : %.1f Mb/s (highest rung under the range's low end)\n\n",
              chosen);

  // Verify the choice in simulation.
  const double jitter_ok = playback_jitter_ms(bed, Rate::mbps(chosen));
  std::printf("95th-pct playback jitter at %.1f Mb/s: %7.1f ms\n", chosen, jitter_ok);
  const double next_rung = chosen < 8.0 ? chosen * 2 : 8.0;
  const double jitter_bad = playback_jitter_ms(bed, Rate::mbps(next_rung));
  std::printf("95th-pct playback jitter at %.1f Mb/s: %7.1f ms  (next rung up)\n",
              next_rung, jitter_bad);
  std::printf("\nThe measured range makes the safe choice obvious before sending a\n"
              "single video frame — and without saturating the path to find out.\n");
  return 0;
}
