#pragma once

#include <cstdint>

#include "sim/traffic.hpp"
#include "util/time.hpp"
#include "util/units.hpp"

namespace pathload::scenario {

/// The simulation topology of the paper's Fig. 4: an H-hop path whose
/// middle hop is the tight link (capacity Ct, utilization ut) while all
/// other hops share capacity Cx and utilization ux. Each hop carries its
/// own one-hop cross traffic from `sources_per_link` independent sources.
///
/// The *path tightness factor* beta = Ax / At (Eq. 10) sets how close the
/// non-tight links' avail-bw is to the tight link's: the non-tight capacity
/// is derived as Cx = beta * At / (1 - ux). beta = 1 with ux = ut makes
/// every link a tight link (the Fig. 7 stress case).
///
/// This is only a parameterization: ScenarioSpec::from_paper expands it
/// into the explicit hop list, and ScenarioInstance builds that like any
/// other spec.
struct PaperPathConfig {
  int hops{3};
  Rate tight_capacity{Rate::mbps(10)};
  double tight_utilization{0.6};
  double beta{2.0};
  double nontight_utilization{0.6};

  sim::Interarrival model{sim::Interarrival::kPareto};
  double pareto_alpha{1.9};
  int sources_per_link{10};
  sim::PacketSizeMix size_mix{sim::PacketSizeMix::paper_mix()};

  /// End-to-end propagation delay, split evenly across hops (paper: 50 ms).
  Duration total_prop_delay{Duration::milliseconds(50)};
  /// Reverse-path delay for ACK/echo traffic (uncongested).
  Duration reverse_delay{Duration::milliseconds(50)};
  /// Per-link buffer as a drain time at link capacity ("sufficiently
  /// buffered to avoid losses"): buffer_bytes = C * buffer_drain.
  Duration buffer_drain{Duration::milliseconds(500)};

  std::uint64_t seed{1};
  /// Virtual time to run cross traffic before measuring, so queues reach
  /// steady state.
  Duration warmup{Duration::seconds(2)};

  Rate tight_avail_bw() const { return tight_capacity * (1.0 - tight_utilization); }
  Rate nontight_capacity() const {
    return tight_avail_bw() * beta / (1.0 - nontight_utilization);
  }
};

}  // namespace pathload::scenario
