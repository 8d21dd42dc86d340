// Avail-bw dynamics study (the Section VI workflow in miniature): how
// does the variability of the available bandwidth change with load?
//
//   $ ./build/examples/dynamics_study [runs-per-point]
//
// For each utilization point, runs several pathload measurements and
// reports the distribution of the relative variation rho = width/center
// (Eq. 12). Demonstrates the RepeatedRuns experiment API.

#include <cstdio>
#include <cstdlib>

#include "scenario/sweep_runner.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace pathload;

int main(int argc, char** argv) {
  const int runs = argc > 1 ? std::atoi(argv[1]) : 10;

  Table table{{"util_%", "avail_Mbps", "mean_low", "mean_high", "rho_p25", "rho_p50",
               "rho_p75"}};

  // Each measurement is an independent seeded testbed, so the repetitions
  // shard across a thread pool (PATHLOAD_THREADS to pin the width) without
  // changing a digit of the output.
  scenario::SweepRunner runner;

  for (double util : {0.2, 0.4, 0.6, 0.8}) {
    scenario::PaperPathConfig path;
    path.hops = 1;
    path.tight_capacity = Rate::mbps(12.4);
    path.tight_utilization = util;
    path.model = sim::Interarrival::kPareto;

    core::PathloadConfig tool;
    const auto rr = scenario::sweep_scenario_repeated(
        scenario::ScenarioSpec::from_paper("dynamics", "", path), tool, runs,
        /*seed0=*/42 + util * 100, runner);
    const auto rhos = rr.relative_variations();
    table.add_row({Table::num(util * 100, 0),
                   Table::num(12.4 * (1 - util), 1),
                   Table::num(rr.mean_low().mbits_per_sec(), 2),
                   Table::num(rr.mean_high().mbits_per_sec(), 2),
                   Table::num(percentile(rhos, 0.25), 2),
                   Table::num(percentile(rhos, 0.50), 2),
                   Table::num(percentile(rhos, 0.75), 2)});
  }
  table.print();
  std::printf(
      "\nTakeaway (paper Section VI): the heavier the tight link's load, the\n"
      "less predictable the path — rho grows as the avail-bw shrinks.\n");
  return 0;
}
