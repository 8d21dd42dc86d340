// Figure 12: variability of the avail-bw vs the degree of statistical
// multiplexing.
//
// Three paths at (roughly) the same utilization ~65% but very different
// capacities / flow counts, mirroring the paper's Abilene (155 Mb/s),
// Univ-Crete (12.4 Mb/s), and Univ-Pireaus (6.1 Mb/s) tight links. The
// degree of multiplexing is modelled by the number of independent cross
// traffic sources at a fixed aggregate utilization.

#include <cstdio>

#include "bench/common.hpp"
#include "scenario/registry.hpp"
#include "scenario/sweep_runner.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace pathload;

int main() {
  bench::banner("Fig. 12", "CDF of rho vs degree of statistical multiplexing");
  const int runs = bench::runs(30);
  std::printf("(runs per path: %d; paper used 110)\n\n", runs);

  // The three path shapes are registry presets; `capacity_mbps` stays in
  // the table because it keys each sweep's RNG stream (the exact literal
  // matters: re-deriving it from the preset's Rate would round).
  const struct {
    const char* label;
    const char* preset;
    double capacity_mbps;
  } paths[] = {{"A:155Mbps/n=120", "fig12-abilene", 155.0},
               {"B:12.4Mbps/n=24", "fig12-crete", 12.4},
               {"C:6.1Mbps/n=6", "fig12-pireaus", 6.1}};

  Table table{{"percentile", "rho(A)", "rho(B)", "rho(C)"}};
  std::vector<std::vector<double>> rho_columns;
  scenario::SweepRunner runner;

  for (const auto& p : paths) {
    const scenario::ScenarioSpec& base = scenario::Registry::builtin().at(p.preset);
    // Points (utilization draws and seeds) are enumerated sequentially; only
    // the independent simulations run on the pool.
    Rng rng{bench::seed() + static_cast<std::uint64_t>(p.capacity_mbps * 10)};
    std::vector<scenario::SweepPoint> points(static_cast<std::size_t>(runs));
    for (auto& pt : points) {
      pt.spec = base.with_load(rng.uniform(0.60, 0.70));
      pt.seed = rng.engine()();
    }
    const auto results = scenario::sweep_pathload(points, runner);
    std::vector<double> rhos;
    rhos.reserve(results.size());
    for (const auto& r : results) rhos.push_back(r.range.relative_variation());
    rho_columns.push_back(std::move(rhos));
  }

  for (int p = 5; p <= 95; p += 10) {
    std::vector<std::string> row{Table::num(p, 0)};
    for (const auto& col : rho_columns) {
      row.push_back(Table::num(percentile(col, p / 100.0), 3));
    }
    table.add_row(std::move(row));
  }
  table.print();
  std::printf("\n75th-pct rho: A=%.2f  B=%.2f  C=%.2f\n",
              percentile(rho_columns[0], 0.75), percentile(rho_columns[1], 0.75),
              percentile(rho_columns[2], 0.75));
  bench::expectation(
      "at the same utilization, the path with the widest pipe / most "
      "multiplexed traffic (A) shows the lowest rho; rho roughly doubles "
      "on B and triples on C (paper: 0.25 -> ~2x -> ~3x at the 75th pct).");
  return 0;
}
