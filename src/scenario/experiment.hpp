#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/estimator.hpp"
#include "core/session.hpp"
#include "scenario/paper_path.hpp"
#include "scenario/spec.hpp"

namespace pathload::scenario {

class SweepRunner;

/// Aggregate of repeated pathload runs at one operating point, as the paper
/// reports them (e.g. "50-sample average pathload ranges", Fig. 5).
struct RepeatedRuns {
  std::vector<core::PathloadResult> results;

  /// Mean of the per-run lower bounds.
  Rate mean_low() const;
  /// Mean of the per-run upper bounds.
  Rate mean_high() const;
  /// Coefficient of variation of the lower / upper bounds (the paper quotes
  /// 0.10-0.30 for its simulations).
  double cv_low() const;
  double cv_high() const;
  /// Relative variation rho (Eq. 12) of every run.
  std::vector<double> relative_variations() const;
  /// Fraction of runs whose range contains `truth`.
  double coverage(Rate truth) const;
  /// Mean virtual duration of a run.
  Duration mean_elapsed() const;
  /// Mean number of fleets per run.
  double mean_fleets() const;
};

/// Single pathload run on a fresh ScenarioInstance built from `spec` with
/// its seed overridden to `seed`, on a freshly warmed-up path.
core::PathloadResult run_scenario_once(const ScenarioSpec& spec,
                                       const core::PathloadConfig& tool_cfg,
                                       std::uint64_t seed);

/// run_scenario_once on ScenarioSpec::from_paper(path_cfg).
core::PathloadResult run_pathload_once(const PaperPathConfig& path_cfg,
                                       const core::PathloadConfig& tool_cfg,
                                       std::uint64_t seed);

/// `runs` independent scenario runs seeded seed0, seed0+1, ..., each on a
/// fresh instance.
RepeatedRuns run_scenario_repeated(const ScenarioSpec& spec,
                                   const core::PathloadConfig& tool_cfg, int runs,
                                   std::uint64_t seed0);

// ---------------------------------------------------------------------------
// The generic comparison harness: any estimator × any scenario × any load.
// `RepeatedRuns` above is the pathload-specific ancestor; `run_matrix` is
// what the CLI's --compare, bench/baselines_table, and every future
// "new estimator" or "new scenario" PR plug into.

/// One estimator column of a comparison matrix: a registry name plus a
/// factory producing a fresh configured instance per run (estimators may
/// be stateful, and runs fan out across SweepRunner threads).
struct MatrixEstimator {
  std::string name;
  std::function<std::unique_ptr<core::Estimator>()> make;

  /// Column for a registry entry with key=value config overrides. The
  /// overrides are applied once eagerly, so a typo'd key fails here — with
  /// its line-numbered core::EstimatorError — before any simulation runs.
  static MatrixEstimator from_registry(const core::EstimatorRegistry& reg,
                                       std::string_view name,
                                       std::string_view overrides = {});
};

/// One (estimator × scenario × load) cell, aggregated over `runs` seeds.
/// `reports` holds every run's EstimateReport in seed order; the accessors
/// reduce them to the accuracy / variation / intrusiveness / latency
/// quantities the comparison tables print. Invalid runs (an estimator that
/// could not produce an estimate) stay in `reports` but are excluded from
/// the estimate statistics; footprint and latency average over all runs.
struct MatrixCell {
  std::string estimator;
  std::string scenario;
  double load{0.0};      ///< tight-hop utilization the cell ran at
  Rate truth{};          ///< configured avail-bw of the loaded scenario
  std::uint64_t seed0{0};
  std::vector<core::EstimateReport> reports;

  int valid_runs() const;
  Rate mean_low() const;
  Rate mean_high() const;
  Rate mean_center() const;
  /// Mean of |center - truth| / truth over valid runs; NaN when no run
  /// was valid (an estimator that never produced an estimate must not
  /// score a perfect error — render it as n/a).
  double mean_rel_error() const;
  /// Fraction of ALL runs whose estimate covers the truth (range
  /// containment; points widened by `point_slack`). An invalid run never
  /// covers — a tool that fails to estimate should not score on the runs
  /// it skipped.
  double coverage(Rate point_slack) const;
  /// Coefficient of variation of the per-run centers over valid runs;
  /// 0 for a single valid run, NaN when no run was valid.
  double cv_center() const;
  DataSize mean_bytes() const;
  double mean_packets() const;
  Duration mean_elapsed() const;

  /// Per-outcome run counts, indexed by EstimateReport::Outcome in enum
  /// order (ok, degraded, timeout, failed).
  std::array<int, 4> outcome_counts() const;
  /// Single label when every run agrees ("ok"), else "label:n" pairs in
  /// enum order ("ok:3 degraded:2"); "n/a" for an empty cell.
  std::string outcome_summary() const;
  /// Mean per-run probe-loss fraction over all runs (valid or not).
  double mean_loss_fraction() const;
};

/// One planned (estimator × scenario × load) cell of a matrix, enumerated
/// before anything runs. `est` points into the caller's estimator list and
/// must outlive the plan; `spec` is already loaded to the cell's
/// utilization and `seed0` is the cell's base seed.
struct MatrixCellPlan {
  const MatrixEstimator* est;
  ScenarioSpec spec;
  double load;
  std::uint64_t seed0;
};

/// Deterministic cell enumeration shared by run_matrix and the sharded
/// runner (scenario/shard.hpp): estimator-major, then scenario, then load,
/// with the fig05 seed derivation (seed0 + round(u * 1000); an empty
/// `loads` list keeps each scenario at its own configured load with the
/// plain seed0). Shard workers partition exactly this list, so a cell's
/// global index — and therefore its seeds — is identical in-process and
/// across any shard count.
std::vector<MatrixCellPlan> plan_matrix(const std::vector<MatrixEstimator>& estimators,
                                        const std::vector<ScenarioSpec>& scenarios,
                                        const std::vector<double>& loads,
                                        std::uint64_t seed0);

/// Run an explicit list of planned cells, `runs` independent seeds per
/// cell (run i of a cell uses plan.seed0 + i), fanned out on `runner`.
std::vector<MatrixCell> run_planned_cells(const std::vector<MatrixCellPlan>& plans,
                                          int runs, SweepRunner& runner);

/// Run every estimator × every scenario × every load, `runs` independent
/// seeds per cell, fanned out on `runner` (each run is a self-contained
/// simulation, so results are independent of the thread count).
///
/// Seed derivation matches the figure benches (see plan_matrix). A
/// pathload-only matrix therefore reproduces the numbers of
/// sweep_scenario_repeated (and `scenario_runner --sweep`) bit-for-bit.
std::vector<MatrixCell> run_matrix(const std::vector<MatrixEstimator>& estimators,
                                   const std::vector<ScenarioSpec>& scenarios,
                                   const std::vector<double>& loads, int runs,
                                   std::uint64_t seed0, SweepRunner& runner);

/// One estimator run on a fresh ScenarioInstance built from `spec` with
/// its seed overridden to `seed` — the estimator-generic analogue of
/// run_scenario_once (and identical to it for pathload). Runs guarded:
/// a mid-run ChannelFault or stray exception becomes a `failed` report
/// instead of tearing down the matrix.
core::EstimateReport run_estimator_once(const ScenarioSpec& spec,
                                        core::Estimator& est, std::uint64_t seed);

}  // namespace pathload::scenario
