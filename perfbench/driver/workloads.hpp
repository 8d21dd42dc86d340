// The benchmark's workloads: what one op runs, built only from the
// library's public entry points (ScenarioInstance + start(),
// EstimatorRegistry::make, core::run_guarded, generate_scenario/fuzz_one).

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "trace.hpp"

namespace perfbench {

/// Inputs come from a fixed pool per workload, so every op has a recorded
/// digest: `configs()` scenarios (or fuzz slots) x `depth()` seeds each.
/// Pool 0 is the tuning pool; pool 1 is held out for checking gain claims.
constexpr int kPools = 2;
constexpr std::uint64_t kPoolBase[kPools] = {20020800, 31415926};

struct OpInput {
  int pool{0};
  int config{0};
  int index{0};
};

/// What one op produced.
struct OpOutcome {
  /// Hash of every report's low/high/outcome/packets_sent/elapsed bits and
  /// the exact event and forwarded-packet counts of every Simulator the op
  /// built (where the driver can see them).
  std::uint64_t digest{0};
  /// Simulated seconds advanced by every Simulator the op built.
  double sim_s{0.0};
  /// Non-empty when the op failed: an exception, an exception-backed
  /// `failed` report, or a fuzz invariant violation.
  std::string error;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual int configs() const = 0;
  virtual int depth() const = 0;

  /// Run one op. With a tracer every call into a layer is a span and the
  /// exact per-op counts are added to its counters; without, the op runs
  /// exactly as a user's program would.
  virtual OpOutcome run(const OpInput& in, Tracer* tr) = 0;

  /// Run pool entry (0, 0, 0) through the decorated path and through a bare
  /// scenario::run_estimator_once; returns a description of the first
  /// report that differs in any bit, or an empty string.
  virtual std::string check_decorator_identity() = 0;
};

/// The workload of that name, or nullptr.
std::unique_ptr<Workload> make_workload(std::string_view name);

/// Percentile reported as op_ms_tail for the workload (chosen so a run of
/// the default length leaves well over ten ops beyond it).
double tail_percentile(std::string_view name);

/// Golden seed-77 anchors of both engines (tests/integration); returns a
/// description of the first mismatch, or an empty string.
std::string check_engine_anchors();

}  // namespace perfbench
