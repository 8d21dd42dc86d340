// Allocation bounds of whole measurement sessions. This binary replaces the
// global operator new with a counting one, so it is a test executable of
// its own. The bounds are the counts measured when they were set: a change
// that allocates per event or per packet again (a calendar bucket that
// grows on first use, a closure per delivery) fails here.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>

#include "baselines/estimators.hpp"
#include "core/estimator.hpp"
#include "scenario/registry.hpp"
#include "scenario/sim_channel.hpp"
#include "scenario/spec.hpp"
#include "util/rng.hpp"

namespace {
std::uint64_t g_allocations = 0;  // the tests run on one thread
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace pathload::scenario {
namespace {

/// Allocations of one pathload session on `preset`, seed 77, under
/// `engine`, run the way the estimator registry runs it: from building the
/// instance to the report.
std::uint64_t session_allocations(const char* preset, EngineVersion engine) {
  ScenarioSpec spec = Registry::builtin().at(preset);
  spec.engine = engine;
  spec.seed = 77;
  const auto est = baselines::builtin_estimators().make("pathload");
  const std::uint64_t before = g_allocations;
  {
    ScenarioInstance inst{std::move(spec)};
    inst.start();
    SimProbeChannel channel{inst.simulator(), inst.path()};
    Rng rng{77};
    const core::EstimateReport report = core::run_guarded(*est, channel, rng);
    EXPECT_EQ(report.outcome, core::EstimateReport::Outcome::kOk) << report.outcome_note;
  }
  return g_allocations - before;
}

TEST(Allocations, V1PaperPathPathloadSessionBounded) {
  const std::uint64_t n = session_allocations("paper-path", EngineVersion::kV1);
  RecordProperty("allocations", static_cast<int>(n));
  EXPECT_LE(n, 678u);
}

TEST(Allocations, V2PaperPathPathloadSessionBounded) {
  const std::uint64_t n = session_allocations("paper-path", EngineVersion::kV2);
  RecordProperty("allocations", static_cast<int>(n));
  EXPECT_LE(n, 692u);
}

}  // namespace
}  // namespace pathload::scenario
