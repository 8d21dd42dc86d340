#include "scenario/sweep_runner.hpp"

#include <cstdlib>
#include <exception>
#include <mutex>

namespace pathload::scenario {

namespace {

int resolve_threads(int requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("PATHLOAD_THREADS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

}  // namespace

SweepRunner::SweepRunner(int threads) : threads_{resolve_threads(threads)} {}

void SweepRunner::run_indexed(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const auto workers =
      static_cast<std::size_t>(threads_) < n ? static_cast<std::size_t>(threads_) : n;
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n || failed.load(std::memory_order_relaxed)) return;
      try {
        fn(i);
      } catch (...) {
        {
          const std::lock_guard<std::mutex> lock{error_mutex};
          if (!first_error) first_error = std::current_exception();
        }
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  try {
    for (std::size_t t = 1; t < workers; ++t) pool.emplace_back(worker);
  } catch (...) {
    // Thread exhaustion: abort the sweep (failed=true makes every worker,
    // including this thread, stop at its next index fetch), join whatever
    // spawned, and surface the spawn failure -- destroying a joinable
    // std::thread would terminate the process.
    failed.store(true, std::memory_order_relaxed);
    {
      const std::lock_guard<std::mutex> lock{error_mutex};
      if (!first_error) first_error = std::current_exception();
    }
  }
  worker();  // the calling thread pulls its weight too
  for (auto& t : pool) t.join();

  if (first_error) std::rethrow_exception(first_error);
}

std::vector<core::PathloadResult> sweep_pathload(const std::vector<SweepPoint>& points,
                                                 SweepRunner& runner) {
  return runner.map(points.size(), [&](std::size_t i) {
    return run_scenario_once(points[i].spec, points[i].tool, points[i].seed);
  });
}

RepeatedRuns sweep_scenario_repeated(const ScenarioSpec& spec,
                                     const core::PathloadConfig& tool_cfg, int runs,
                                     std::uint64_t seed0, SweepRunner& runner) {
  RepeatedRuns out;
  out.results = runner.map(static_cast<std::size_t>(runs), [&](std::size_t i) {
    return run_scenario_once(spec, tool_cfg, seed0 + i);
  });
  return out;
}

}  // namespace pathload::scenario
