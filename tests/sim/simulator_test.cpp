#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "sim/simulator.hpp"

namespace pathload::sim {
namespace {

TEST(Simulator, StartsAtOrigin) {
  Simulator sim;
  EXPECT_EQ(sim.now(), TimePoint::origin());
  EXPECT_EQ(sim.events_processed(), 0u);
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_in(Duration::milliseconds(3), [&] { order.push_back(3); });
  sim.schedule_in(Duration::milliseconds(1), [&] { order.push_back(1); });
  sim.schedule_in(Duration::milliseconds(2), [&] { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, SimultaneousEventsFifo) {
  Simulator sim;
  std::vector<int> order;
  const TimePoint t = sim.now() + Duration::milliseconds(1);
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(t, [&order, i] { order.push_back(i); });
  }
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ClockAdvancesToEventTime) {
  Simulator sim;
  TimePoint seen;
  sim.schedule_in(Duration::milliseconds(7), [&] { seen = sim.now(); });
  sim.run_all();
  EXPECT_EQ(seen, TimePoint::origin() + Duration::milliseconds(7));
  EXPECT_EQ(sim.now(), seen);
}

TEST(Simulator, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule_in(Duration::milliseconds(5), [&] { ++fired; });
  sim.schedule_in(Duration::milliseconds(15), [&] { ++fired; });
  sim.run_until(TimePoint::origin() + Duration::milliseconds(10));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), TimePoint::origin() + Duration::milliseconds(10));
  sim.run_all();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventsScheduledDuringRunAreProcessed) {
  Simulator sim;
  int depth = 0;
  sim.schedule_in(Duration::milliseconds(1), [&] {
    ++depth;
    sim.schedule_in(Duration::milliseconds(1), [&] { ++depth; });
  });
  sim.run_all();
  EXPECT_EQ(depth, 2);
}

TEST(Simulator, RejectsSchedulingInThePast) {
  Simulator sim;
  sim.schedule_in(Duration::milliseconds(5), [] {});
  sim.run_all();
  EXPECT_THROW(sim.schedule_at(TimePoint::origin(), [] {}), std::logic_error);
}

TEST(Simulator, RunNextSingleSteps) {
  Simulator sim;
  int fired = 0;
  sim.schedule_in(Duration::milliseconds(1), [&] { ++fired; });
  sim.schedule_in(Duration::milliseconds(2), [&] { ++fired; });
  EXPECT_TRUE(sim.run_next());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.run_next());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sim.run_next());
}

TEST(Simulator, CountsProcessedEvents) {
  Simulator sim;
  for (int i = 0; i < 10; ++i) sim.schedule_in(Duration::milliseconds(i + 1), [] {});
  sim.run_all();
  EXPECT_EQ(sim.events_processed(), 10u);
}

TEST(Simulator, IdGeneratorsAreUnique) {
  Simulator sim;
  EXPECT_NE(sim.next_packet_id(), sim.next_packet_id());
  EXPECT_NE(sim.next_flow_id(), sim.next_flow_id());
  // Flow 0 is reserved for cross traffic and never handed out.
  Simulator fresh;
  EXPECT_NE(fresh.next_flow_id(), 0u);
}

TEST(Simulator, FastForwardCountsResolvedEventsAndMovesTheClock) {
  Simulator sim;
  sim.schedule_in(Duration::milliseconds(1), [] {});
  sim.run_all();
  const TimePoint t = sim.now() + Duration::milliseconds(7);
  sim.fast_forward(t, 12);
  EXPECT_EQ(sim.now(), t);
  // events_processed() counts fired and resolved events; events_resolved()
  // tells the two apart.
  EXPECT_EQ(sim.events_processed(), 13u);
  EXPECT_EQ(sim.events_resolved(), 12u);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_THROW(sim.fast_forward(t - Duration::nanoseconds(1), 1), std::logic_error);
}

TEST(Simulator, FastForwardThrowsWithALiveKeyQueued) {
  Simulator sim;
  sim.schedule_in(Duration::milliseconds(1), [] {});
  EXPECT_THROW(sim.fast_forward(sim.now() + Duration::milliseconds(2), 1), std::logic_error);
  EXPECT_EQ(sim.events_processed(), 0u);  // a throwing call changes nothing
  EXPECT_EQ(sim.now(), TimePoint::origin());
  sim.run_all();

  // An armed timer is a live key.
  auto timer = sim.make_timer([] {});
  timer.schedule_in(Duration::milliseconds(1));
  EXPECT_THROW(sim.fast_forward(sim.now() + Duration::milliseconds(2), 1), std::logic_error);
  // Re-armed, a plain timer's old key goes stale and no longer counts...
  timer.schedule_in(Duration::milliseconds(3));
  timer.cancel();
  EXPECT_NO_THROW(sim.fast_forward(sim.now() + Duration::milliseconds(2), 1));

  // ...but a counted timer's stale key is still an event to come.
  auto counted = sim.make_counted_timer([] {});
  counted.schedule_in(Duration::milliseconds(1));
  counted.cancel();
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_THROW(sim.fast_forward(sim.now() + Duration::milliseconds(2), 1), std::logic_error);
  sim.run_all();
  EXPECT_NO_THROW(sim.fast_forward(sim.now(), 0));
}

TEST(Simulator, ScheduleAfterFastForwardPastTheWindowReAnchors) {
  // The clock jumps seconds past the calendar window; the next key past the
  // window lands in the fast lane of a re-anchored window, and later ones
  // still pop in (time, ticket) order.
  Simulator sim;
  sim.fast_forward(TimePoint::origin() + Duration::seconds(5), 3);
  const std::uint64_t fast_before = sim.lane_inserts().fast;
  std::vector<int> order;
  const TimePoint base = sim.now() + Duration::milliseconds(40);
  sim.schedule_at(base, [&] { order.push_back(1); });
  EXPECT_EQ(sim.lane_inserts().fast, fast_before + 1);
  sim.schedule_at(base + Duration::seconds(3), [&] { order.push_back(4); });
  sim.schedule_at(base + Duration::milliseconds(20), [&] { order.push_back(3); });
  sim.schedule_at(base, [&] { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(sim.events_processed(), 7u);
  EXPECT_EQ(sim.events_resolved(), 3u);
}

}  // namespace
}  // namespace pathload::sim
