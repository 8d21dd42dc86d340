#include <gtest/gtest.h>

#include <cstddef>
#include <deque>

#include "util/ring_buffer.hpp"

namespace pathload {
namespace {

TEST(RingBuffer, StartsEmptyWithoutStorage) {
  RingBuffer<int> r;
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.size(), 0u);
  EXPECT_EQ(r.capacity(), 0u);
}

TEST(RingBuffer, FifoAcrossGrowthAndWrapMatchesDeque) {
  // Interleave pushes and pops so the head walks around the array while it
  // doubles; the contents must always read like a std::deque's.
  RingBuffer<int> r;
  std::deque<int> ref;
  int next = 0;
  for (int round = 0; round < 200; ++round) {
    const int pushes = 1 + (round * 7) % 11;
    const int pops = (round * 5) % 9;
    for (int i = 0; i < pushes; ++i) {
      r.push_back(next);
      ref.push_back(next++);
    }
    for (int i = 0; i < pops && !ref.empty(); ++i) {
      ASSERT_EQ(r.front(), ref.front());
      r.pop_front();
      ref.pop_front();
    }
    ASSERT_EQ(r.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) ASSERT_EQ(r[i], ref[i]);
  }
  const std::size_t cap = r.capacity();
  EXPECT_GE(cap, r.size());
  EXPECT_EQ(cap & (cap - 1), 0u) << "capacity must be a power of two";
}

TEST(RingBuffer, SteadyStateNeverGrows) {
  // A queue that cycles below its peak occupancy keeps its array: this is
  // what makes a link allocation-free once warmed up.
  RingBuffer<int> r;
  for (int i = 0; i < 20; ++i) r.push_back(i);
  const std::size_t cap = r.capacity();
  for (int i = 0; i < 10'000; ++i) {
    r.pop_front();
    r.push_back(i);
  }
  EXPECT_EQ(r.capacity(), cap);
  EXPECT_EQ(r.size(), 20u);
  EXPECT_EQ(r.front(), 10'000 - 20);
}

TEST(RingBuffer, ElementsAreWritableInPlace) {
  RingBuffer<int> r;
  for (int i = 0; i < 5; ++i) r.push_back(i);
  r[2] = 42;
  r.front() = 7;
  EXPECT_EQ(r[0], 7);
  EXPECT_EQ(r[2], 42);
}

}  // namespace
}  // namespace pathload
