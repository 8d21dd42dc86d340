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

TEST(RingBuffer, InsertAtAnyPlaceMatchesDequeAcrossTheWrap) {
  // Every insert position at every head offset and fill of an 8- and a
  // 16-slot array, so the moved run starts, ends and crosses the wrap
  // everywhere; also an insert into a full array, which grows it first.
  for (int offset = 0; offset < 16; ++offset) {
    for (int fill = 0; fill <= 16; ++fill) {
      for (int at = 0; at <= fill; ++at) {
        RingBuffer<int> r;
        std::deque<int> d;
        for (int i = 0; i < offset; ++i) r.push_back(-1);
        for (int i = 0; i < offset; ++i) r.pop_front();
        for (int i = 0; i < fill; ++i) {
          r.push_back(i);
          d.push_back(i);
        }
        r.insert(static_cast<std::size_t>(at), 100);
        d.insert(d.begin() + at, 100);
        ASSERT_EQ(r.size(), d.size());
        for (std::size_t i = 0; i < d.size(); ++i) {
          ASSERT_EQ(r[i], d[i]) << "offset " << offset << " fill " << fill << " at " << at;
        }
      }
    }
  }
}

TEST(RingBuffer, ClearKeepsTheArray) {
  RingBuffer<int> r;
  for (int i = 0; i < 20; ++i) r.push_back(i);
  const std::size_t cap = r.capacity();
  r.clear();
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.capacity(), cap);
  r.push_back(5);
  EXPECT_EQ(r.front(), 5);
}

}  // namespace
}  // namespace pathload
