#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace pathload {
namespace {

// Seeds for the comparisons against the std:: objects, including both
// extremes of the seed range.
const std::vector<std::uint64_t> kSeeds{0, 1, 42, 5489, 20020800, 0x8000000000000000ULL,
                                        0xFFFFFFFFFFFFFFFFULL};

TEST(Mt19937_64, WordsMatchStdMt19937_64) {
  // 4,000 words cross the twist a dozen times per seed.
  for (const std::uint64_t seed : kSeeds) {
    Mt19937_64 ours{seed};
    std::mt19937_64 ref{seed};
    for (int i = 0; i < 4000; ++i) {
      ASSERT_EQ(ours(), ref()) << "seed " << seed << ", word " << i;
    }
  }
  Mt19937_64 ours;
  std::mt19937_64 ref;
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(ours(), ref()) << "default seed, word " << i;
}

TEST(Rng, UniformMatchesStdUniformRealDistribution) {
  for (const std::uint64_t seed : kSeeds) {
    Rng rng{seed};
    std::mt19937_64 ref{seed};
    std::uniform_real_distribution<double> dist{0.0, 1.0};
    for (int i = 0; i < 2000; ++i) {
      ASSERT_EQ(rng.uniform(), dist(ref)) << "seed " << seed << ", draw " << i;
    }
  }
}

TEST(Rng, ExponentialMatchesStdExponentialDistribution) {
  for (const std::uint64_t seed : kSeeds) {
    for (const double mean : {1e-4, 0.0123, 1.0, 3.0, 1e6}) {
      Rng rng{seed};
      std::mt19937_64 ref{seed};
      for (int i = 0; i < 500; ++i) {
        const double want = std::exponential_distribution<double>{1.0 / mean}(ref);
        ASSERT_EQ(rng.exponential(mean), want)
            << "seed " << seed << ", mean " << mean << ", draw " << i;
      }
    }
  }
}

TEST(Rng, UniformIndexMatchesStdUniformIntDistribution) {
  for (const std::uint64_t seed : kSeeds) {
    Rng rng{seed};
    std::mt19937_64 ref{seed};
    for (const std::uint64_t n : {1ULL, 2ULL, 13ULL, 1000ULL, 0x8000000000000001ULL}) {
      for (int i = 0; i < 200; ++i) {
        std::uniform_int_distribution<std::uint64_t> dist{0, n - 1};
        ASSERT_EQ(rng.uniform_index(n), dist(ref)) << "seed " << seed << ", n " << n;
      }
    }
  }
}

/// A 64-bit UniformRandomBitGenerator that returns one fixed word, to put
/// chosen words through the std:: distribution.
struct FixedWord {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() const { return word; }
  result_type word;
};

TEST(Rng, UnitFromWordMatchesCanonicalAtRoundingEdges) {
  // The words where the two-halves conversion could part from the plain
  // cast: around 2^53 (the first words a double cannot hold), around 2^63
  // (the top bit, where the plain cast branches) and the top words, which
  // round to 2^64 and take the nextafter clamp.
  const std::uint64_t p53 = std::uint64_t{1} << 53;
  const std::uint64_t p63 = std::uint64_t{1} << 63;
  const std::uint64_t top = ~std::uint64_t{0};
  std::vector<std::uint64_t> words{0,       1,       0xFFFFFFFFULL, 0x100000000ULL,
                                   p53 - 1, p53,     p53 + 1,       p53 + 2,
                                   p53 + 3, p63 - 1, p63,           p63 + 1,
                                   p63 + 0x400, p63 + 0x401, p63 + 0xC00, top - 0x400,
                                   top - 0x3FF, top - 1, top};
  Mt19937_64 gen{7};
  for (int i = 0; i < 1000; ++i) words.push_back(gen());
  for (const std::uint64_t w : words) {
    FixedWord stub{w};
    const double want = std::uniform_real_distribution<double>{0.0, 1.0}(stub);
    EXPECT_EQ(Rng::unit_from_word(w), want) << std::hex << "word 0x" << w;
  }
  EXPECT_EQ(Rng::unit_from_word(top), std::nextafter(1.0, 0.0));
  EXPECT_LT(Rng::unit_from_word(top - 0x400), 1.0);
}

TEST(Rng, DeterministicGivenSeed) {
  Rng a{42};
  Rng b{42};
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1};
  Rng b{2};
  bool any_different = false;
  for (int i = 0; i < 10; ++i) {
    if (a.uniform() != b.uniform()) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST(Rng, UniformRange) {
  Rng rng{7};
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(2.0, 5.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, UniformIndexInBounds) {
  Rng rng{7};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform_index(13), 13u);
  }
}

TEST(Rng, ExponentialMeanConverges) {
  Rng rng{11};
  OnlineStats s;
  for (int i = 0; i < 200'000; ++i) s.add(rng.exponential(3.0));
  EXPECT_NEAR(s.mean(), 3.0, 0.05);
  // Exponential: stddev == mean.
  EXPECT_NEAR(s.stddev(), 3.0, 0.1);
}

TEST(Rng, ParetoMeanConverges) {
  Rng rng{13};
  OnlineStats s;
  for (int i = 0; i < 400'000; ++i) s.add(rng.pareto(1.9, 2.0));
  // alpha = 1.9 has a finite mean but infinite variance; the sample mean
  // converges slowly, so the tolerance is loose.
  EXPECT_NEAR(s.mean(), 2.0, 0.25);
}

TEST(Rng, ParetoRespectsMinimum) {
  Rng rng{17};
  const double alpha = 1.9;
  const double mean = 2.0;
  const double x_m = mean * (alpha - 1.0) / alpha;
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_GE(rng.pareto(alpha, mean), x_m);
  }
}

TEST(Rng, ParetoHeavyTailProducesLargeSamples) {
  Rng rng{19};
  double largest = 0.0;
  for (int i = 0; i < 100'000; ++i) largest = std::max(largest, rng.pareto(1.9, 1.0));
  // With alpha = 1.9 and 1e5 samples, bursts an order of magnitude above
  // the mean are essentially certain.
  EXPECT_GT(largest, 20.0);
}

TEST(Rng, ParetoRejectsAlphaWithInfiniteMean) {
  Rng rng{23};
  EXPECT_THROW(rng.pareto(1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(rng.pareto(0.5, 1.0), std::invalid_argument);
}

TEST(Rng, PickWeightedMatchesWeights) {
  Rng rng{29};
  const std::vector<double> weights{0.4, 0.5, 0.1};
  std::vector<int> counts(3, 0);
  const int n = 100'000;
  for (int i = 0; i < n; ++i) ++counts[rng.pick_weighted(weights)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.4, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.5, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.1, 0.01);
}

TEST(Rng, PickWeightedRejectsEmpty) {
  Rng rng{31};
  EXPECT_THROW(rng.pick_weighted({}), std::invalid_argument);
}

TEST(Rng, ForkProducesIndependentStreams) {
  Rng parent{37};
  Rng child1 = parent.fork();
  Rng child2 = parent.fork();
  // Children seeded differently from each other.
  bool differ = false;
  for (int i = 0; i < 10; ++i) {
    if (child1.uniform() != child2.uniform()) differ = true;
  }
  EXPECT_TRUE(differ);
}

}  // namespace
}  // namespace pathload
