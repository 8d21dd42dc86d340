#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

namespace pathload {

/// MT19937-64, word for word the generator `std::mt19937_64` is (same
/// seeding, twist and tempering), usable wherever a
/// UniformRandomBitGenerator is. Only the twist differs in form: it
/// selects the matrix term with a mask, `(0 - (y & 1)) & a`, where
/// libstdc++ branches on `y & 1`. A random bit mispredicts half the time,
/// which made the twist cost about 9 ns per word on baseline x86-64
/// against 2-3.5 ns branch-free. `tests/util/rng_test.cpp` compares the
/// words against `std::mt19937_64`.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t kStateSize = 312;
  static constexpr result_type default_seed = 5489u;

  explicit Mt19937_64(result_type seed = default_seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (pos_ >= kStateSize) twist();
    result_type z = state_[pos_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    z ^= z >> 43;
    return z;
  }

 private:
  void twist();

  std::array<result_type, kStateSize> state_;
  std::size_t pos_;
};

/// Seeded pseudo-random source used everywhere randomness is needed.
///
/// Every experiment takes an explicit seed so simulation results are
/// reproducible run-to-run (the paper's NS simulations are similarly
/// seed-controlled). One Rng instance must not be shared across logically
/// independent streams of randomness if independence matters; derive child
/// generators with `fork()`.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_{seed} {}

  /// Uniform in [0, 1): one engine word through unit_from_word.
  double uniform() { return unit_from_word(engine_()); }

  /// The map from one 64-bit word to [0, 1) behind uniform().
  ///
  /// Bit-identical to `std::uniform_real_distribution<double>{0, 1}` over
  /// a 64-bit engine on libstdc++ (its generate_canonical converts one word
  /// to double, divides by 2^64 -- exact power-of-two scaling, reproduced
  /// by the multiply below -- and clamps a result that rounds to 1.0 with
  /// the same nextafter, consuming no extra word; see bits/random.tcc).
  /// The word is converted as two exact 32-bit halves whose sum rounds
  /// once, so the double equals the plain cast's; baseline x86-64 has no
  /// unsigned 64-bit conversion, and the plain cast branches on the top
  /// bit. Skips the distribution object's long-double detour as well.
  static double unit_from_word(std::uint64_t w) {
    const double d = static_cast<double>(static_cast<std::uint32_t>(w >> 32)) * 0x1p32 +
                     static_cast<double>(static_cast<std::uint32_t>(w));
    const double u = d * 0x1p-64;
    return u < 1.0 ? u : std::nextafter(1.0, 0.0);
  }

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n).
  std::uint64_t uniform_index(std::uint64_t n) {
    return std::uniform_int_distribution<std::uint64_t>{0, n - 1}(engine_);
  }

  /// Exponential with the given mean (Poisson process interarrivals).
  /// Bit-identical to `std::exponential_distribution<double>{1.0 / mean}`
  /// on libstdc++, which computes -log(1 - u) / lambda from one canonical
  /// draw u (bits/random.h).
  double exponential(double mean) { return -std::log(1.0 - uniform()) / (1.0 / mean); }

  /// Pareto with shape `alpha` and the given mean (requires alpha > 1).
  ///
  /// The paper's cross traffic uses Pareto interarrivals with alpha = 1.9:
  /// finite mean but infinite variance, i.e. heavy burstiness. Scale is
  /// x_m = mean * (alpha - 1) / alpha so that E[X] = mean.
  double pareto(double alpha, double mean);

  /// The inverse-CDF transform behind `pareto`, exposed so hot paths that
  /// hoist the constants (x_m, 1/alpha) out of the loop share one
  /// definition -- the drawn sequence must stay bit-identical between the
  /// two call styles.
  static double pareto_from_uniform(double u01, double x_m, double inv_alpha) {
    const double u = 1.0 - u01;  // in (0, 1]
    return x_m / std::pow(u, inv_alpha);
  }

  /// Pick an index from a discrete distribution given by weights.
  std::size_t pick_weighted(std::span<const double> weights);

  /// Derive an independent child generator (stable given this Rng's state).
  Rng fork() { return Rng{engine_()}; }

  Mt19937_64& engine() { return engine_; }

 private:
  Mt19937_64 engine_;
};

}  // namespace pathload
