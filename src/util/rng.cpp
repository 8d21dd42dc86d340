#include "util/rng.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>

namespace pathload {

Mt19937_64::Mt19937_64(result_type seed) : pos_{kStateSize} {
  state_[0] = seed;
  for (std::size_t i = 1; i < kStateSize; ++i) {
    const result_type x = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (x ^ (x >> 62)) + i;
  }
}

void Mt19937_64::twist() {
  constexpr std::size_t n = kStateSize;
  constexpr std::size_t m = 156;
  constexpr result_type upper = ~result_type{0} << 31;
  constexpr result_type lower = ~upper;
  constexpr result_type a = 0xB5026F5AA96619E9ULL;
  // The matrix term is a when the low bit of y is set: a mask, not a branch.
  const auto mix = [](result_type hi, result_type lo) {
    const result_type y = (hi & upper) | (lo & lower);
    return (y >> 1) ^ ((result_type{0} - (y & 1)) & a);
  };
  std::size_t k = 0;
  for (; k < n - m; ++k) state_[k] = state_[k + m] ^ mix(state_[k], state_[k + 1]);
  for (; k < n - 1; ++k) state_[k] = state_[k + m - n] ^ mix(state_[k], state_[k + 1]);
  state_[n - 1] = state_[m - 1] ^ mix(state_[n - 1], state_[0]);
  pos_ = 0;
}

double Rng::pareto(double alpha, double mean) {
  if (alpha <= 1.0) {
    throw std::invalid_argument{"Pareto mean is infinite for alpha <= 1"};
  }
  const double x_m = mean * (alpha - 1.0) / alpha;
  // Inverse-CDF sampling: X = x_m / U^(1/alpha), U ~ Uniform(0,1].
  return pareto_from_uniform(uniform(), x_m, 1.0 / alpha);
}

std::size_t Rng::pick_weighted(std::span<const double> weights) {
  if (weights.empty()) {
    throw std::invalid_argument{"pick_weighted: empty weights"};
  }
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  double x = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0.0) return i;
  }
  return weights.size() - 1;
}

}  // namespace pathload
