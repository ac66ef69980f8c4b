#include "util/rng.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace wikimatch {
namespace util {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {
inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& lane : s_) lane = SplitMix64(&sm);
  // Guard against the (astronomically unlikely) all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 0x9E3779B97F4A7C15ULL;
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  assert(bound > 0);
  // Lemire's nearly-divisionless unbiased bounded generation.
  uint64_t x = NextU64();
  __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
  uint64_t l = static_cast<uint64_t>(m);
  if (l < bound) {
    uint64_t t = (0 - bound) % bound;
    while (l < t) {
      x = NextU64();
      m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

double Rng::NextDouble() {
  // 53 high bits -> [0, 1) with full double precision.
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(NextBounded(span));
}

bool Rng::NextBool(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

double Rng::NextGaussian() {
  // Box-Muller; u1 in (0,1] to avoid log(0).
  double u1 = 1.0 - NextDouble();
  double u2 = NextDouble();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

uint64_t Rng::NextZipf(uint64_t n, double s) {
  if (zipf_ == nullptr || zipf_n_ != n || zipf_s_ != s) {
    zipf_ = std::make_shared<const ZipfSampler>(n, s);
    zipf_n_ = n;
    zipf_s_ = s;
  }
  return zipf_->Sample(this);
}

size_t Rng::NextWeighted(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    assert(w >= 0.0);
    total += w;
  }
  assert(total > 0.0);
  double target = NextDouble() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (target < acc) return i;
  }
  return weights.size() - 1;  // Floating-point edge: land on the last index.
}

Rng Rng::Fork(uint64_t stream_id) {
  uint64_t mix = NextU64() ^ (stream_id * 0xA24BAED4963EE407ULL + 1);
  return Rng(mix);
}

ZipfSampler::ZipfSampler(uint64_t n, double exponent) {
  assert(n > 0);
  cdf_.resize(n);
  double acc = 0.0;
  for (uint64_t i = 0; i < n; ++i) {
    acc += std::pow(static_cast<double>(i + 1), -exponent);
    cdf_[i] = acc;
  }
  for (auto& c : cdf_) c /= acc;
}

uint64_t ZipfSampler::Sample(Rng* rng) const {
  double u = rng->NextDouble();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) return cdf_.size() - 1;
  return static_cast<uint64_t>(it - cdf_.begin());
}

double ZipfSampler::Pmf(uint64_t rank) const {
  assert(rank < cdf_.size());
  if (rank == 0) return cdf_[0];
  return cdf_[rank] - cdf_[rank - 1];
}

}  // namespace util
}  // namespace wikimatch
