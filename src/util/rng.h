// Deterministic pseudo-random number generation.
//
// All randomness in the project flows through Rng so that corpus generation,
// experiments, and tests are bit-reproducible given a seed. The core
// generator is xoshiro256**, seeded via SplitMix64 (the recommended seeding
// procedure for the xoshiro family).

#ifndef WIKIMATCH_UTIL_RNG_H_
#define WIKIMATCH_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace wikimatch {
namespace util {

/// \brief SplitMix64 step: advances `state` and returns the next output.
///
/// Exposed for seeding and for cheap one-shot hashing of identifiers into
/// per-object seeds.
uint64_t SplitMix64(uint64_t* state);

class ZipfSampler;

/// \brief Deterministic xoshiro256** generator.
class Rng {
 public:
  /// Constructs a generator whose entire stream is a function of `seed`.
  explicit Rng(uint64_t seed);

  /// \brief Next 64 uniform random bits.
  uint64_t NextU64();

  /// \brief Uniform integer in [0, bound). `bound` must be > 0.
  ///
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  uint64_t NextBounded(uint64_t bound);

  /// \brief Uniform double in [0, 1).
  double NextDouble();

  /// \brief Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInt(int64_t lo, int64_t hi);

  /// \brief Bernoulli trial with success probability `p` (clamped to [0,1]).
  bool NextBool(double p);

  /// \brief Standard normal variate (Box-Muller; consumes two doubles).
  double NextGaussian();

  /// \brief Zipf-distributed rank in [0, n) with exponent `s`.
  ///
  /// Rank 0 is the most probable. Draws exactly what a fresh
  /// ZipfSampler(n, s) would; the sampler for the last (n, s) is cached,
  /// so only a change of parameters pays its O(n) construction.
  uint64_t NextZipf(uint64_t n, double s);

  /// \brief Index drawn from the discrete distribution given by `weights`.
  ///
  /// Weights must be non-negative with a positive sum.
  size_t NextWeighted(const std::vector<double>& weights);

  /// \brief Fisher-Yates shuffle of `v` in place.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(NextBounded(i));
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

  /// \brief Forks a child generator with an independent-looking stream.
  ///
  /// Derived deterministically from this generator's next output and
  /// `stream_id`, so the parent/child structure is reproducible.
  Rng Fork(uint64_t stream_id);

 private:
  uint64_t s_[4];
  // NextZipf's sampler for (zipf_n_, zipf_s_); immutable, so copies of
  // this generator may share it.
  std::shared_ptr<const ZipfSampler> zipf_;
  uint64_t zipf_n_ = 0;
  double zipf_s_ = 0.0;
};

/// \brief Precomputed Zipf sampler over ranks [0, n).
///
/// Builds the CDF once (O(n)) and samples in O(log n); suitable for the
/// corpus generator's heavy-tailed attribute and entity popularity draws.
class ZipfSampler {
 public:
  ZipfSampler(uint64_t n, double exponent);

  /// \brief Draws a rank in [0, n); rank 0 is most probable.
  uint64_t Sample(Rng* rng) const;

  /// \brief Probability mass of `rank`.
  double Pmf(uint64_t rank) const;

 private:
  std::vector<double> cdf_;
};

}  // namespace util
}  // namespace wikimatch

#endif  // WIKIMATCH_UTIL_RNG_H_
