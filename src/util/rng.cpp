#include "util/rng.h"

#include <cmath>
#include <random>

#include "util/contracts.h"

// std::binomial_distribution (and data/bucketing.cpp) call lgamma, and
// glibc's lgamma also stores the sign of Gamma(x) in the global
// `signgam`: a data race once two threads draw binomials at once. This
// definition replaces libm's in every program that links rng.o and
// returns the same value through the reentrant lgamma_r.
extern "C" double lgamma(double x) noexcept {
    int sign = 0;
    return ::lgamma_r(x, &sign);
}

namespace quorum::util {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) noexcept {
    // Two SplitMix64 steps keyed by (seed ^ golden-ratio-scrambled index):
    // enough mixing that adjacent indices give unrelated streams.
    splitmix64 mixer(seed ^
                     (index * 0x9e3779b97f4a7c15ULL + 0x632be59bd9b4e019ULL));
    (void)mixer();
    return mixer();
}

rng rng::child(std::uint64_t index) const noexcept {
    return rng(derive_seed(seed_, index));
}

double rng::uniform() {
    // 53-bit mantissa construction: uniform on [0, 1).
    return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
}

double rng::uniform(double lo, double hi) {
    QUORUM_EXPECTS(lo <= hi);
    return lo + (hi - lo) * uniform();
}

double rng::angle() {
    return uniform(0.0, 2.0 * 3.14159265358979323846);
}

std::size_t rng::uniform_index(std::size_t n) {
    QUORUM_EXPECTS(n > 0);
    const std::uint64_t x = engine_();
#if defined(__SIZEOF_INT128__)
    // Lemire multiply-shift: exact 128-bit multiply-high (GCC/Clang).
    const unsigned __int128 m =
        static_cast<unsigned __int128>(x) * static_cast<unsigned __int128>(n);
    return static_cast<std::size_t>(m >> 64);
#else
    // Portable fallback: multiply-shift on the top 32 bits. Unbiased up to
    // the 2^-32 discretisation — far below every statistical tolerance
    // here — but a *different stream* than the 128-bit path, so only one
    // path is ever compiled per platform.
    QUORUM_EXPECTS_MSG(n <= 0xFFFFFFFFULL,
                       "index ranges above 2^32 unsupported");
    return static_cast<std::size_t>(
        ((x >> 32) * static_cast<std::uint64_t>(n)) >> 32);
#endif
}

double rng::normal(double mean, double stddev) {
    std::normal_distribution<double> dist(mean, stddev);
    return dist(engine_);
}

bool rng::bernoulli(double p) {
    if (p <= 0.0) {
        return false;
    }
    if (p >= 1.0) {
        return true;
    }
    return uniform() < p;
}

std::uint64_t rng::binomial(std::uint64_t n, double p) {
    if (n == 0 || p <= 0.0) {
        return 0;
    }
    if (p >= 1.0) {
        return n;
    }
    std::binomial_distribution<std::uint64_t> dist(n, p);
    return dist(engine_);
}

std::vector<std::size_t> rng::permutation(std::size_t n) {
    std::vector<std::size_t> perm(n);
    for (std::size_t i = 0; i < n; ++i) {
        perm[i] = i;
    }
    shuffle(std::span<std::size_t>(perm));
    return perm;
}

std::vector<std::size_t> rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
    QUORUM_EXPECTS(k <= n);
    // Partial Fisher–Yates over an index table: O(n) space, O(n + k) time.
    std::vector<std::size_t> indices(n);
    for (std::size_t i = 0; i < n; ++i) {
        indices[i] = i;
    }
    std::vector<std::size_t> chosen;
    chosen.reserve(k);
    for (std::size_t i = 0; i < k; ++i) {
        const std::size_t j = i + uniform_index(n - i);
        std::swap(indices[i], indices[j]);
        chosen.push_back(indices[i]);
    }
    return chosen;
}

} // namespace quorum::util
