// AVX2 apply kernels. Compiled with -mavx2 -mfma -ffp-contract=off and
// linked only when the build enables QUORUM_HAVE_AVX2_KERNELS; callers
// must check CPU support at runtime (kernels::active_isa) before
// entering.
//
// Bit-exactness strategy: vectorise ACROSS independent amplitude groups
// (two groups per 256-bit vector, one complex amplitude per 128-bit
// lane half) so that every amplitude experiences exactly the scalar
// operation sequence — multiply, multiply, addsub for a complex product
// (one rounding each, matching (a*c - b*d, a*d + b*c)), then plain adds
// in scalar accumulation order. No FMA instructions are emitted in
// these kernels and -ffp-contract=off keeps the compiler from
// introducing any: the results are IEEE-identical to the scalar
// reference, which tests/qsim/test_kernels.cpp pins bit for bit.
#include "qsim/kernels_detail.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include "qsim/bit_ops.h"

namespace quorum::qsim::kernels::detail {

namespace {

/// Complex product u * x for two independent complex amplitudes packed
/// as [x0.re, x0.im, x1.re, x1.im], with u broadcast as (u_re, u_im).
/// Per lane pair this computes exactly
///   re = (x.re * u.re) - (x.im * u.im)
///   im = (x.im * u.re) + (x.re * u.im)
/// — the same three roundings, in the same order, as the scalar
/// std::complex product (multiplication operands commuted, which IEEE
/// multiplication keeps bit-identical).
inline __m256d cmul(__m256d u_re, __m256d u_im, __m256d x) {
    const __m256d t1 = _mm256_mul_pd(x, u_re);
    const __m256d xs = _mm256_permute_pd(x, 0b0101);
    const __m256d t2 = _mm256_mul_pd(xs, u_im);
    return _mm256_addsub_pd(t1, t2);
}

struct bcast {
    __m256d re;
    __m256d im;
};

inline bcast broadcast(const amp* entry) {
    const double* parts = reinterpret_cast<const double*>(entry);
    return {_mm256_broadcast_sd(parts), _mm256_broadcast_sd(parts + 1)};
}

/// Vector-path ceiling for dense blocks: 2^4 x 2^4. Larger blocks (not
/// produced by fusion; only by exotic direct apply_matrix calls) fall
/// back to the scalar reference.
constexpr std::size_t max_vector_block_qubits = 4;

} // namespace

void apply_1q_avx2(amp* data, std::size_t dim, const amp* u, qubit_t q) {
    if (dim < 4) {
        apply_1q_scalar(data, dim, u, q);
        return;
    }
    double* p = reinterpret_cast<double*>(data);
    const bcast u00 = broadcast(u + 0);
    const bcast u01 = broadcast(u + 1);
    const bcast u10 = broadcast(u + 2);
    const bcast u11 = broadcast(u + 3);
    const std::size_t step = std::size_t{1} << q;
    if (q == 0) {
        // Pairs are adjacent complex values: gather two pairs per
        // iteration and split them into an a-vector and a b-vector.
        for (std::size_t i = 0; i < dim; i += 4) {
            const __m256d v0 = _mm256_loadu_pd(p + 2 * i);
            const __m256d v1 = _mm256_loadu_pd(p + 2 * i + 4);
            const __m256d a = _mm256_permute2f128_pd(v0, v1, 0x20);
            const __m256d b = _mm256_permute2f128_pd(v0, v1, 0x31);
            const __m256d na =
                _mm256_add_pd(cmul(u00.re, u00.im, a), cmul(u01.re, u01.im, b));
            const __m256d nb =
                _mm256_add_pd(cmul(u10.re, u10.im, a), cmul(u11.re, u11.im, b));
            _mm256_storeu_pd(p + 2 * i, _mm256_permute2f128_pd(na, nb, 0x20));
            _mm256_storeu_pd(p + 2 * i + 4,
                             _mm256_permute2f128_pd(na, nb, 0x31));
        }
        return;
    }
    // step >= 2: the a-run [block, block + step) and the b-run shifted by
    // `step` are both contiguous, so two amplitude pairs load directly.
    for (std::size_t block = 0; block < dim; block += 2 * step) {
        for (std::size_t i = block; i < block + step; i += 2) {
            double* pa = p + 2 * i;
            double* pb = p + 2 * (i + step);
            const __m256d a = _mm256_loadu_pd(pa);
            const __m256d b = _mm256_loadu_pd(pb);
            const __m256d na =
                _mm256_add_pd(cmul(u00.re, u00.im, a), cmul(u01.re, u01.im, b));
            const __m256d nb =
                _mm256_add_pd(cmul(u10.re, u10.im, a), cmul(u11.re, u11.im, b));
            _mm256_storeu_pd(pa, na);
            _mm256_storeu_pd(pb, nb);
        }
    }
}

void apply_block_avx2(amp* data, std::size_t dim, const amp* u,
                      std::span<const qubit_t> sorted,
                      std::span<const std::size_t> offsets, amp* scratch) {
    const std::size_t k = sorted.size();
    const std::size_t groups = dim >> k;
    if (k < 2 || k > max_vector_block_qubits || groups < 2) {
        apply_block_scalar(data, dim, u, sorted, offsets, scratch);
        return;
    }
    const std::size_t block = std::size_t{1} << k;
    // Two groups per iteration: groups g (even) and g+1 differ only in
    // bit 0 of the group index, which expand_index maps onto the lowest
    // qubit position NOT occupied by an operand. Both groups' element j
    // therefore sit `delta` complex values apart, for every j.
    std::size_t lowest_free = 0;
    for (const qubit_t q : sorted) {
        if (q != lowest_free) {
            break;
        }
        ++lowest_free;
    }
    const std::size_t delta = std::size_t{1} << lowest_free;
    double* p = reinterpret_cast<double*>(data);
    __m256d s[std::size_t{1} << max_vector_block_qubits];
    for (std::size_t g = 0; g < groups; g += 2) {
        const std::size_t base = expand_index(g, sorted);
        for (std::size_t j = 0; j < block; ++j) {
            double* lo = p + 2 * (base + offsets[j]);
            if (delta == 1) {
                s[j] = _mm256_loadu_pd(lo);
            } else {
                s[j] = _mm256_set_m128d(_mm_loadu_pd(lo + 2 * delta),
                                        _mm_loadu_pd(lo));
            }
        }
        for (std::size_t row = 0; row < block; ++row) {
            __m256d acc = _mm256_setzero_pd();
            const amp* u_row = u + row * block;
            for (std::size_t col = 0; col < block; ++col) {
                const bcast e = broadcast(u_row + col);
                acc = _mm256_add_pd(acc, cmul(e.re, e.im, s[col]));
            }
            double* lo = p + 2 * (base + offsets[row]);
            if (delta == 1) {
                _mm256_storeu_pd(lo, acc);
            } else {
                _mm_storeu_pd(lo, _mm256_castpd256_pd128(acc));
                _mm_storeu_pd(lo + 2 * delta, _mm256_extractf128_pd(acc, 1));
            }
        }
    }
}

void collapse_avx2(amp* data, std::size_t dim, qubit_t q, bool outcome,
                   double scale) {
    if (dim < 4) {
        collapse_scalar(data, dim, q, outcome, scale);
        return;
    }
    double* p = reinterpret_cast<double*>(data);
    const __m256d vs = _mm256_set1_pd(scale);
    const __m256d vz = _mm256_setzero_pd();
    if (q == 0) {
        // Complex values alternate kept/zeroed: blend per 2-amplitude
        // vector. Zeroed amplitudes are ASSIGNED +0.0 (not multiplied),
        // exactly like the scalar reference.
        for (std::size_t i = 0; i < dim; i += 2) {
            const __m256d v = _mm256_loadu_pd(p + 2 * i);
            const __m256d scaled = _mm256_mul_pd(v, vs);
            const __m256d out = outcome ? _mm256_blend_pd(scaled, vz, 0b0011)
                                        : _mm256_blend_pd(scaled, vz, 0b1100);
            _mm256_storeu_pd(p + 2 * i, out);
        }
        return;
    }
    // Runs of 2^q complex values share the bit: scale one run, zero the
    // other. q >= 1 makes every run a whole number of 256-bit vectors.
    const std::size_t step = std::size_t{1} << q;
    for (std::size_t block = 0; block < dim; block += 2 * step) {
        const std::size_t zero_run = outcome ? block : block + step;
        const std::size_t scale_run = outcome ? block + step : block;
        for (std::size_t i = 0; i < step; i += 2) {
            _mm256_storeu_pd(p + 2 * (zero_run + i), vz);
        }
        for (std::size_t i = 0; i < step; i += 2) {
            double* pi = p + 2 * (scale_run + i);
            _mm256_storeu_pd(pi, _mm256_mul_pd(_mm256_loadu_pd(pi), vs));
        }
    }
}

namespace {

/// The entries (d00, d01, d10, d11) of two 2x2 blocks on one qubit (see
/// for_each_block in kernels.cpp), one block per 128-bit lane half.
struct block_pair {
    __m256d d00;
    __m256d d01;
    __m256d d10;
    __m256d d11;
};

/// [x.lo, y.lo] and [x.hi, y.hi]: one complex value per 128-bit half.
inline __m256d low_halves(__m256d x, __m256d y) {
    return _mm256_permute2f128_pd(x, y, 0x20);
}

inline __m256d high_halves(__m256d x, __m256d y) {
    return _mm256_permute2f128_pd(x, y, 0x31);
}

/// Visits the 2x2 blocks of rho on qubit q two at a time: the blocks at
/// column c0 and at the next column with bit q clear. `f` updates the
/// pair in place. Requires dim >= 4.
template <typename F>
void for_each_block_pair(amp* rho, std::size_t dim, qubit_t q, F f) {
    double* p = reinterpret_cast<double*>(rho);
    const std::size_t step = std::size_t{1} << q;
    block_pair v;
    for (std::size_t rb = 0; rb < dim; rb += 2 * step) {
        for (std::size_t r = rb; r < rb + step; ++r) {
            double* row0 = p + 2 * r * dim;
            double* row1 = row0 + 2 * step * dim;
            if (q == 0) {
                // Each [c0, c1] pair is one vector: split two of them into
                // a c0-vector and a c1-vector, as apply_1q_avx2 does.
                for (std::size_t c = 0; c < dim; c += 4) {
                    double* a = row0 + 2 * c;
                    double* b = row1 + 2 * c;
                    const __m256d a0 = _mm256_loadu_pd(a);
                    const __m256d a1 = _mm256_loadu_pd(a + 4);
                    const __m256d b0 = _mm256_loadu_pd(b);
                    const __m256d b1 = _mm256_loadu_pd(b + 4);
                    v.d00 = low_halves(a0, a1);
                    v.d01 = high_halves(a0, a1);
                    v.d10 = low_halves(b0, b1);
                    v.d11 = high_halves(b0, b1);
                    f(v);
                    _mm256_storeu_pd(a, low_halves(v.d00, v.d01));
                    _mm256_storeu_pd(a + 4, high_halves(v.d00, v.d01));
                    _mm256_storeu_pd(b, low_halves(v.d10, v.d11));
                    _mm256_storeu_pd(b + 4, high_halves(v.d10, v.d11));
                }
                continue;
            }
            for (std::size_t cb = 0; cb < dim; cb += 2 * step) {
                for (std::size_t c = cb; c < cb + step; c += 2) {
                    double* a = row0 + 2 * c;
                    double* b = row1 + 2 * c;
                    v.d00 = _mm256_loadu_pd(a);
                    v.d01 = _mm256_loadu_pd(a + 2 * step);
                    v.d10 = _mm256_loadu_pd(b);
                    v.d11 = _mm256_loadu_pd(b + 2 * step);
                    f(v);
                    _mm256_storeu_pd(a, v.d00);
                    _mm256_storeu_pd(a + 2 * step, v.d01);
                    _mm256_storeu_pd(b, v.d10);
                    _mm256_storeu_pd(b + 2 * step, v.d11);
                }
            }
        }
    }
}

/// Two complex values `delta` apart as one vector (one load when
/// adjacent).
inline __m256d load_pair(const double* lo, std::size_t delta) {
    if (delta == 1) {
        return _mm256_loadu_pd(lo);
    }
    return _mm256_set_m128d(_mm_loadu_pd(lo + 2 * delta), _mm_loadu_pd(lo));
}

inline void store_pair(double* lo, std::size_t delta, __m256d v) {
    if (delta == 1) {
        _mm256_storeu_pd(lo, v);
        return;
    }
    _mm_storeu_pd(lo, _mm256_castpd256_pd128(v));
    _mm_storeu_pd(lo + 2 * delta, _mm256_extractf128_pd(v, 1));
}

inline void swap_vectors(double* a, double* b) {
    const __m256d va = _mm256_loadu_pd(a);
    _mm256_storeu_pd(a, _mm256_loadu_pd(b));
    _mm256_storeu_pd(b, va);
}

} // namespace

void density_diagonal_avx2(amp* rho, std::size_t dim, const amp* f, qubit_t q) {
    if (dim < 4) {
        density_diagonal_scalar(rho, dim, f, q);
        return;
    }
    const bcast f00 = broadcast(f + 0);
    const bcast f01 = broadcast(f + 1);
    const bcast f10 = broadcast(f + 2);
    const bcast f11 = broadcast(f + 3);
    for_each_block_pair(rho, dim, q, [&](block_pair& v) {
        v.d00 = cmul(f00.re, f00.im, v.d00);
        v.d01 = cmul(f01.re, f01.im, v.d01);
        v.d10 = cmul(f10.re, f10.im, v.d10);
        v.d11 = cmul(f11.re, f11.im, v.d11);
    });
}

void density_cx_avx2(amp* rho, std::size_t dim, qubit_t control,
                     qubit_t target) {
    if (dim < 4 || control == 0 || target == 0) {
        // A swapped column pair would straddle one vector: stay scalar.
        density_cx_scalar(rho, dim, control, target);
        return;
    }
    double* p = reinterpret_cast<double*>(rho);
    const std::size_t cmask = std::size_t{1} << control;
    const std::size_t tmask = std::size_t{1} << target;
    for (std::size_t r = 0; r < dim; ++r) {
        if ((r & cmask) != 0 && (r & tmask) == 0) {
            double* row_a = p + 2 * r * dim;
            double* row_b = p + 2 * (r | tmask) * dim;
            for (std::size_t c = 0; c < dim; c += 2) {
                swap_vectors(row_a + 2 * c, row_b + 2 * c);
            }
        }
    }
    for (std::size_t r = 0; r < dim; ++r) {
        double* row = p + 2 * r * dim;
        for (std::size_t c = 0; c < dim; c += 2) {
            if ((c & cmask) != 0 && (c & tmask) == 0) {
                swap_vectors(row + 2 * c, row + 2 * (c | tmask));
            }
        }
    }
}

void density_depolarize_1q_avx2(amp* rho, std::size_t dim, qubit_t q,
                                double p) {
    if (dim < 4) {
        density_depolarize_1q_scalar(rho, dim, q, p);
        return;
    }
    const __m256d keep = _mm256_set1_pd(1.0 - p);
    const __m256d half_p = _mm256_set1_pd(0.5 * p);
    for_each_block_pair(rho, dim, q, [&](block_pair& v) {
        const __m256d sum = _mm256_add_pd(v.d00, v.d11);
        const __m256d mixed = _mm256_mul_pd(half_p, sum);
        v.d00 = _mm256_add_pd(_mm256_mul_pd(keep, v.d00), mixed);
        v.d11 = _mm256_add_pd(_mm256_mul_pd(keep, v.d11), mixed);
        v.d01 = _mm256_mul_pd(v.d01, keep);
        v.d10 = _mm256_mul_pd(v.d10, keep);
    });
}

void density_depolarize_block_avx2(amp* rho, std::size_t dim,
                                   std::span<const qubit_t> sorted,
                                   std::span<const std::size_t> offsets,
                                   double p) {
    const std::size_t groups = dim >> sorted.size();
    if (groups < 2) {
        density_depolarize_block_scalar(rho, dim, sorted, offsets, p);
        return;
    }
    // Two column groups per iteration, `delta` columns apart (the lowest
    // column bit outside the operands), as in apply_block_avx2.
    std::size_t lowest_free = 0;
    for (const qubit_t q : sorted) {
        if (q != lowest_free) {
            break;
        }
        ++lowest_free;
    }
    const std::size_t delta = std::size_t{1} << lowest_free;
    const std::size_t block = offsets.size();
    const __m256d keep = _mm256_set1_pd(1.0 - p);
    const __m256d mix = _mm256_set1_pd(p / static_cast<double>(block));
    double* data = reinterpret_cast<double*>(rho);
    for (std::size_t gr = 0; gr < groups; ++gr) {
        const std::size_t row_base = expand_index(gr, sorted);
        for (std::size_t gc = 0; gc < groups; gc += 2) {
            const std::size_t col_base = expand_index(gc, sorted);
            double* base = data + 2 * (row_base * dim + col_base);
            __m256d reduced = _mm256_setzero_pd();
            for (std::size_t a = 0; a < block; ++a) {
                const std::size_t diagonal = offsets[a] * dim + offsets[a];
                const __m256d entry = load_pair(base + 2 * diagonal, delta);
                reduced = _mm256_add_pd(reduced, entry);
            }
            const __m256d contribution = _mm256_mul_pd(mix, reduced);
            for (std::size_t a = 0; a < block; ++a) {
                for (std::size_t b = 0; b < block; ++b) {
                    double* at = base + 2 * (offsets[a] * dim + offsets[b]);
                    __m256d value = _mm256_mul_pd(load_pair(at, delta), keep);
                    if (a == b) {
                        value = _mm256_add_pd(value, contribution);
                    }
                    store_pair(at, delta, value);
                }
            }
        }
    }
}

void density_thermal_avx2(amp* rho, std::size_t dim, qubit_t q, double gamma,
                          double keep) {
    if (dim < 4) {
        density_thermal_scalar(rho, dim, q, gamma, keep);
        return;
    }
    const __m256d vkeep = _mm256_set1_pd(keep);
    const __m256d vgamma = _mm256_set1_pd(gamma);
    const __m256d vdecay = _mm256_set1_pd(1.0 - gamma);
    for_each_block_pair(rho, dim, q, [&](block_pair& v) {
        v.d01 = _mm256_mul_pd(v.d01, vkeep);
        v.d10 = _mm256_mul_pd(v.d10, vkeep);
        v.d00 = _mm256_add_pd(v.d00, _mm256_mul_pd(vgamma, v.d11));
        v.d11 = _mm256_mul_pd(vdecay, v.d11);
    });
}

void density_reset_avx2(amp* rho, std::size_t dim, qubit_t q) {
    if (dim < 4) {
        density_reset_scalar(rho, dim, q);
        return;
    }
    const __m256d zero = _mm256_setzero_pd();
    for_each_block_pair(rho, dim, q, [&](block_pair& v) {
        v.d00 = _mm256_add_pd(_mm256_add_pd(zero, v.d00), v.d11);
        v.d01 = zero;
        v.d10 = zero;
        v.d11 = zero;
    });
}

} // namespace quorum::qsim::kernels::detail

#endif // __AVX2__ && __FMA__
