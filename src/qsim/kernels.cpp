// Scalar reference kernels + runtime ISA dispatch. This TU is compiled
// with -ffp-contract=off (see src/CMakeLists.txt) so the reference
// semantics — one rounding per multiply, per add — cannot drift on
// targets whose baseline ISA has fused multiply-add.
#include "qsim/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "qsim/bit_ops.h"
#include "qsim/kernels_detail.h"

namespace quorum::qsim::kernels {

namespace {

constexpr std::size_t dim_of(std::size_t n_qubits) {
    return std::size_t{1} << n_qubits;
}

} // namespace

namespace detail {

void apply_1q_scalar(amp* data, std::size_t dim, const amp* u, qubit_t q) {
    const amp u00 = u[0];
    const amp u01 = u[1];
    const amp u10 = u[2];
    const amp u11 = u[3];
    const std::size_t step = std::size_t{1} << q;
    for (std::size_t block = 0; block < dim; block += 2 * step) {
        for (std::size_t i = block; i < block + step; ++i) {
            const amp a = data[i];
            const amp b = data[i + step];
            data[i] = u00 * a + u01 * b;
            data[i + step] = u10 * a + u11 * b;
        }
    }
}

void apply_block_scalar(amp* data, std::size_t dim, const amp* u,
                        std::span<const qubit_t> sorted,
                        std::span<const std::size_t> offsets, amp* scratch) {
    const std::size_t k = sorted.size();
    const std::size_t block = std::size_t{1} << k;
    const std::size_t groups = dim >> k;
    for (std::size_t g = 0; g < groups; ++g) {
        const std::size_t base = expand_index(g, sorted);
        for (std::size_t j = 0; j < block; ++j) {
            scratch[j] = data[base + offsets[j]];
        }
        for (std::size_t row = 0; row < block; ++row) {
            amp sum{};
            const amp* u_row = u + row * block;
            for (std::size_t col = 0; col < block; ++col) {
                sum += u_row[col] * scratch[col];
            }
            data[base + offsets[row]] = sum;
        }
    }
}

void collapse_scalar(amp* data, std::size_t dim, qubit_t q, bool outcome,
                     double scale) {
    const std::size_t mask = std::size_t{1} << q;
    for (std::size_t i = 0; i < dim; ++i) {
        const bool bit = (i & mask) != 0;
        if (bit == outcome) {
            data[i] *= scale;
        } else {
            data[i] = 0.0;
        }
    }
}

namespace {

/// Visits every 2x2 sub-block of rho on qubit q: (d00, d01, d10, d11) are
/// rho(r0, c0), rho(r0, c1), rho(r1, c0), rho(r1, c1) with r1 = r0 | 2^q
/// and c1 = c0 | 2^q. Single-qubit channels act on each block alone.
template <typename F>
void for_each_block(amp* rho, std::size_t dim, qubit_t q, F f) {
    const std::size_t step = std::size_t{1} << q;
    for (std::size_t rb = 0; rb < dim; rb += 2 * step) {
        for (std::size_t r = rb; r < rb + step; ++r) {
            amp* row0 = rho + r * dim;
            amp* row1 = row0 + step * dim;
            for (std::size_t cb = 0; cb < dim; cb += 2 * step) {
                for (std::size_t c = cb; c < cb + step; ++c) {
                    f(row0[c], row0[c + step], row1[c], row1[c + step]);
                }
            }
        }
    }
}

} // namespace

void density_diagonal_scalar(amp* rho, std::size_t dim, const amp* f,
                             qubit_t q) {
    for_each_block(rho, dim, q, [&](amp& d00, amp& d01, amp& d10, amp& d11) {
        d00 *= f[0];
        d01 *= f[1];
        d10 *= f[2];
        d11 *= f[3];
    });
}

void density_cx_scalar(amp* rho, std::size_t dim, qubit_t control,
                       qubit_t target) {
    const std::size_t cmask = std::size_t{1} << control;
    const std::size_t tmask = std::size_t{1} << target;
    for (std::size_t r = 0; r < dim; ++r) {
        if ((r & cmask) != 0 && (r & tmask) == 0) {
            std::swap_ranges(rho + r * dim, rho + (r + 1) * dim,
                             rho + (r | tmask) * dim);
        }
    }
    for (std::size_t r = 0; r < dim; ++r) {
        amp* row = rho + r * dim;
        for (std::size_t c = 0; c < dim; ++c) {
            if ((c & cmask) != 0 && (c & tmask) == 0) {
                std::swap(row[c], row[c | tmask]);
            }
        }
    }
}

void density_depolarize_1q_scalar(amp* rho, std::size_t dim, qubit_t q,
                                  double p) {
    const double keep = 1.0 - p;
    const double half_p = 0.5 * p;
    for_each_block(rho, dim, q, [&](amp& d00, amp& d01, amp& d10, amp& d11) {
        const amp mixed = half_p * (d00 + d11);
        d00 = keep * d00 + mixed;
        d11 = keep * d11 + mixed;
        d01 *= keep;
        d10 *= keep;
    });
}

void density_depolarize_block_scalar(amp* rho, std::size_t dim,
                                     std::span<const qubit_t> sorted,
                                     std::span<const std::size_t> offsets,
                                     double p) {
    const std::size_t block = offsets.size();
    const std::size_t groups = dim >> sorted.size();
    const double mix = p / static_cast<double>(block);
    for (std::size_t gr = 0; gr < groups; ++gr) {
        const std::size_t row_base = expand_index(gr, sorted);
        for (std::size_t gc = 0; gc < groups; ++gc) {
            amp* base = rho + row_base * dim + expand_index(gc, sorted);
            amp reduced{};
            for (std::size_t a = 0; a < block; ++a) {
                reduced += base[offsets[a] * dim + offsets[a]];
            }
            const amp contribution = mix * reduced;
            for (std::size_t a = 0; a < block; ++a) {
                for (std::size_t b = 0; b < block; ++b) {
                    amp& value = base[offsets[a] * dim + offsets[b]];
                    value *= (1.0 - p);
                    if (a == b) {
                        value += contribution;
                    }
                }
            }
        }
    }
}

void density_thermal_scalar(amp* rho, std::size_t dim, qubit_t q, double gamma,
                            double keep) {
    for_each_block(rho, dim, q, [&](amp& d00, amp& d01, amp& d10, amp& d11) {
        d01 *= keep;
        d10 *= keep;
        const amp one_one = d11;
        d00 += gamma * one_one;
        d11 = (1.0 - gamma) * one_one;
    });
}

void density_reset_scalar(amp* rho, std::size_t dim, qubit_t q) {
    for_each_block(rho, dim, q, [](amp& d00, amp& d01, amp& d10, amp& d11) {
        d00 = amp{} + d00 + d11;
        d01 = 0.0;
        d10 = 0.0;
        d11 = 0.0;
    });
}

} // namespace detail

bool avx2_compiled() noexcept {
#ifdef QUORUM_HAVE_AVX2_KERNELS
    return true;
#else
    return false;
#endif
}

bool avx2_supported() noexcept {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
    return false;
#endif
}

isa detect_isa() noexcept {
    if (!avx2_compiled() || !avx2_supported()) {
        return isa::scalar;
    }
    if (std::getenv("QUORUM_DISABLE_AVX2") != nullptr) {
        return isa::scalar;
    }
    return isa::avx2;
}

isa active_isa() noexcept {
    static const isa cached = detect_isa();
    return cached;
}

// Runs detail::NAME_avx2 when `which` selects AVX2 and the AVX2 TU is
// linked in, else the scalar reference detail::NAME_scalar.
// clang-format off
#ifdef QUORUM_HAVE_AVX2_KERNELS
#define QUORUM_KERNEL_DISPATCH(which, name, ...)                               \
    ((which) == isa::avx2 ? detail::name##_avx2(__VA_ARGS__)                   \
                          : detail::name##_scalar(__VA_ARGS__))
#else
#define QUORUM_KERNEL_DISPATCH(which, name, ...)                               \
    ((void)(which), detail::name##_scalar(__VA_ARGS__))
#endif
// clang-format on

void apply_1q(amp* data, std::size_t n_qubits, const amp* u, qubit_t q,
              isa which) {
    QUORUM_KERNEL_DISPATCH(which, apply_1q, data, dim_of(n_qubits), u, q);
}

void apply_1q(amp* data, std::size_t n_qubits, const amp* u, qubit_t q) {
    apply_1q(data, n_qubits, u, q, active_isa());
}

void apply_block(amp* data, std::size_t n_qubits, const amp* u,
                 std::span<const qubit_t> sorted,
                 std::span<const std::size_t> offsets, amp* scratch,
                 isa which) {
    QUORUM_KERNEL_DISPATCH(which, apply_block, data, dim_of(n_qubits), u,
                           sorted, offsets, scratch);
}

void apply_block(amp* data, std::size_t n_qubits, const amp* u,
                 std::span<const qubit_t> sorted,
                 std::span<const std::size_t> offsets, amp* scratch) {
    apply_block(data, n_qubits, u, sorted, offsets, scratch, active_isa());
}

void collapse(amp* data, std::size_t n_qubits, qubit_t q, bool outcome,
              double scale, isa which) {
    QUORUM_KERNEL_DISPATCH(which, collapse, data, dim_of(n_qubits), q, outcome,
                           scale);
}

void collapse(amp* data, std::size_t n_qubits, qubit_t q, bool outcome,
              double scale) {
    collapse(data, n_qubits, q, outcome, scale, active_isa());
}

void density_diagonal(amp* rho, std::size_t n_qubits, const amp* f, qubit_t q,
                      isa which) {
    QUORUM_KERNEL_DISPATCH(which, density_diagonal, rho, dim_of(n_qubits), f,
                           q);
}

void density_cx(amp* rho, std::size_t n_qubits, qubit_t control, qubit_t target,
                isa which) {
    QUORUM_KERNEL_DISPATCH(which, density_cx, rho, dim_of(n_qubits), control,
                           target);
}

void density_depolarize_1q(amp* rho, std::size_t n_qubits, qubit_t q, double p,
                           isa which) {
    QUORUM_KERNEL_DISPATCH(which, density_depolarize_1q, rho, dim_of(n_qubits),
                           q, p);
}

void density_depolarize_block(amp* rho, std::size_t n_qubits,
                              std::span<const qubit_t> sorted,
                              std::span<const std::size_t> offsets, double p,
                              isa which) {
    QUORUM_KERNEL_DISPATCH(which, density_depolarize_block, rho,
                           dim_of(n_qubits), sorted, offsets, p);
}

void density_thermal(amp* rho, std::size_t n_qubits, qubit_t q, double gamma,
                     double lambda, isa which) {
    const double keep = std::sqrt((1.0 - gamma) * (1.0 - lambda));
    QUORUM_KERNEL_DISPATCH(which, density_thermal, rho, dim_of(n_qubits), q,
                           gamma, keep);
}

void density_reset(amp* rho, std::size_t n_qubits, qubit_t q, isa which) {
    QUORUM_KERNEL_DISPATCH(which, density_reset, rho, dim_of(n_qubits), q);
}

#undef QUORUM_KERNEL_DISPATCH

} // namespace quorum::qsim::kernels
