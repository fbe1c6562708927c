// Reference copies of the density engine's original per-channel loops,
// kept only as test oracles. The engine now runs on the kernel layer
// (qsim/kernels.h); tests/qsim/test_kernels.cpp and test_density.cpp
// compare every kernel and density_matrix operation against these loops
// with std::bit_cast equality, on both ISAs. `rho` is a dim x dim
// row-major density matrix.
#ifndef QUORUM_TESTS_QSIM_DENSITY_ORACLE_H
#define QUORUM_TESTS_QSIM_DENSITY_ORACLE_H

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <utility>
#include <vector>

#include "qsim/bit_ops.h"
#include "qsim/types.h"

namespace quorum::qsim::oracle {

/// rho -> U rho U† for a 2x2 row-major u on qubit q: the diagonal
/// elementwise pass when u01 == u10 == 0, else a row pass then a column
/// pass.
inline void apply_1q(std::vector<amp>& rho, std::size_t dim, const amp* u,
                     qubit_t q) {
    const amp m00 = u[0];
    const amp m01 = u[1];
    const amp m10 = u[2];
    const amp m11 = u[3];
    const std::size_t step = std::size_t{1} << q;
    if (m01 == amp{} && m10 == amp{}) {
        const std::size_t mask = step;
        for (std::size_t r = 0; r < dim; ++r) {
            const amp row_factor = (r & mask) ? m11 : m00;
            amp* row = rho.data() + r * dim;
            for (std::size_t c = 0; c < dim; ++c) {
                row[c] *= row_factor * std::conj((c & mask) ? m11 : m00);
            }
        }
        return;
    }
    for (std::size_t rb = 0; rb < dim; rb += 2 * step) {
        for (std::size_t r = rb; r < rb + step; ++r) {
            amp* row0 = rho.data() + r * dim;
            amp* row1 = rho.data() + (r + step) * dim;
            for (std::size_t c = 0; c < dim; ++c) {
                const amp a = row0[c];
                const amp b = row1[c];
                row0[c] = m00 * a + m01 * b;
                row1[c] = m10 * a + m11 * b;
            }
        }
    }
    const amp c00 = std::conj(m00);
    const amp c01 = std::conj(m01);
    const amp c10 = std::conj(m10);
    const amp c11 = std::conj(m11);
    for (std::size_t r = 0; r < dim; ++r) {
        amp* row = rho.data() + r * dim;
        for (std::size_t cb = 0; cb < dim; cb += 2 * step) {
            for (std::size_t c = cb; c < cb + step; ++c) {
                const amp a = row[c];
                const amp b = row[c + step];
                row[c] = c00 * a + c01 * b;
                row[c + step] = c10 * a + c11 * b;
            }
        }
    }
}

/// rho -> M rho M† for a k-qubit row-major m (k >= 2): M on the row
/// index axis, then conj(M) on the column index axis.
inline void apply_matrix(std::vector<amp>& rho, std::size_t dim,
                         const std::vector<amp>& m,
                         const std::vector<qubit_t>& qubits) {
    const std::size_t k = qubits.size();
    const std::size_t block = std::size_t{1} << k;
    std::vector<qubit_t> sorted = qubits;
    std::sort(sorted.begin(), sorted.end());
    const std::vector<std::size_t> offsets = make_offsets(qubits);
    std::vector<amp> scratch(block);
    const std::size_t groups = dim >> k;
    for (const bool column_axis : {false, true}) {
        std::vector<amp> coeffs = m;
        if (column_axis) {
            for (amp& coeff : coeffs) {
                coeff = std::conj(coeff);
            }
        }
        for (std::size_t other = 0; other < dim; ++other) {
            for (std::size_t g = 0; g < groups; ++g) {
                const std::size_t base = expand_index(g, sorted);
                const auto linear = [&](std::size_t axis_index) {
                    return column_axis ? other * dim + axis_index
                                       : axis_index * dim + other;
                };
                for (std::size_t j = 0; j < block; ++j) {
                    scratch[j] = rho[linear(base + offsets[j])];
                }
                for (std::size_t row = 0; row < block; ++row) {
                    amp sum{};
                    for (std::size_t col = 0; col < block; ++col) {
                        sum += coeffs[row * block + col] * scratch[col];
                    }
                    rho[linear(base + offsets[row])] = sum;
                }
            }
        }
    }
}

inline void cx(std::vector<amp>& rho, std::size_t dim, qubit_t control,
               qubit_t target) {
    const std::size_t cmask = std::size_t{1} << control;
    const std::size_t tmask = std::size_t{1} << target;
    for (std::size_t r = 0; r < dim; ++r) {
        if ((r & cmask) != 0 && (r & tmask) == 0) {
            amp* row_a = rho.data() + r * dim;
            amp* row_b = rho.data() + (r | tmask) * dim;
            for (std::size_t c = 0; c < dim; ++c) {
                std::swap(row_a[c], row_b[c]);
            }
        }
    }
    for (std::size_t r = 0; r < dim; ++r) {
        amp* row = rho.data() + r * dim;
        for (std::size_t c = 0; c < dim; ++c) {
            if ((c & cmask) != 0 && (c & tmask) == 0) {
                std::swap(row[c], row[c | tmask]);
            }
        }
    }
}

inline void thermal(std::vector<amp>& rho, std::size_t dim, qubit_t q,
                    double gamma, double lambda) {
    const std::size_t mask = std::size_t{1} << q;
    const double keep = std::sqrt((1.0 - gamma) * (1.0 - lambda));
    for (std::size_t r = 0; r < dim; ++r) {
        const bool rbit = (r & mask) != 0;
        amp* row = rho.data() + r * dim;
        for (std::size_t c = 0; c < dim; ++c) {
            const bool cbit = (c & mask) != 0;
            if (rbit != cbit) {
                row[c] *= keep;
            }
        }
    }
    for (std::size_t r = 0; r < dim; ++r) {
        if ((r & mask) == 0) {
            continue;
        }
        for (std::size_t c = 0; c < dim; ++c) {
            if ((c & mask) == 0) {
                continue;
            }
            const amp one_one = rho[r * dim + c];
            rho[(r & ~mask) * dim + (c & ~mask)] += gamma * one_one;
            rho[r * dim + c] = (1.0 - gamma) * one_one;
        }
    }
}

/// The single-qubit depolarising pass (registers of >= 2 qubits).
inline void depolarize_1q(std::vector<amp>& rho, std::size_t dim, qubit_t q,
                          double p) {
    const std::size_t mask = std::size_t{1} << q;
    const double keep = 1.0 - p;
    const double half_p = 0.5 * p;
    for (std::size_t r = 0; r < dim; ++r) {
        if ((r & mask) != 0) {
            continue;
        }
        amp* row0 = rho.data() + r * dim;
        amp* row1 = rho.data() + (r | mask) * dim;
        for (std::size_t c = 0; c < dim; ++c) {
            if ((c & mask) != 0) {
                continue;
            }
            const std::size_t c1 = c | mask;
            const amp block00 = row0[c];
            const amp block11 = row1[c1];
            const amp mixed = half_p * (block00 + block11);
            row0[c] = keep * block00 + mixed;
            row1[c1] = keep * block11 + mixed;
            row0[c1] *= keep;
            row1[c] *= keep;
        }
    }
}

/// The general depolarising path for 2 <= k < n qubits: partial trace of
/// the original state, scale everything, add the mixed part.
inline void depolarize_block(std::vector<amp>& rho, std::size_t dim,
                             std::vector<qubit_t> qubits, double p) {
    const std::size_t k = qubits.size();
    const std::size_t block = std::size_t{1} << k;
    std::vector<qubit_t> sorted = qubits;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t groups = dim >> k;
    const std::vector<std::size_t> sorted_offsets = make_offsets(sorted);
    std::vector<amp> reduced(groups * groups);
    for (std::size_t r = 0; r < groups; ++r) {
        const std::size_t row_base = expand_index(r, sorted);
        for (std::size_t c = 0; c < groups; ++c) {
            const std::size_t col_base = expand_index(c, sorted);
            amp sum{};
            for (std::size_t a = 0; a < block; ++a) {
                const std::size_t row = row_base + sorted_offsets[a];
                sum += rho[row * dim + col_base + sorted_offsets[a]];
            }
            reduced[r * groups + c] = sum;
        }
    }
    const double mix = p / static_cast<double>(block);
    for (amp& value : rho) {
        value *= (1.0 - p);
    }
    const std::vector<std::size_t> offsets = make_offsets(qubits);
    for (std::size_t gr = 0; gr < groups; ++gr) {
        const std::size_t row_base = expand_index(gr, sorted);
        for (std::size_t gc = 0; gc < groups; ++gc) {
            const std::size_t col_base = expand_index(gc, sorted);
            const amp contribution = mix * reduced[gr * groups + gc];
            for (std::size_t a = 0; a < block; ++a) {
                const std::size_t row = row_base + offsets[a];
                rho[row * dim + col_base + offsets[a]] += contribution;
            }
        }
    }
}

inline void reset(std::vector<amp>& rho, std::size_t dim, qubit_t q) {
    const std::size_t mask = std::size_t{1} << q;
    std::vector<amp> next(rho.size());
    for (std::size_t r = 0; r < dim; ++r) {
        for (std::size_t c = 0; c < dim; ++c) {
            if (((r & mask) != 0) != ((c & mask) != 0)) {
                continue;
            }
            next[(r & ~mask) * dim + (c & ~mask)] += rho[r * dim + c];
        }
    }
    rho = std::move(next);
}

} // namespace quorum::qsim::oracle

#endif // QUORUM_TESTS_QSIM_DENSITY_ORACLE_H
