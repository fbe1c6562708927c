// Scalar-vs-AVX2 bit-exactness suite for the kernel layer. Every
// comparison here is IEEE == on the raw double bits: the AVX2 kernels are
// contractually bit-identical to the scalar reference (qsim/kernels.h),
// which is what keeps the golden fixtures stable across ISAs.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "density_oracle.h"
#include "qsim/bit_ops.h"
#include "qsim/kernels.h"
#include "qsim/statevector.h"
#include "util/rng.h"

namespace {

using quorum::qsim::amp;
using quorum::qsim::make_offsets;
using quorum::qsim::qubit_t;
namespace kernels = quorum::qsim::kernels;

bool both_isas_available() {
    return kernels::avx2_compiled() && kernels::avx2_supported();
}

std::vector<amp> random_state(std::size_t dim, quorum::util::rng& gen) {
    std::vector<amp> state(dim);
    for (amp& a : state) {
        a = amp{gen.uniform(-1.0, 1.0), gen.uniform(-1.0, 1.0)};
    }
    return state;
}

std::vector<amp> random_matrix(std::size_t block, quorum::util::rng& gen) {
    return random_state(block * block, gen);
}

/// Bit-pattern equality (distinguishes -0.0 from +0.0 and compares NaN
/// payloads, unlike operator==) — the strongest form of "identical".
::testing::AssertionResult bits_equal(const std::vector<amp>& a,
                                      const std::vector<amp>& b) {
    if (a.size() != b.size()) {
        return ::testing::AssertionFailure() << "size mismatch";
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
        const auto re_a = std::bit_cast<std::uint64_t>(a[i].real());
        const auto re_b = std::bit_cast<std::uint64_t>(b[i].real());
        const auto im_a = std::bit_cast<std::uint64_t>(a[i].imag());
        const auto im_b = std::bit_cast<std::uint64_t>(b[i].imag());
        if (re_a != re_b || im_a != im_b) {
            return ::testing::AssertionFailure()
                   << "amplitude " << i << " differs: (" << a[i].real() << ", "
                   << a[i].imag() << ") vs (" << b[i].real() << ", "
                   << b[i].imag() << ")";
        }
    }
    return ::testing::AssertionSuccess();
}

/// Operand sets exercising every layout regime at a given n: adjacent low
/// (contiguous 256-bit loads), high/wrapping (strided pairs), mixed
/// strides, and permuted (unsorted) declaration order.
std::vector<std::vector<qubit_t>> operand_sets(std::size_t n, std::size_t k) {
    std::vector<std::vector<qubit_t>> sets;
    if (n < k) {
        return sets;
    }
    const auto hi = static_cast<qubit_t>(n - 1);
    if (k == 2) {
        sets.push_back({0, 1});
        if (n >= 3) {
            sets.push_back({0, hi});            // max stride
            sets.push_back({hi, 0});            // permuted order
            sets.push_back({1, 2});             // off-origin adjacent
        }
        if (n >= 4) {
            sets.push_back({static_cast<qubit_t>(hi - 1), hi}); // top pair
        }
    } else if (k == 3) {
        sets.push_back({0, 1, 2});
        if (n >= 4) {
            sets.push_back({0, 1, hi});
            sets.push_back({hi, 1, 0}); // permuted order
        }
        if (n >= 5) {
            sets.push_back({1, static_cast<qubit_t>(n / 2), hi});
        }
    } else if (k == 4) {
        sets.push_back({0, 1, 2, 3});
        if (n >= 5) {
            sets.push_back({0, 2, static_cast<qubit_t>(hi - 1), hi});
            sets.push_back({hi, 0, 2, 1}); // permuted order
        }
    }
    // Drop sets with duplicate/overflowing qubits at small n.
    std::erase_if(sets, [n](const std::vector<qubit_t>& qs) {
        for (std::size_t i = 0; i < qs.size(); ++i) {
            if (qs[i] >= n) {
                return true;
            }
            for (std::size_t j = i + 1; j < qs.size(); ++j) {
                if (qs[i] == qs[j]) {
                    return true;
                }
            }
        }
        return false;
    });
    return sets;
}

TEST(kernels, apply_1q_avx2_matches_scalar_bit_for_bit) {
    if (!both_isas_available()) {
        GTEST_SKIP() << "AVX2 kernels not available on this build/host";
    }
    quorum::util::rng gen(20250801);
    for (std::size_t n = 1; n <= 12; ++n) {
        const std::size_t dim = std::size_t{1} << n;
        for (qubit_t q = 0; q < n; ++q) {
            const std::vector<amp> u = random_matrix(2, gen);
            const std::vector<amp> input = random_state(dim, gen);
            std::vector<amp> scalar = input;
            std::vector<amp> avx2 = input;
            kernels::apply_1q(scalar.data(), n, u.data(), q,
                              kernels::isa::scalar);
            kernels::apply_1q(avx2.data(), n, u.data(), q,
                              kernels::isa::avx2);
            EXPECT_TRUE(bits_equal(scalar, avx2))
                << "n=" << n << " q=" << q;
        }
    }
}

TEST(kernels, apply_block_avx2_matches_scalar_bit_for_bit) {
    if (!both_isas_available()) {
        GTEST_SKIP() << "AVX2 kernels not available on this build/host";
    }
    quorum::util::rng gen(20250802);
    for (std::size_t n = 2; n <= 12; ++n) {
        const std::size_t dim = std::size_t{1} << n;
        for (std::size_t k = 2; k <= 4; ++k) {
            for (const std::vector<qubit_t>& qubits : operand_sets(n, k)) {
                const std::size_t block = std::size_t{1} << k;
                const std::vector<amp> u = random_matrix(block, gen);
                const std::vector<std::size_t> offsets = make_offsets(qubits);
                std::vector<qubit_t> sorted = qubits;
                std::sort(sorted.begin(), sorted.end());
                const std::vector<amp> input = random_state(dim, gen);
                std::vector<amp> scratch(block);
                std::vector<amp> scalar = input;
                std::vector<amp> avx2 = input;
                kernels::apply_block(scalar.data(), n, u.data(), sorted,
                                     offsets, scratch.data(),
                                     kernels::isa::scalar);
                kernels::apply_block(avx2.data(), n, u.data(), sorted,
                                     offsets, scratch.data(),
                                     kernels::isa::avx2);
                EXPECT_TRUE(bits_equal(scalar, avx2))
                    << "n=" << n << " k=" << k << " q0=" << qubits[0];
            }
        }
    }
}

TEST(kernels, collapse_avx2_matches_scalar_bit_for_bit) {
    if (!both_isas_available()) {
        GTEST_SKIP() << "AVX2 kernels not available on this build/host";
    }
    quorum::util::rng gen(20250803);
    for (std::size_t n = 1; n <= 12; ++n) {
        const std::size_t dim = std::size_t{1} << n;
        for (qubit_t q = 0; q < n; ++q) {
            for (const bool outcome : {false, true}) {
                const double scale = gen.uniform(0.5, 2.0);
                const std::vector<amp> input = random_state(dim, gen);
                std::vector<amp> scalar = input;
                std::vector<amp> avx2 = input;
                kernels::collapse(scalar.data(), n, q, outcome, scale,
                                  kernels::isa::scalar);
                kernels::collapse(avx2.data(), n, q, outcome, scale,
                                  kernels::isa::avx2);
                EXPECT_TRUE(bits_equal(scalar, avx2))
                    << "n=" << n << " q=" << q << " outcome=" << outcome;
            }
        }
    }
}

TEST(kernels, collapse_zeroes_are_positive_zero) {
    // The scalar reference ASSIGNS 0.0 to pruned amplitudes; a
    // multiply-by-zero implementation would leak -0.0 from negative
    // inputs. Pin the assignment semantics on both ISAs.
    for (const kernels::isa which : {kernels::isa::scalar,
                                     kernels::isa::avx2}) {
        if (which == kernels::isa::avx2 && !both_isas_available()) {
            continue;
        }
        std::vector<amp> state(16, amp{-1.0, -1.0});
        kernels::collapse(state.data(), 4, 1, true, 1.0, which);
        for (std::size_t i = 0; i < state.size(); ++i) {
            if ((i & 2u) == 0) {
                EXPECT_EQ(std::bit_cast<std::uint64_t>(state[i].real()),
                          std::bit_cast<std::uint64_t>(0.0));
                EXPECT_EQ(std::bit_cast<std::uint64_t>(state[i].imag()),
                          std::bit_cast<std::uint64_t>(0.0));
            }
        }
    }
}

TEST(kernels, dispatch_honours_disable_env_var) {
    if (!kernels::avx2_compiled() || !kernels::avx2_supported()) {
        EXPECT_EQ(kernels::detect_isa(), kernels::isa::scalar);
        GTEST_SKIP() << "AVX2 kernels not available on this build/host";
    }
    const char* before = std::getenv("QUORUM_DISABLE_AVX2");
    ASSERT_EQ(setenv("QUORUM_DISABLE_AVX2", "1", 1), 0);
    EXPECT_EQ(kernels::detect_isa(), kernels::isa::scalar);
    if (before == nullptr) {
        ASSERT_EQ(unsetenv("QUORUM_DISABLE_AVX2"), 0);
        EXPECT_EQ(kernels::detect_isa(), kernels::isa::avx2);
    } else {
        ASSERT_EQ(setenv("QUORUM_DISABLE_AVX2", before, 1), 0);
    }
}

TEST(kernels, statevector_and_kernel_apply_agree) {
    // The statevector engine routes through the dispatching kernel
    // overloads; a direct kernel call on the raw amplitudes must match.
    quorum::util::rng gen(20250804);
    const std::size_t n = 6;
    std::vector<amp> raw = random_state(std::size_t{1} << n, gen);
    double norm = 0.0;
    for (const amp& a : raw) {
        norm += std::norm(a);
    }
    const double inv = 1.0 / std::sqrt(norm);
    for (amp& a : raw) {
        a *= inv;
    }
    quorum::qsim::statevector state =
        quorum::qsim::statevector::from_amplitudes(raw);
    const std::vector<amp> u = random_matrix(2, gen);
    const quorum::util::cmatrix m =
        quorum::util::cmatrix::from_rows(2, 2, u);
    state.apply_1q(m, 3);
    kernels::apply_1q(raw.data(), n, u.data(), 3);
    EXPECT_TRUE(bits_equal(
        raw, std::vector<amp>(state.amplitudes().begin(),
                              state.amplitudes().end())));
}

// Density kernels vs. the original density-matrix loops.

namespace oracle = quorum::qsim::oracle;

std::vector<kernels::isa> available_isas() {
    std::vector<kernels::isa> isas{kernels::isa::scalar};
    if (both_isas_available()) {
        isas.push_back(kernels::isa::avx2);
    }
    return isas;
}

/// A random valid density matrix: a mixture of three random pure states.
/// The diagonal's imaginary parts are set to -0.0, so kernels that must
/// add to +0.0 (reset) or keep the sign (scaling) are told apart.
std::vector<amp> random_density(std::size_t n, quorum::util::rng& gen) {
    const std::size_t dim = std::size_t{1} << n;
    std::vector<amp> rho(dim * dim);
    double weight_left = 1.0;
    for (int component = 0; component < 3; ++component) {
        const std::vector<amp> psi = random_state(dim, gen);
        double norm = 0.0;
        for (const amp& a : psi) {
            norm += std::norm(a);
        }
        const double w = component == 2 ? weight_left : weight_left * 0.5;
        weight_left -= w;
        for (std::size_t r = 0; r < dim; ++r) {
            for (std::size_t c = 0; c < dim; ++c) {
                rho[r * dim + c] += (w / norm) * psi[r] * std::conj(psi[c]);
            }
        }
    }
    for (std::size_t i = 0; i < dim; ++i) {
        rho[i * dim + i].imag(-0.0);
    }
    return rho;
}

/// Applies `kernel(data, isa)` to copies of rho on every available ISA
/// and `reference(rho)` to another; all results must match bit for bit.
template <typename Kernel, typename Reference>
void expect_matches_oracle(const std::vector<amp>& rho, Kernel kernel,
                           Reference reference, const std::string& what) {
    std::vector<amp> expected = rho;
    reference(expected);
    for (const kernels::isa which : available_isas()) {
        std::vector<amp> got = rho;
        kernel(got.data(), which);
        EXPECT_TRUE(bits_equal(got, expected))
            << what << (which == kernels::isa::avx2 ? " avx2" : " scalar");
    }
}

std::string label(const char* kernel, std::size_t n,
                  std::initializer_list<qubit_t> qubits) {
    std::string out = std::string(kernel) + " n=" + std::to_string(n) + " q=";
    for (const qubit_t q : qubits) {
        out += std::to_string(q) + ",";
    }
    return out;
}

std::vector<amp> conjugated(const std::vector<amp>& u) {
    std::vector<amp> out(u.size());
    for (std::size_t i = 0; i < u.size(); ++i) {
        out[i] = std::conj(u[i]);
    }
    return out;
}

TEST(density_kernels, diagonal_pass_matches_oracle) {
    quorum::util::rng gen(20251001);
    for (std::size_t n = 1; n <= 7; ++n) {
        const std::size_t dim = std::size_t{1} << n;
        for (qubit_t q = 0; q < n; ++q) {
            const amp d0 = std::polar(1.0, gen.angle());
            const amp d1 = std::polar(1.0, gen.angle());
            const amp u[4] = {d0, amp{}, amp{}, d1};
            const amp f[4] = {d0 * std::conj(d0), d0 * std::conj(d1),
                              d1 * std::conj(d0), d1 * std::conj(d1)};
            const auto kernel = [&](amp* data, kernels::isa which) {
                kernels::density_diagonal(data, n, f, q, which);
            };
            const auto reference = [&](std::vector<amp>& ref) {
                oracle::apply_1q(ref, dim, u, q);
            };
            expect_matches_oracle(random_density(n, gen), kernel, reference,
                                  label("diagonal", n, {q}));
        }
    }
}

TEST(density_kernels, general_1q_is_a_row_then_column_pass) {
    quorum::util::rng gen(20251002);
    for (std::size_t n = 1; n <= 7; ++n) {
        const std::size_t dim = std::size_t{1} << n;
        for (qubit_t q = 0; q < n; ++q) {
            const std::vector<amp> u = random_matrix(2, gen);
            const std::vector<amp> conj_u = conjugated(u);
            const auto row = static_cast<qubit_t>(q + n);
            const auto kernel = [&](amp* data, kernels::isa which) {
                kernels::apply_1q(data, 2 * n, u.data(), row, which);
                kernels::apply_1q(data, 2 * n, conj_u.data(), q, which);
            };
            const auto reference = [&](std::vector<amp>& ref) {
                oracle::apply_1q(ref, dim, u.data(), q);
            };
            expect_matches_oracle(random_density(n, gen), kernel, reference,
                                  label("1q", n, {q}));
        }
    }
}

TEST(density_kernels, block_gate_is_a_row_then_column_pass) {
    quorum::util::rng gen(20251003);
    for (std::size_t n = 2; n <= 6; ++n) {
        const std::size_t dim = std::size_t{1} << n;
        for (std::size_t k = 2; k <= 3; ++k) {
            for (const std::vector<qubit_t>& qubits : operand_sets(n, k)) {
                const std::size_t block = std::size_t{1} << k;
                const std::vector<amp> u = random_matrix(block, gen);
                const std::vector<amp> conj_u = conjugated(u);
                std::vector<qubit_t> rows = qubits;
                for (qubit_t& q : rows) {
                    q = static_cast<qubit_t>(q + n);
                }
                std::vector<qubit_t> sorted_rows = rows;
                std::sort(sorted_rows.begin(), sorted_rows.end());
                std::vector<qubit_t> sorted_cols = qubits;
                std::sort(sorted_cols.begin(), sorted_cols.end());
                const auto row_offsets = make_offsets(rows);
                const auto col_offsets = make_offsets(qubits);
                std::vector<amp> scratch(block);
                const auto kernel = [&](amp* data, kernels::isa which) {
                    kernels::apply_block(data, 2 * n, u.data(), sorted_rows,
                                         row_offsets, scratch.data(), which);
                    kernels::apply_block(data, 2 * n, conj_u.data(),
                                         sorted_cols, col_offsets,
                                         scratch.data(), which);
                };
                const auto reference = [&](std::vector<amp>& ref) {
                    oracle::apply_matrix(ref, dim, u, qubits);
                };
                expect_matches_oracle(random_density(n, gen), kernel, reference,
                                      label("block", n, {qubits[0]}));
            }
        }
    }
}

TEST(density_kernels, cx_matches_oracle) {
    quorum::util::rng gen(20251004);
    for (std::size_t n = 2; n <= 7; ++n) {
        const std::size_t dim = std::size_t{1} << n;
        for (qubit_t c = 0; c < n; ++c) {
            for (qubit_t t = 0; t < n; ++t) {
                if (c == t) {
                    continue;
                }
                const auto kernel = [&](amp* data, kernels::isa which) {
                    kernels::density_cx(data, n, c, t, which);
                };
                const auto reference = [&](std::vector<amp>& ref) {
                    oracle::cx(ref, dim, c, t);
                };
                expect_matches_oracle(random_density(n, gen), kernel, reference,
                                      label("cx", n, {c, t}));
            }
        }
    }
}

TEST(density_kernels, depolarize_1q_matches_oracle) {
    quorum::util::rng gen(20251005);
    for (std::size_t n = 2; n <= 7; ++n) {
        const std::size_t dim = std::size_t{1} << n;
        for (qubit_t q = 0; q < n; ++q) {
            const double p = gen.uniform();
            const auto kernel = [&](amp* data, kernels::isa which) {
                kernels::density_depolarize_1q(data, n, q, p, which);
            };
            const auto reference = [&](std::vector<amp>& ref) {
                oracle::depolarize_1q(ref, dim, q, p);
            };
            expect_matches_oracle(random_density(n, gen), kernel, reference,
                                  label("depolarize_1q", n, {q}));
        }
    }
}

TEST(density_kernels, depolarize_2q_matches_oracle) {
    quorum::util::rng gen(20251006);
    for (std::size_t n = 3; n <= 7; ++n) {
        const std::size_t dim = std::size_t{1} << n;
        for (qubit_t a = 0; a < n; ++a) {
            for (qubit_t b = 0; b < n; ++b) {
                if (a == b) {
                    continue;
                }
                const std::vector<qubit_t> qubits{a, b};
                std::vector<qubit_t> sorted = qubits;
                std::sort(sorted.begin(), sorted.end());
                const std::vector<std::size_t> offsets = make_offsets(sorted);
                const double p = gen.uniform();
                const auto kernel = [&](amp* data, kernels::isa which) {
                    kernels::density_depolarize_block(data, n, sorted, offsets,
                                                      p, which);
                };
                const auto reference = [&](std::vector<amp>& ref) {
                    oracle::depolarize_block(ref, dim, qubits, p);
                };
                expect_matches_oracle(random_density(n, gen), kernel, reference,
                                      label("depolarize_2q", n, {a, b}));
            }
        }
    }
}

TEST(density_kernels, thermal_matches_oracle) {
    quorum::util::rng gen(20251007);
    for (std::size_t n = 1; n <= 7; ++n) {
        const std::size_t dim = std::size_t{1} << n;
        for (qubit_t q = 0; q < n; ++q) {
            const double gamma = q % 3 == 1 ? 0.0 : gen.uniform();
            const double lambda = q % 3 == 2 ? 0.0 : gen.uniform();
            const auto kernel = [&](amp* data, kernels::isa which) {
                kernels::density_thermal(data, n, q, gamma, lambda, which);
            };
            const auto reference = [&](std::vector<amp>& ref) {
                oracle::thermal(ref, dim, q, gamma, lambda);
            };
            expect_matches_oracle(random_density(n, gen), kernel, reference,
                                  label("thermal", n, {q}));
        }
    }
}

TEST(density_kernels, reset_matches_oracle) {
    quorum::util::rng gen(20251008);
    for (std::size_t n = 1; n <= 7; ++n) {
        const std::size_t dim = std::size_t{1} << n;
        for (qubit_t q = 0; q < n; ++q) {
            const auto kernel = [&](amp* data, kernels::isa which) {
                kernels::density_reset(data, n, q, which);
            };
            const auto reference = [&](std::vector<amp>& ref) {
                oracle::reset(ref, dim, q);
            };
            expect_matches_oracle(random_density(n, gen), kernel, reference,
                                  label("reset", n, {q}));
        }
    }
}

} // namespace
