#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "density_oracle.h"

#include "qsim/density_matrix.h"
#include "qsim/noise.h"
#include "util/rng.h"

namespace {

using namespace quorum::qsim;
namespace util = quorum::util;
using cd = std::complex<double>;
namespace oracle = quorum::qsim::oracle;

statevector random_state(std::size_t n, quorum::util::rng& gen) {
    statevector state(n);
    for (std::size_t q = 0; q < n; ++q) {
        const qubit_t operand[] = {static_cast<qubit_t>(q)};
        const double theta[] = {gen.angle()};
        state.apply_gate(gate_kind::ry, operand, theta);
    }
    for (std::size_t q = 0; q + 1 < n; ++q) {
        const qubit_t operands[] = {static_cast<qubit_t>(q),
                                    static_cast<qubit_t>(q + 1)};
        state.apply_gate(gate_kind::cx, operands);
    }
    return state;
}

TEST(DensityMatrix, StartsInGroundState) {
    density_matrix rho(2);
    EXPECT_NEAR(rho.trace_real(), 1.0, 1e-12);
    EXPECT_NEAR(rho.purity(), 1.0, 1e-12);
    EXPECT_EQ(rho.element(0, 0), cd(1.0));
}

TEST(DensityMatrix, FromStatevectorIsPure) {
    quorum::util::rng gen(3);
    const statevector psi = random_state(3, gen);
    const density_matrix rho = density_matrix::from_statevector(psi);
    EXPECT_NEAR(rho.trace_real(), 1.0, 1e-10);
    EXPECT_NEAR(rho.purity(), 1.0, 1e-10);
    for (std::size_t q = 0; q < 3; ++q) {
        EXPECT_NEAR(rho.probability_one(static_cast<qubit_t>(q)),
                    psi.probability_one(static_cast<qubit_t>(q)), 1e-10);
    }
}

TEST(DensityMatrix, UnitaryEvolutionMatchesStatevector) {
    quorum::util::rng gen(5);
    for (int trial = 0; trial < 15; ++trial) {
        statevector psi(3);
        density_matrix rho(3);
        for (int g = 0; g < 10; ++g) {
            const auto q = static_cast<qubit_t>(gen.uniform_index(3));
            const auto q2 =
                static_cast<qubit_t>((q + 1 + gen.uniform_index(2)) % 3);
            const int pick = static_cast<int>(gen.uniform_index(4));
            if (pick == 0) {
                const qubit_t operand[] = {q};
                const double theta[] = {gen.angle()};
                psi.apply_gate(gate_kind::rx, operand, theta);
                rho.apply_gate(gate_kind::rx, operand, theta);
            } else if (pick == 1) {
                const qubit_t operand[] = {q};
                psi.apply_gate(gate_kind::h, operand);
                rho.apply_gate(gate_kind::h, operand);
            } else if (pick == 2) {
                const qubit_t operands[] = {q, q2};
                psi.apply_gate(gate_kind::cx, operands);
                rho.apply_gate(gate_kind::cx, operands);
            } else {
                const qubit_t operand[] = {q};
                const double theta[] = {gen.angle()};
                psi.apply_gate(gate_kind::rz, operand, theta);
                rho.apply_gate(gate_kind::rz, operand, theta);
            }
        }
        const density_matrix expected = density_matrix::from_statevector(psi);
        for (std::size_t r = 0; r < 8; ++r) {
            for (std::size_t c = 0; c < 8; ++c) {
                EXPECT_NEAR(
                    std::abs(rho.element(r, c) - expected.element(r, c)), 0.0,
                    1e-10);
            }
        }
    }
}

TEST(DensityMatrix, KrausChannelPreservesTrace) {
    quorum::util::rng gen(7);
    density_matrix rho = density_matrix::from_statevector(random_state(3, gen));
    const noise_model nm = noise_model::ibm_brisbane_median();
    const auto kraus = nm.thermal_kraus(660.0);
    ASSERT_FALSE(kraus.empty());
    const qubit_t operand[] = {1};
    rho.apply_kraus(kraus, operand);
    EXPECT_NEAR(rho.trace_real(), 1.0, 1e-10);
}

TEST(DensityMatrix, DepolarizeReducesPurity) {
    quorum::util::rng gen(9);
    density_matrix rho = density_matrix::from_statevector(random_state(2, gen));
    const double before = rho.purity();
    const qubit_t operand[] = {0};
    rho.depolarize(operand, 0.2);
    EXPECT_LT(rho.purity(), before);
    EXPECT_NEAR(rho.trace_real(), 1.0, 1e-10);
}

TEST(DensityMatrix, FullDepolarizeGivesMaximallyMixed) {
    quorum::util::rng gen(11);
    density_matrix rho = density_matrix::from_statevector(random_state(2, gen));
    const qubit_t operands[] = {0, 1};
    rho.depolarize(operands, 1.0);
    EXPECT_NEAR(rho.purity(), 0.25, 1e-10);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_NEAR(rho.element(i, i).real(), 0.25, 1e-10);
    }
}

TEST(DensityMatrix, DepolarizeZeroIsNoop) {
    quorum::util::rng gen(13);
    density_matrix rho = density_matrix::from_statevector(random_state(2, gen));
    const double before = rho.purity();
    const qubit_t operand[] = {1};
    rho.depolarize(operand, 0.0);
    EXPECT_NEAR(rho.purity(), before, 1e-12);
}

TEST(DensityMatrix, ResetChannelForcesGround) {
    quorum::util::rng gen(15);
    density_matrix rho = density_matrix::from_statevector(random_state(3, gen));
    rho.reset_qubit(1);
    EXPECT_NEAR(rho.probability_one(1), 0.0, 1e-12);
    EXPECT_NEAR(rho.trace_real(), 1.0, 1e-10);
}

TEST(DensityMatrix, ResetOfBellHalfLeavesPartnerMixed) {
    statevector psi(2);
    const qubit_t q0[] = {0};
    psi.apply_gate(gate_kind::h, q0);
    const qubit_t cx01[] = {0, 1};
    psi.apply_gate(gate_kind::cx, cx01);
    density_matrix rho = density_matrix::from_statevector(psi);
    rho.reset_qubit(0);
    EXPECT_NEAR(rho.probability_one(1), 0.5, 1e-12);
    EXPECT_NEAR(rho.purity(), 0.5, 1e-10); // |0><0| (x) I/2
}

TEST(DensityMatrix, ThermalFastPathMatchesKraus) {
    quorum::util::rng gen(17);
    const noise_model nm = noise_model::ibm_brisbane_median();
    for (const double duration : {60.0, 660.0, 1300.0}) {
        const auto coeff = nm.thermal_coefficients(duration);
        const auto kraus = nm.thermal_kraus(duration);
        density_matrix fast =
            density_matrix::from_statevector(random_state(3, gen));
        density_matrix slow = fast;
        fast.apply_thermal(2, coeff.gamma, coeff.lambda);
        const qubit_t operand[] = {2};
        slow.apply_kraus(kraus, operand);
        for (std::size_t r = 0; r < 8; ++r) {
            for (std::size_t c = 0; c < 8; ++c) {
                EXPECT_NEAR(std::abs(fast.element(r, c) - slow.element(r, c)),
                            0.0, 1e-12);
            }
        }
    }
}

TEST(DensityMatrix, ThermalDampsExcitedPopulation) {
    density_matrix rho(1);
    const qubit_t q0[] = {0};
    rho.apply_gate(gate_kind::x, q0);
    rho.apply_thermal(0, 0.3, 0.0);
    EXPECT_NEAR(rho.probability_one(0), 0.7, 1e-12);
    EXPECT_NEAR(rho.trace_real(), 1.0, 1e-12);
}

TEST(DensityMatrix, PartialTraceOfProductState) {
    // |+> (x) |1>: tracing out qubit 1 leaves |+><+|.
    statevector psi(2);
    const qubit_t q0[] = {0};
    psi.apply_gate(gate_kind::h, q0);
    const qubit_t q1[] = {1};
    psi.apply_gate(gate_kind::x, q1);
    const density_matrix rho = density_matrix::from_statevector(psi);
    const qubit_t traced[] = {1};
    const density_matrix reduced = rho.partial_trace(traced);
    EXPECT_EQ(reduced.num_qubits(), 1u);
    EXPECT_NEAR(reduced.element(0, 1).real(), 0.5, 1e-12);
    EXPECT_NEAR(reduced.element(0, 0).real(), 0.5, 1e-12);
    EXPECT_NEAR(reduced.purity(), 1.0, 1e-12);
}

TEST(DensityMatrix, PartialTraceOfBellIsMixed) {
    statevector psi(2);
    const qubit_t q0[] = {0};
    psi.apply_gate(gate_kind::h, q0);
    const qubit_t cx01[] = {0, 1};
    psi.apply_gate(gate_kind::cx, cx01);
    const density_matrix rho = density_matrix::from_statevector(psi);
    const qubit_t traced[] = {0};
    const density_matrix reduced = rho.partial_trace(traced);
    EXPECT_NEAR(reduced.purity(), 0.5, 1e-12);
    EXPECT_NEAR(reduced.element(0, 0).real(), 0.5, 1e-12);
    EXPECT_NEAR(std::abs(reduced.element(0, 1)), 0.0, 1e-12);
}

TEST(DensityMatrix, InitializeRegisterMatchesStatevector) {
    quorum::util::rng gen(19);
    std::vector<amp> sub(4);
    double norm = 0.0;
    for (auto& a : sub) {
        a = cd(gen.uniform(), 0.0);
        norm += std::norm(a);
    }
    for (auto& a : sub) {
        a /= std::sqrt(norm);
    }
    const qubit_t reg[] = {0, 1};

    density_matrix rho(3);
    rho.initialize_register(reg, sub);

    statevector psi(3);
    psi.initialize_register(reg, sub);
    const density_matrix expected = density_matrix::from_statevector(psi);
    for (std::size_t r = 0; r < 8; ++r) {
        for (std::size_t c = 0; c < 8; ++c) {
            EXPECT_NEAR(std::abs(rho.element(r, c) - expected.element(r, c)),
                        0.0, 1e-12);
        }
    }
}

TEST(DensityMatrix, OverlapOfPureStatesIsFidelity) {
    quorum::util::rng gen(21);
    const statevector a = random_state(2, gen);
    const statevector b = random_state(2, gen);
    const density_matrix rho_a = density_matrix::from_statevector(a);
    const density_matrix rho_b = density_matrix::from_statevector(b);
    const double expected = std::norm(a.inner_product(b));
    EXPECT_NEAR(rho_a.overlap(rho_b), expected, 1e-10);
    EXPECT_NEAR(rho_a.overlap(rho_a), 1.0, 1e-10);
}

TEST(DensityMatrix, CxFastPathMatchesGeneric) {
    quorum::util::rng gen(23);
    for (int trial = 0; trial < 10; ++trial) {
        density_matrix fast =
            density_matrix::from_statevector(random_state(3, gen));
        density_matrix slow = fast;
        const auto c = static_cast<qubit_t>(gen.uniform_index(3));
        const auto t = static_cast<qubit_t>((c + 1 + gen.uniform_index(2)) % 3);
        const qubit_t operands[] = {c, t};
        fast.apply_gate(gate_kind::cx, operands); // permutation fast path
        slow.apply_matrix(gate_matrix(gate_kind::cx), operands); // generic

        for (std::size_t r = 0; r < 8; ++r) {
            for (std::size_t col = 0; col < 8; ++col) {
                EXPECT_NEAR(std::abs(fast.element(r, col) -
                                     slow.element(r, col)),
                            0.0, 1e-12);
            }
        }
    }
}

/// A mixed state on n qubits built through the engine itself.
density_matrix random_mixed_state(std::size_t n, quorum::util::rng& gen) {
    density_matrix rho = density_matrix::from_statevector(random_state(n, gen));
    for (std::size_t q = 0; q < n; ++q) {
        rho.apply_thermal(static_cast<qubit_t>(q), 0.2 * gen.uniform(),
                          0.2 * gen.uniform());
    }
    return rho;
}

std::vector<cd> elements(const density_matrix& rho) {
    std::vector<cd> out;
    for (std::size_t r = 0; r < rho.dim(); ++r) {
        for (std::size_t c = 0; c < rho.dim(); ++c) {
            out.push_back(rho.element(r, c));
        }
    }
    return out;
}

bool bits_equal(const std::vector<cd>& a, const std::vector<cd>& b) {
    const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
    if (a.size() != b.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (bits(a[i].real()) != bits(b[i].real()) ||
            bits(a[i].imag()) != bits(b[i].imag())) {
            return false;
        }
    }
    return true;
}

/// Applies `op` to a random mixed state and `reference` to a copy of its
/// elements: the engine must reproduce its original loops bit for bit.
template <typename Op, typename Reference>
void expect_engine_matches_oracle(std::size_t n, quorum::util::rng& gen, Op op,
                                  Reference reference,
                                  const std::string& what) {
    density_matrix rho = random_mixed_state(n, gen);
    std::vector<cd> expected = elements(rho);
    op(rho);
    reference(expected);
    EXPECT_TRUE(bits_equal(elements(rho), expected)) << what << " n=" << n;
}

TEST(DensityMatrix, GatesAndChannelsMatchOriginalLoopsBitForBit) {
    quorum::util::rng gen(20251009);
    const util::cmatrix sx = gate_matrix(gate_kind::sx);
    const util::cmatrix cz = gate_matrix(gate_kind::cz);
    for (std::size_t n = 1; n <= 7; ++n) {
        const std::size_t dim = std::size_t{1} << n;
        for (std::size_t qi = 0; qi < n; ++qi) {
            const auto q = static_cast<qubit_t>(qi);
            const qubit_t operand[] = {q};
            const double theta[] = {gen.angle()};
            const util::cmatrix rz = gate_matrix(gate_kind::rz, theta);
            const auto apply_rz = [&](density_matrix& rho) {
                rho.apply_gate(gate_kind::rz, operand, theta);
            };
            const auto rz_loop = [&](std::vector<cd>& ref) {
                oracle::apply_1q(ref, dim, rz.data().data(), q);
            };
            expect_engine_matches_oracle(n, gen, apply_rz, rz_loop, "rz");

            const auto apply_sx = [&](density_matrix& rho) {
                rho.apply_gate(gate_kind::sx, operand);
            };
            const auto sx_loop = [&](std::vector<cd>& ref) {
                oracle::apply_1q(ref, dim, sx.data().data(), q);
            };
            expect_engine_matches_oracle(n, gen, apply_sx, sx_loop, "sx");

            const double gamma = gen.uniform();
            const double lambda = gen.uniform();
            const auto thermal = [&](density_matrix& rho) {
                rho.apply_thermal(q, gamma, lambda);
            };
            const auto thermal_loop = [&](std::vector<cd>& ref) {
                oracle::thermal(ref, dim, q, gamma, lambda);
            };
            expect_engine_matches_oracle(n, gen, thermal, thermal_loop,
                                         "thermal");

            const auto reset = [&](density_matrix& rho) { rho.reset_qubit(q); };
            const auto reset_loop = [&](std::vector<cd>& ref) {
                oracle::reset(ref, dim, q);
            };
            expect_engine_matches_oracle(n, gen, reset, reset_loop, "reset");
            if (n < 2) {
                continue;
            }

            const double p = gen.uniform();
            const auto depolarize = [&](density_matrix& rho) {
                rho.depolarize(operand, p);
            };
            const auto depolarize_loop = [&](std::vector<cd>& ref) {
                oracle::depolarize_1q(ref, dim, q, p);
            };
            expect_engine_matches_oracle(n, gen, depolarize, depolarize_loop,
                                         "depolarize_1q");

            const auto partner = static_cast<qubit_t>((qi + 1) % n);
            const qubit_t pair[] = {q, partner};
            const auto apply_cx = [&](density_matrix& rho) {
                rho.apply_gate(gate_kind::cx, pair);
            };
            const auto cx_loop = [&](std::vector<cd>& ref) {
                oracle::cx(ref, dim, q, partner);
            };
            expect_engine_matches_oracle(n, gen, apply_cx, cx_loop, "cx");

            const auto apply_cz = [&](density_matrix& rho) {
                rho.apply_matrix(cz, pair);
            };
            const auto cz_loop = [&](std::vector<cd>& ref) {
                oracle::apply_matrix(ref, dim, cz.data(), {q, partner});
            };
            expect_engine_matches_oracle(n, gen, apply_cz, cz_loop, "cz");
            if (n < 3) {
                continue;
            }

            const auto depolarize_pair = [&](density_matrix& rho) {
                rho.depolarize(pair, p);
            };
            const auto pair_loop = [&](std::vector<cd>& ref) {
                oracle::depolarize_block(ref, dim, {q, partner}, p);
            };
            expect_engine_matches_oracle(n, gen, depolarize_pair, pair_loop,
                                         "depolarize_2q");
        }
    }
}

} // namespace
