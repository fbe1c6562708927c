// Vectorised state-vector and density-matrix kernels behind runtime CPU
// dispatch.
//
// The scalar kernels are THE bit-exactness reference: they reproduce,
// operation for operation, the arithmetic the engines have always used
// (two complex multiplies, then one complex add, per output amplitude;
// sequential column accumulation for dense blocks). The AVX2
// kernels vectorise ACROSS independent amplitude groups — every lane
// performs exactly the scalar operation sequence on its own amplitude,
// with no FMA contraction and no reassociation — so both ISAs produce
// IEEE-identical doubles for every input. tests/qsim/test_kernels.cpp
// pins that equivalence bit for bit across n = 1..12; the golden-fixture
// suites pin it end to end.
//
// Dispatch rule: the AVX2 path is taken when it was compiled in
// (x86-64 + GCC/Clang), the CPU reports AVX2, and QUORUM_DISABLE_AVX2 is
// not set in the environment. The decision is made once (first use) and
// cached; set the variable before the process starts to force the
// portable path.
#ifndef QUORUM_QSIM_KERNELS_H
#define QUORUM_QSIM_KERNELS_H

#include <cstddef>
#include <span>

#include "qsim/types.h"

namespace quorum::qsim::kernels {

/// Instruction sets a kernel can be asked to run on. `scalar` is always
/// available and is the semantics reference.
enum class isa { scalar, avx2 };

/// The ISA the dispatching overloads use. Detected once, then cached.
[[nodiscard]] isa active_isa() noexcept;

/// Uncached detection (re-reads QUORUM_DISABLE_AVX2) — for tests of the
/// dispatch rule; hot paths use active_isa().
[[nodiscard]] isa detect_isa() noexcept;

/// True when the AVX2 translation unit was compiled into this build.
[[nodiscard]] bool avx2_compiled() noexcept;

/// True when the host CPU reports AVX2 + FMA (ignores the env override
/// and whether the kernels were compiled in).
[[nodiscard]] bool avx2_supported() noexcept;

/// Applies the row-major 2x2 matrix u to qubit `q` of a 2^n_qubits
/// amplitude array: for every pair (i, i + 2^q),
///   data[i]        = u[0]*a + u[1]*b
///   data[i + 2^q]  = u[2]*a + u[3]*b.
void apply_1q(amp* data, std::size_t n_qubits, const amp* u, qubit_t q,
              isa which);
void apply_1q(amp* data, std::size_t n_qubits, const amp* u, qubit_t q);

/// Applies a dense 2^k x 2^k row-major matrix over prepared operand
/// metadata: `sorted` is the ascending operand list, `offsets` comes
/// from make_offsets over the operands in matrix order, and `scratch`
/// must hold at least 2^k amplitudes (used by the scalar path; the AVX2
/// path keeps its working set in registers / on the stack). Groups are
/// independent, so any group order is bit-identical; within a group the
/// scalar column-accumulation order is preserved exactly.
void apply_block(amp* data, std::size_t n_qubits, const amp* u,
                 std::span<const qubit_t> sorted,
                 std::span<const std::size_t> offsets, amp* scratch,
                 isa which);
void apply_block(amp* data, std::size_t n_qubits, const amp* u,
                 std::span<const qubit_t> sorted,
                 std::span<const std::size_t> offsets, amp* scratch);

/// Projection kernel backing statevector::collapse: amplitudes whose bit
/// `q` equals `outcome` are multiplied by `scale` (re and im separately,
/// as complex *= double always has); the rest are set to +0.0.
void collapse(amp* data, std::size_t n_qubits, qubit_t q, bool outcome,
              double scale, isa which);
void collapse(amp* data, std::size_t n_qubits, qubit_t q, bool outcome,
              double scale);

// Density-matrix kernels. A density matrix over n qubits is stored
// row-major, rho(r, c) at r * 2^n + c: the 2n-qubit vector vec(rho) whose
// bits [0, n) index the column and bits [n, 2n) the row. A gate U on
// qubits Q therefore conjugates (rho -> U rho U†) as two vector kernels:
// apply_1q / apply_block with U on bits Q + n (the row pass), then with
// the elementwise conjugate of U on bits Q (the column pass). The kernels
// below are the density operations that do not factor that way. Each
// keeps the per-element operation sequence of the engine's original
// loops (tests/qsim/density_oracle.h), so both ISAs agree bit for bit.

/// Diagonal 1q gate diag(d0, d1) on qubit q in one elementwise pass:
/// rho(r, c) *= f[2 * bit_q(r) + bit_q(c)], where f[2a + b] is the
/// precomputed d_a * conj(d_b).
void density_diagonal(amp* rho, std::size_t n_qubits, const amp* f, qubit_t q,
                      isa which);

/// CX conjugation pi rho pi^T as a basis permutation: rows with the
/// control bit set swap across the target bit, then columns do.
void density_cx(amp* rho, std::size_t n_qubits, qubit_t control, qubit_t target,
                isa which);

/// Depolarising channel on one qubit of a register of n_qubits >= 2:
/// same-bit entries of each 2x2 block mix, opposite-bit ones scale.
void density_depolarize_1q(amp* rho, std::size_t n_qubits, qubit_t q, double p,
                           isa which);

/// Depolarising channel on k = sorted.size() qubits, 2 <= k < n_qubits:
/// rho -> (1-p) rho + p * (I/2^k ⊗ Tr_qubits(rho)). `offsets` is
/// make_offsets(sorted); the partial trace sums in that order.
void density_depolarize_block(amp* rho, std::size_t n_qubits,
                              std::span<const qubit_t> sorted,
                              std::span<const std::size_t> offsets, double p,
                              isa which);

/// Thermal relaxation on qubit q: amplitude damping gamma composed with
/// pure dephasing lambda, one pass over the 2x2 blocks.
void density_thermal(amp* rho, std::size_t n_qubits, qubit_t q, double gamma,
                     double lambda, isa which);

/// Exact reset channel on qubit q, in place: rho -> |0><0|_q ⊗ Tr_q(rho).
void density_reset(amp* rho, std::size_t n_qubits, qubit_t q, isa which);

} // namespace quorum::qsim::kernels

#endif // QUORUM_QSIM_KERNELS_H
