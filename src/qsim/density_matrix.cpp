#include "qsim/density_matrix.h"

#include <algorithm>
#include <cmath>

#include "qsim/bit_ops.h"
#include "qsim/kernels.h"
#include "util/contracts.h"

namespace quorum::qsim {

density_matrix::density_matrix(std::size_t num_qubits)
    : num_qubits_(num_qubits), dim_(std::size_t{1} << num_qubits),
      data_(dim_ * dim_) {
    QUORUM_EXPECTS_MSG(num_qubits >= 1 && num_qubits <= 13,
                       "density matrix qubit count out of range");
    data_[0] = 1.0;
}

density_matrix density_matrix::from_statevector(const statevector& state) {
    density_matrix rho(state.num_qubits());
    const std::span<const amp> psi = state.amplitudes();
    for (std::size_t r = 0; r < rho.dim_; ++r) {
        for (std::size_t c = 0; c < rho.dim_; ++c) {
            rho.data_[r * rho.dim_ + c] = psi[r] * std::conj(psi[c]);
        }
    }
    return rho;
}

amp density_matrix::element(std::size_t row, std::size_t col) const {
    QUORUM_EXPECTS(row < dim_ && col < dim_);
    return data_[row * dim_ + col];
}

void density_matrix::apply_matrix(const util::cmatrix& m,
                                  std::span<const qubit_t> qubits) {
    const std::size_t k = qubits.size();
    const std::size_t block = std::size_t{1} << k;
    QUORUM_EXPECTS(m.rows() == block && m.cols() == block);
    for (const qubit_t q : qubits) {
        QUORUM_EXPECTS(q < num_qubits_);
    }
    // vec(rho) is a 2n-qubit vector: M acts on the row bits Q + n, then
    // conj(M) on the column bits Q.
    const kernels::isa which = kernels::active_isa();
    const std::size_t vec_qubits = 2 * num_qubits_;
    const std::vector<amp>& u = m.data();
    std::vector<amp> conj_u(u.size());
    for (std::size_t i = 0; i < u.size(); ++i) {
        conj_u[i] = std::conj(u[i]);
    }
    if (k == 1) {
        const qubit_t q = qubits[0];
        if (u[1] == amp{} && u[2] == amp{}) {
            // Diagonal gate (rz and friends): one elementwise pass.
            const amp f[4] = {u[0] * conj_u[0], u[0] * conj_u[3],
                              u[3] * conj_u[0], u[3] * conj_u[3]};
            kernels::density_diagonal(data_.data(), num_qubits_, f, q, which);
            return;
        }
        kernels::apply_1q(data_.data(), vec_qubits, u.data(),
                          static_cast<qubit_t>(q + num_qubits_), which);
        kernels::apply_1q(data_.data(), vec_qubits, conj_u.data(), q, which);
        return;
    }
    std::vector<qubit_t> rows(qubits.begin(), qubits.end());
    for (qubit_t& q : rows) {
        q += static_cast<qubit_t>(num_qubits_);
    }
    std::vector<qubit_t> sorted_rows = rows;
    std::sort(sorted_rows.begin(), sorted_rows.end());
    std::vector<qubit_t> sorted_cols(qubits.begin(), qubits.end());
    std::sort(sorted_cols.begin(), sorted_cols.end());
    std::vector<amp> scratch(block);
    kernels::apply_block(data_.data(), vec_qubits, u.data(), sorted_rows,
                         make_offsets(rows), scratch.data(), which);
    kernels::apply_block(data_.data(), vec_qubits, conj_u.data(), sorted_cols,
                         make_offsets(qubits), scratch.data(), which);
}

void density_matrix::apply_gate(gate_kind kind, std::span<const qubit_t> qubits,
                                std::span<const double> params) {
    if (kind == gate_kind::cx) {
        QUORUM_EXPECTS(qubits[0] < num_qubits_ && qubits[1] < num_qubits_ &&
                       qubits[0] != qubits[1]);
        kernels::density_cx(data_.data(), num_qubits_, qubits[0], qubits[1],
                            kernels::active_isa());
        return;
    }
    apply_matrix(gate_matrix(kind, params), qubits);
}

void density_matrix::apply_thermal(qubit_t q, double gamma, double lambda) {
    QUORUM_EXPECTS(q < num_qubits_);
    QUORUM_EXPECTS(gamma >= 0.0 && gamma <= 1.0);
    QUORUM_EXPECTS(lambda >= 0.0 && lambda <= 1.0);
    if (gamma == 0.0 && lambda == 0.0) {
        return;
    }
    kernels::density_thermal(data_.data(), num_qubits_, q, gamma, lambda,
                             kernels::active_isa());
}

void density_matrix::apply_kraus(std::span<const util::cmatrix> kraus_ops,
                                 std::span<const qubit_t> qubits) {
    QUORUM_EXPECTS(!kraus_ops.empty());
    const std::vector<amp> original = data_;
    std::vector<amp> accumulated(data_.size());
    for (const util::cmatrix& op : kraus_ops) {
        data_ = original;
        apply_matrix(op, qubits);
        for (std::size_t i = 0; i < data_.size(); ++i) {
            accumulated[i] += data_[i];
        }
    }
    data_ = std::move(accumulated);
}

void density_matrix::depolarize(std::span<const qubit_t> qubits, double p) {
    QUORUM_EXPECTS(p >= 0.0 && p <= 1.0);
    if (p == 0.0) {
        return;
    }
    const std::size_t k = qubits.size();
    if (k == num_qubits_) {
        // Depolarizing the whole register: rho -> (1-p) rho + p I/dim.
        const double mix = p / static_cast<double>(dim_);
        for (amp& value : data_) {
            value *= (1.0 - p);
        }
        for (std::size_t i = 0; i < dim_; ++i) {
            data_[i * dim_ + i] += mix;
        }
        return;
    }

    for (const qubit_t q : qubits) {
        QUORUM_EXPECTS(q < num_qubits_);
    }
    if (k == 1) {
        kernels::density_depolarize_1q(data_.data(), num_qubits_, qubits[0], p,
                                       kernels::active_isa());
        return;
    }
    QUORUM_EXPECTS(k < num_qubits_);
    std::vector<qubit_t> sorted(qubits.begin(), qubits.end());
    std::sort(sorted.begin(), sorted.end());
    QUORUM_EXPECTS_MSG(
        std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
        "depolarize qubits must be distinct");
    kernels::density_depolarize_block(data_.data(), num_qubits_, sorted,
                                      make_offsets(sorted), p,
                                      kernels::active_isa());
}

void density_matrix::reset_qubit(qubit_t q) {
    QUORUM_EXPECTS(q < num_qubits_);
    kernels::density_reset(data_.data(), num_qubits_, q, kernels::active_isa());
}

double density_matrix::probability_one(qubit_t q) const {
    QUORUM_EXPECTS(q < num_qubits_);
    const std::size_t mask = std::size_t{1} << q;
    double p = 0.0;
    for (std::size_t i = 0; i < dim_; ++i) {
        if ((i & mask) != 0) {
            p += data_[i * dim_ + i].real();
        }
    }
    return p;
}

double density_matrix::trace_real() const {
    double sum = 0.0;
    for (std::size_t i = 0; i < dim_; ++i) {
        sum += data_[i * dim_ + i].real();
    }
    return sum;
}

double density_matrix::purity() const {
    // Tr(rho^2) = sum_ij rho_ij rho_ji = sum_ij |rho_ij|^2 (Hermitian rho).
    double sum = 0.0;
    for (const amp& value : data_) {
        sum += std::norm(value);
    }
    return sum;
}

density_matrix density_matrix::partial_trace(
    std::span<const qubit_t> qubits) const {
    const std::size_t k = qubits.size();
    QUORUM_EXPECTS(k < num_qubits_);
    std::vector<qubit_t> sorted(qubits.begin(), qubits.end());
    std::sort(sorted.begin(), sorted.end());
    QUORUM_EXPECTS_MSG(
        std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
        "partial trace qubits must be distinct");

    density_matrix reduced(num_qubits_ - k);
    std::fill(reduced.data_.begin(), reduced.data_.end(), amp{});
    const std::vector<std::size_t> offsets = make_offsets(sorted);
    const std::size_t block = std::size_t{1} << k;
    for (std::size_t r = 0; r < reduced.dim_; ++r) {
        const std::size_t row_base = expand_index(r, sorted);
        for (std::size_t c = 0; c < reduced.dim_; ++c) {
            const std::size_t col_base = expand_index(c, sorted);
            amp sum{};
            for (std::size_t a = 0; a < block; ++a) {
                sum += data_[(row_base + offsets[a]) * dim_ +
                             (col_base + offsets[a])];
            }
            reduced.data_[r * reduced.dim_ + c] = sum;
        }
    }
    return reduced;
}

void density_matrix::initialize_register(std::span<const qubit_t> qubits,
                                         std::span<const amp> amplitudes) {
    const std::size_t k = qubits.size();
    QUORUM_EXPECTS(amplitudes.size() == (std::size_t{1} << k));
    const std::size_t mask = make_mask(qubits);
    for (std::size_t r = 0; r < dim_; ++r) {
        for (std::size_t c = 0; c < dim_; ++c) {
            if ((r & mask) != 0 || (c & mask) != 0) {
                QUORUM_EXPECTS_MSG(std::norm(data_[r * dim_ + c]) <
                                       probability_epsilon,
                                   "initialize target register must be |0..0>");
            }
        }
    }
    const std::vector<std::size_t> offsets = make_offsets(qubits);
    std::vector<amp> next(data_.size());
    for (std::size_t r = 0; r < dim_; ++r) {
        if ((r & mask) != 0) {
            continue;
        }
        for (std::size_t c = 0; c < dim_; ++c) {
            if ((c & mask) != 0) {
                continue;
            }
            const amp base = data_[r * dim_ + c];
            if (std::norm(base) < 1e-300) {
                continue;
            }
            for (std::size_t j = 0; j < amplitudes.size(); ++j) {
                for (std::size_t l = 0; l < amplitudes.size(); ++l) {
                    next[(r | offsets[j]) * dim_ + (c | offsets[l])] =
                        base * amplitudes[j] * std::conj(amplitudes[l]);
                }
            }
        }
    }
    data_ = std::move(next);
}

double density_matrix::overlap(const density_matrix& other) const {
    QUORUM_EXPECTS(other.dim_ == dim_);
    // Tr(rho sigma) = sum_ij rho_ij sigma_ji.
    amp sum{};
    for (std::size_t r = 0; r < dim_; ++r) {
        for (std::size_t c = 0; c < dim_; ++c) {
            sum += data_[r * dim_ + c] * other.data_[c * dim_ + r];
        }
    }
    return sum.real();
}

} // namespace quorum::qsim
