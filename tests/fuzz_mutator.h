// Deterministic mutation source for the fuzz suites: a seeded mutator
// (bit/byte flips, boundary values, truncation, splices from the other
// seed inputs) derives a reproducible sequence of inputs from valid
// seeds. The same seed always yields the same sequence, so any failure
// reproduces exactly.
#ifndef QUORUM_TESTS_FUZZ_MUTATOR_H
#define QUORUM_TESTS_FUZZ_MUTATOR_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace quorum::fuzz {

using bytes = std::vector<std::uint8_t>;

/// Byte values on the edge of some decoded field's range.
inline constexpr std::uint8_t boundary[] = {0x00, 0x01, 0x7F, 0x80, 0xFF};

/// Derives mutants from a seed input.
class mutator {
public:
    mutator(std::uint64_t seed, std::vector<bytes> corpus)
        : gen_(seed), corpus_(std::move(corpus)) {}

    [[nodiscard]] bytes mutate(const bytes& input) {
        bytes out = input;
        const std::size_t edits = 1 + below(3);
        for (std::size_t e = 0; e < edits; ++e) {
            switch (below(4)) {
            case 0: // flip one bit
                if (!out.empty()) {
                    out[below(out.size())] ^=
                        static_cast<std::uint8_t>(1u << below(8));
                }
                break;
            case 1: // overwrite a byte with a boundary or random value
                if (!out.empty()) {
                    auto value = static_cast<std::uint8_t>(below(256));
                    if (below(2) == 0) {
                        value = boundary[below(std::size(boundary))];
                    }
                    out[below(out.size())] = value;
                }
                break;
            case 2: // truncate
                out.resize(below(out.size() + 1));
                break;
            default: { // splice in a slice of another seed input
                const bytes& donor = corpus_[below(corpus_.size())];
                if (donor.empty()) {
                    break;
                }
                const std::size_t from = below(donor.size());
                const std::size_t length =
                    1 + below(std::min<std::size_t>(donor.size() - from, 64));
                const std::size_t at = below(out.size() + 1);
                out.insert(out.begin() + static_cast<std::ptrdiff_t>(at),
                           donor.begin() + static_cast<std::ptrdiff_t>(from),
                           donor.begin() +
                               static_cast<std::ptrdiff_t>(from + length));
                break;
            }
            }
        }
        return out;
    }

private:
    [[nodiscard]] std::size_t below(std::size_t n) {
        return n == 0 ? 0 : static_cast<std::size_t>(gen_() % n);
    }

    util::xoshiro256ss gen_;
    std::vector<bytes> corpus_;
};

} // namespace quorum::fuzz

#endif // QUORUM_TESTS_FUZZ_MUTATOR_H
