// Remote sharded execution backend: `remote:<inner>` evaluates every
// batch in quorum_worker processes that speak the binary wire protocol
// (exec/serialise.h) over a pluggable message transport
// (exec/transport.h). It is a thin executor over a PRIVATE worker fleet
// (exec/fleet.h) of worker_count() factory lanes: batches are planned
// with the same deterministic span planner the in-process sharded backend
// uses (exec/schedule.h, keyed by sample index only) over the configured
// worker count, and shipped through the fleet's pull queue. Concurrent
// callers share the lanes; nothing serialises them.
//
// Determinism: the plan, the per-sample rng stream snapshots and the
// IEEE-754 bit patterns of every double all travel verbatim, and the
// worker runs the identical inner backend code — so remote scores are
// IEEE == to the un-wrapped inner backend for ANY worker count in every
// mode, exactly like the in-process sharded engine (enforced by
// tests/exec/test_remote_backend.cpp and the golden fixtures).
//
// Fault handling is the fleet's: a worker that dies mid-span
// (transport_error) is respawned through the transport factory and its
// span is requeued ONCE to any live lane; a second death, an error or
// malformed reply, or a protocol version mismatch surfaces as a
// structured util::contract_error naming the lane ("remote #<k>") and,
// for span failures, its sample span.
#ifndef QUORUM_EXEC_REMOTE_BACKEND_H
#define QUORUM_EXEC_REMOTE_BACKEND_H

#include <memory>
#include <mutex>
#include <span>
#include <string>

#include "exec/executor.h"
#include "exec/fleet.h"
#include "exec/transport.h"

namespace quorum::exec {

class remote_backend final : public executor {
public:
    /// Workers are whole processes; beyond this a worker count is a
    /// misconfiguration, not a parallelism request.
    static constexpr std::size_t max_workers = 64;

    /// Spawns quorum_worker subprocesses on demand (the default
    /// transport). `config.shards` is the worker count (0 = one per
    /// hardware thread, clamped to max_workers); `inner` is the plain
    /// backend name each worker runs. Construction is process-free: it
    /// only instantiates a local probe of the inner backend (which
    /// validates the name/mode combination); the fleet and its workers
    /// start at the first non-empty batch.
    remote_backend(const engine_config& config, const std::string& inner);

    /// Same, with an explicit transport factory (tests).
    remote_backend(const engine_config& config, const std::string& inner,
                   transport_factory factory);

    [[nodiscard]] std::string_view name() const noexcept override {
        return spec_;
    }

    [[nodiscard]] bool supports(readout_kind kind) const noexcept override {
        return probe_->supports(kind);
    }

    /// Plans with the configured span planner (config.schedule: one
    /// balanced span per worker, or many grain-sized spans) over
    /// worker_count() lanes and runs the spans on the private fleet.
    void run_batch(const program& prog, std::span<const sample> samples,
                   std::span<double> out) const override;

    /// Level families partition exactly like run_batch; each span runs
    /// the whole family on its worker and returns its sample-major slice.
    void run_batch_levels(std::span<const program> levels,
                          std::span<const sample> samples,
                          std::span<double> out) const override;

    /// Number of workers batches are partitioned across.
    [[nodiscard]] std::size_t worker_count() const noexcept {
        return workers_;
    }

private:
    /// The fleet-backed engine, built on first use: worker_count()
    /// factory lanes, all handshaken before the first span ships. A
    /// build that finds no live worker throws and is retried by the
    /// next batch.
    [[nodiscard]] const fleet_executor& engine() const;

    fleet_config fleet_; ///< the private fleet's configuration
    std::string spec_;
    std::size_t workers_;
    transport_factory factory_;
    std::unique_ptr<executor> probe_;
    mutable std::once_flag built_;
    mutable std::unique_ptr<fleet_executor> engine_;
};

} // namespace quorum::exec

#endif // QUORUM_EXEC_REMOTE_BACKEND_H
