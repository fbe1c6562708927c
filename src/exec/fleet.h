// Persistent worker fleet: the one coordinator that ships span work to
// quorum_worker processes. It owns long-lived lanes (each a
// wire_transport plus a thread) and a single bounded queue of span jobs,
// and multiplexes MANY concurrent in-flight batches across those lanes.
// Any live lane may execute any span; results are keyed by sample index
// alone, and every double travels as its IEEE-754 bit pattern — so
// scores are IEEE == to the plain backend for any fleet size and any
// interleaving of concurrent clients (tests/exec/test_fleet_faults.cpp,
// tests/core/test_serve_golden.cpp). quorum_serve shares one fleet
// across requests; remote:<inner> (exec/remote_backend.h) runs each
// engine on a private fleet of factory lanes.
//
// Lanes come in two flavours:
//   * factory lanes (add_factory_lane) create their transport through a
//     transport_factory — spawned subprocesses or outbound TCP connects —
//     and RECONNECT through it after a worker death (bounded attempts),
//     rejoining the fleet;
//   * registered lanes (add_lane) adopt a connection a worker dialed in
//     on; when that worker dies the lane is dropped, and the worker
//     rejoins by dialing in again.
//
// Fault model: a span whose lane dies mid-flight is requeued ONCE and
// any live lane re-runs it (spans are idempotent — same plan, same RNG
// snapshots, same bits); a second death fails that span's batch. A lane
// sends a request and reads its reply as one unit, so it never holds an
// unread reply, and it decodes the reply itself: an error or malformed
// reply fails the batch without a retry. Every failure is a structured
// util::contract_error naming the lane and the sample span. A failed
// batch's queued spans are dropped rather than shipped, and other
// in-flight batches are untouched. When the last lane is gone, queued
// work fails structurally instead of waiting forever.
//
// Backpressure rule: batch submission blocks while the queue holds
// fleet_config::max_pending_spans jobs; requeues BYPASS the bound — a
// lane must never block on its own requeue, which is what keeps the
// bound deadlock-free (concurrency stress test pins this).
#ifndef QUORUM_EXEC_FLEET_H
#define QUORUM_EXEC_FLEET_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "exec/executor.h"
#include "exec/schedule.h"
#include "exec/transport.h"

namespace quorum::exec {

struct fleet_config {
    /// Plain inner backend every worker runs (no nesting).
    std::string inner = "statevector";
    /// Engine parameters shipped in the handshake; `shards` is ignored
    /// (fleet size is the set of lanes, not a config field).
    engine_config engine{};
    /// Bound on queued-but-unclaimed spans before submitters block.
    std::size_t max_pending_spans = 64;
    /// Reconnect attempts a factory lane makes after each death before
    /// it is abandoned. Registered lanes never reconnect (their worker
    /// dials back in instead).
    int rejoin_attempts = 5;
    int rejoin_delay_ms = 100;
};

/// One lane's telemetry inside a fleet_stats snapshot.
struct fleet_lane_stats {
    std::string label;
    /// Spans this lane has completed (reply delivered) since it joined.
    std::size_t spans_completed = 0;
    bool live = false;
};

/// Point-in-time fleet telemetry (worker_fleet::stats). Taken under the
/// fleet lock, so one snapshot is internally consistent; deltas between
/// two snapshots attribute work only approximately while other requests
/// are in flight.
struct fleet_stats {
    std::size_t live_lanes = 0;
    std::size_t spans_completed = 0; ///< sum over lanes
    std::size_t requeued_spans = 0;
    std::vector<fleet_lane_stats> lanes;
};

class worker_fleet {
public:
    explicit worker_fleet(fleet_config config);
    ~worker_fleet();

    worker_fleet(const worker_fleet&) = delete;
    worker_fleet& operator=(const worker_fleet&) = delete;

    /// Adds a lane that creates — and, after a death, re-creates — its
    /// transport through `factory` (called with a stable per-lane index).
    /// The handshake runs on the lane thread; the lane counts as live
    /// only after its hello_ack checks out.
    void add_factory_lane(transport_factory factory, std::string label);

    /// Registers an already-connected worker (one that dialed into the
    /// coordinator). The fleet is the protocol client on this connection
    /// too: the lane thread sends the hello and checks the ack.
    void add_lane(std::unique_ptr<wire_transport> transport,
                  std::string label);

    /// Lanes that have completed the handshake and are serving.
    [[nodiscard]] std::size_t lane_count() const;

    /// Spans requeued after an observed worker death (fault telemetry).
    [[nodiscard]] std::size_t requeued_spans() const;

    /// Full telemetry snapshot: per-lane completed-span counts, live
    /// flags, and the requeue total — what quorum_serve logs per
    /// request so fleet fault behaviour is observable in production.
    [[nodiscard]] fleet_stats stats() const;

    /// Blocks until at least `lanes` lanes are live. Throws
    /// util::contract_error (citing the last lane failure) on timeout.
    void wait_for_lanes(std::size_t lanes, int timeout_ms) const;

    /// Blocks until no lane is connecting: every lane added so far has
    /// finished its handshake or been abandoned. Throws
    /// util::contract_error (no live workers, citing the last lane
    /// failure) when none of them is live.
    void wait_for_handshakes() const;

    /// Runs one planned batch: queues every span (blocking on the
    /// backpressure bound), waits until each span is done or dropped,
    /// and rethrows the batch's first failure. Lanes decode the replies
    /// sample-major into `out` (`values_per_sample` doubles per sample —
    /// 1 for run_batch shape, the level count for level families).
    /// Thread-safe; any number of batches may be in flight at once.
    void run_spans(std::span<const shard_work> plan,
                   std::vector<std::vector<std::uint8_t>> requests,
                   std::size_t values_per_sample, std::span<double> out);

    [[nodiscard]] const fleet_config& config() const noexcept {
        return config_;
    }

private:
    /// One batch in flight. It lives in run_spans' frame, which returns
    /// only once `outstanding` is back to zero, so jobs may point at it.
    struct batch_state {
        std::vector<std::vector<std::uint8_t>> requests;
        std::span<double> out;
        std::size_t values_per_sample = 1;
        std::size_t outstanding = 0; ///< queued or running spans (mutex_)
        std::exception_ptr failure;  ///< first failure (mutex_)
    };

    struct span_job {
        batch_state* batch = nullptr;
        std::size_t index = 0;
        shard_work span{};
        int attempts = 0;
    };

    struct lane_state {
        std::string label;
        transport_factory factory; ///< null for registered lanes
        std::size_t factory_index = 0;
        std::unique_ptr<wire_transport> adopted;
        std::thread thread;
        std::size_t completed = 0; ///< spans served (guarded by mutex_)
        bool live = false;         ///< handshake done (guarded by mutex_)
    };

    void start_lane(std::string label, transport_factory factory,
                    std::unique_ptr<wire_transport> adopted);
    void lane_main(lane_state& lane);
    /// Serves jobs on a connected transport. Returns true when the fleet
    /// is stopping (clean exit), false when the transport died.
    bool serve_on(lane_state& lane, wire_transport& transport);
    void handle_lane_death(const lane_state& lane, span_job job,
                           const std::string& why);
    /// Retires one job of a batch (locked). The batch's first failure
    /// drops its still-queued jobs; the last retired job wakes run_spans.
    void finish_locked(const span_job& job, std::exception_ptr failure);
    /// Fails every queued job (locked), e.g. when no lane is left.
    void fail_queue_locked(const std::string& why);
    /// Called (locked) whenever a lane leaves the live/pending set: once
    /// nobody is left to serve, fails all queued jobs structurally.
    void note_lane_gone_locked();
    [[nodiscard]] bool no_lanes_locked() const {
        return live_lanes_ == 0 && pending_lanes_ == 0;
    }
    [[nodiscard]] std::string no_workers_message_locked() const;

    fleet_config config_;
    std::vector<std::uint8_t> hello_;

    mutable std::mutex mutex_;
    mutable std::condition_variable queue_cv_; ///< lanes: work available
    mutable std::condition_variable space_cv_; ///< producers: room in queue
    mutable std::condition_variable lanes_cv_; ///< watchers: lane counts
    mutable std::condition_variable done_cv_;  ///< run_spans: batch done
    std::deque<span_job> queue_;
    std::vector<std::unique_ptr<lane_state>> lanes_;
    std::size_t live_lanes_ = 0;
    std::size_t pending_lanes_ = 0;
    std::size_t requeued_ = 0;
    bool stopping_ = false;
    std::string last_lane_error_;
};

/// Executor adapter: scoring through a fleet. Construction instantiates a
/// local probe of the inner backend (config validation + readout
/// support); batches are planned with the configured span planner
/// (fleet_config::engine.schedule) and shipped through
/// worker_fleet::run_spans, whose bounded job queue the lanes PULL from,
/// multiplexing concurrent callers. The plan spans `planned_lanes`
/// lanes, or the CURRENT live lane count when that is 0 — scores are
/// fleet-size- and schedule-invariant, so a fleet that grew or shrank
/// between batches changes nothing but the split. quorum_serve registers
/// one of these per request via exec::register_backend, all sharing one
/// fleet.
class fleet_executor final : public executor {
public:
    explicit fleet_executor(std::shared_ptr<worker_fleet> fleet,
                            std::size_t planned_lanes = 0);

    [[nodiscard]] std::string_view name() const noexcept override {
        return spec_;
    }
    [[nodiscard]] bool supports(readout_kind kind) const noexcept override {
        return probe_->supports(kind);
    }
    void run_batch(const program& prog, std::span<const sample> samples,
                   std::span<double> out) const override;
    void run_batch_levels(std::span<const program> levels,
                          std::span<const sample> samples,
                          std::span<double> out) const override;

private:
    /// Builds one request per planned span and runs them. `levels` == 0
    /// ships `programs[0]` in run_batch shape; >= 1 the whole family.
    void dispatch(std::span<const program> programs, std::size_t levels,
                  std::span<const sample> samples, std::span<double> out) const;

    std::shared_ptr<worker_fleet> fleet_;
    std::size_t planned_lanes_;
    std::string spec_;
    span_planner planner_;
    bool needs_rng_;
    std::unique_ptr<executor> probe_;
};

} // namespace quorum::exec

#endif // QUORUM_EXEC_FLEET_H
