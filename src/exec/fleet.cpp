#include "exec/fleet.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "exec/registry.h"
#include "exec/serialise.h"
#include "exec/sharded_backend.h"
#include "util/contracts.h"

namespace quorum::exec {

namespace {

/// How long an idle lane polls for its next span before it sleeps. A
/// scoring loop ships its next batch within microseconds, and parking
/// and waking every lane per batch costs more than the poll.
constexpr auto lane_poll_window = std::chrono::microseconds(200);

/// A span's failure on `lane`, in the one wording every layer uses.
std::exception_ptr lane_failure(const std::string& lane, const shard_work& span,
                                const std::string& why) {
    return std::make_exception_ptr(
        util::contract_error(span_failure("fleet worker " + lane, span, why)));
}

} // namespace

// --- worker_fleet -----------------------------------------------------------

worker_fleet::worker_fleet(fleet_config config) : config_(std::move(config)) {
    QUORUM_EXPECTS_MSG(is_plain_backend_name(config_.inner),
                       "the fleet wraps one plain inner backend name (no "
                       "nesting)");
    QUORUM_EXPECTS_MSG(config_.max_pending_spans >= 1,
                       "fleet needs a positive pending-span bound");
    QUORUM_EXPECTS_MSG(config_.rejoin_attempts >= 0 &&
                           config_.rejoin_delay_ms >= 0,
                       "fleet rejoin parameters must be non-negative");
    hello_ = wire::encode_hello(config_.inner, config_.engine);
}

worker_fleet::~worker_fleet() {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    queue_cv_.notify_all();
    space_cv_.notify_all();
    lanes_cv_.notify_all();
    for (const std::unique_ptr<lane_state>& lane : lanes_) {
        if (lane->thread.joinable()) {
            lane->thread.join();
        }
    }
    // Jobs the lanes never claimed: fail their batches instead of leaving
    // collectors blocked on spans that will never run.
    const std::lock_guard<std::mutex> lock(mutex_);
    fail_queue_locked("fleet is shutting down");
}

void worker_fleet::add_factory_lane(transport_factory factory,
                                    std::string label) {
    QUORUM_EXPECTS_MSG(static_cast<bool>(factory),
                       "fleet lane needs a transport factory");
    start_lane(std::move(label), std::move(factory), nullptr);
}

void worker_fleet::add_lane(std::unique_ptr<wire_transport> transport,
                            std::string label) {
    QUORUM_EXPECTS_MSG(transport != nullptr,
                       "fleet lane needs a transport");
    start_lane(std::move(label), nullptr, std::move(transport));
}

void worker_fleet::start_lane(std::string label, transport_factory factory,
                              std::unique_ptr<wire_transport> adopted) {
    auto lane = std::make_unique<lane_state>();
    lane->label = std::move(label);
    lane->factory = std::move(factory);
    lane->adopted = std::move(adopted);
    lane_state* raw = lane.get();
    const std::lock_guard<std::mutex> lock(mutex_);
    QUORUM_EXPECTS_MSG(!stopping_, "fleet is shutting down");
    raw->factory_index = lanes_.size();
    ++pending_lanes_;
    lanes_.push_back(std::move(lane));
    raw->thread = std::thread([this, raw] { lane_main(*raw); });
}

std::size_t worker_fleet::lane_count() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return live_lanes_;
}

std::size_t worker_fleet::requeued_spans() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return requeued_;
}

fleet_stats worker_fleet::stats() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    fleet_stats snapshot;
    snapshot.live_lanes = live_lanes_;
    snapshot.requeued_spans = requeued_;
    snapshot.lanes.reserve(lanes_.size());
    for (const std::unique_ptr<lane_state>& lane : lanes_) {
        snapshot.lanes.push_back(
            fleet_lane_stats{lane->label, lane->completed, lane->live});
        snapshot.spans_completed += lane->completed;
    }
    return snapshot;
}

void worker_fleet::wait_for_lanes(std::size_t lanes, int timeout_ms) const {
    std::unique_lock<std::mutex> lock(mutex_);
    const bool ready =
        lanes_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                           [&] { return live_lanes_ >= lanes; });
    QUORUM_EXPECTS_MSG(
        ready, "fleet: timed out waiting for " + std::to_string(lanes) +
                   " live workers (have " + std::to_string(live_lanes_) +
                   (last_lane_error_.empty()
                        ? std::string(")")
                        : "; last failure: " + last_lane_error_ + ")"));
}

void worker_fleet::wait_for_handshakes() const {
    std::unique_lock<std::mutex> lock(mutex_);
    lanes_cv_.wait(lock, [&] { return pending_lanes_ == 0; });
    if (live_lanes_ == 0) {
        throw util::contract_error(no_workers_message_locked());
    }
}

std::string worker_fleet::no_workers_message_locked() const {
    std::string message = "fleet has no live workers";
    if (!last_lane_error_.empty()) {
        message += " (last failure: " + last_lane_error_ + ")";
    }
    return message;
}

void worker_fleet::note_lane_gone_locked() {
    if (!no_lanes_locked() || stopping_) {
        return;
    }
    fail_queue_locked(no_workers_message_locked());
}

void worker_fleet::fail_queue_locked(const std::string& why) {
    std::deque<span_job> doomed;
    doomed.swap(queue_);
    for (const span_job& job : doomed) {
        finish_locked(job, std::make_exception_ptr(util::contract_error(why)));
    }
    space_cv_.notify_all();
}

void worker_fleet::finish_locked(const span_job& job,
                                 std::exception_ptr failure) {
    batch_state& batch = *job.batch;
    if (failure != nullptr && batch.failure == nullptr) {
        // Don't ship more doomed work: the batch's queued spans retire
        // unrun, and a submitter blocked on the bound sees the failure.
        batch.failure = std::move(failure);
        const auto queued_here = [&](const span_job& queued) {
            return queued.batch == &batch;
        };
        batch.outstanding -= std::erase_if(queue_, queued_here);
        space_cv_.notify_all();
    }
    if (--batch.outstanding == 0) {
        done_cv_.notify_all();
    }
}

void worker_fleet::lane_main(lane_state& lane) {
    int failures = 0;
    for (;;) {
        // Connect + handshake. Factory lanes retry (bounded) — this is
        // both the initial connect and the post-death rejoin; registered
        // lanes get exactly the one connection their worker dialed in.
        std::unique_ptr<wire_transport> transport;
        try {
            if (lane.adopted != nullptr) {
                transport = std::move(lane.adopted);
            } else {
                transport = lane.factory(lane.factory_index);
                QUORUM_EXPECTS_MSG(transport != nullptr,
                                   "transport factory returned null");
            }
            transport->send_message(hello_);
            wire::check_hello_ack(transport->recv_message(),
                                  "fleet worker " + lane.label);
        } catch (const std::exception& error) {
            std::unique_lock<std::mutex> lock(mutex_);
            last_lane_error_ = lane.label + ": " + error.what();
            ++failures;
            const bool abandoned = lane.factory == nullptr ||
                                   failures > config_.rejoin_attempts;
            if (stopping_ || abandoned) {
                --pending_lanes_;
                note_lane_gone_locked();
                lanes_cv_.notify_all();
                return;
            }
            lock.unlock();
            std::this_thread::sleep_for(
                std::chrono::milliseconds(config_.rejoin_delay_ms));
            continue;
        }
        failures = 0;
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            --pending_lanes_;
            ++live_lanes_;
            lane.live = true;
            lanes_cv_.notify_all();
        }
        if (serve_on(lane, *transport)) {
            // Fleet shutdown: tell the worker to exit cleanly (EOF on
            // transport destruction also works, so failures are
            // ignorable).
            try {
                transport->send_message(wire::encode_shutdown());
            } catch (...) { // NOLINT(bugprone-empty-catch)
            }
        }
        // Shutdown, or the transport died mid-serve. Registered lanes
        // drop out (their worker rejoins by dialing in again); factory
        // lanes go back to the top and reconnect.
        const std::lock_guard<std::mutex> lock(mutex_);
        --live_lanes_;
        lane.live = false;
        lanes_cv_.notify_all();
        if (lane.factory == nullptr || stopping_) {
            note_lane_gone_locked();
            return;
        }
        ++pending_lanes_;
    }
}

bool worker_fleet::serve_on(lane_state& lane, wire_transport& transport) {
    for (;;) {
        span_job job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            const auto until =
                std::chrono::steady_clock::now() + lane_poll_window;
            while (queue_.empty() && !stopping_ &&
                   std::chrono::steady_clock::now() < until) {
                lock.unlock();
                std::this_thread::yield();
                lock.lock();
            }
            queue_cv_.wait(lock,
                           [&] { return stopping_ || !queue_.empty(); });
            if (stopping_) {
                return true;
            }
            job = queue_.front();
            queue_.pop_front();
            space_cv_.notify_one();
        }
        std::vector<std::uint8_t> reply;
        try {
            // Send + receive as one unit: a lane never holds an unread
            // reply for a batch it is not currently serving, so an
            // aborted batch can never leak values into a later one.
            transport.send_message(job.batch->requests[job.index]);
            reply = transport.recv_message();
        } catch (const transport_error& error) {
            handle_lane_death(lane, job, error.what());
            return false;
        }
        // Each span owns a disjoint slice of `out`; run_spans reads it
        // only after the last job retires under the lock.
        std::exception_ptr failure;
        try {
            const std::size_t width = job.batch->values_per_sample;
            wire::decode_result_reply(
                reply, job.batch->out.subspan(job.span.first * width,
                                              job.span.count * width));
        } catch (const util::contract_error& error) {
            failure = lane_failure(lane.label, job.span, error.what());
        }
        const std::lock_guard<std::mutex> lock(mutex_);
        ++lane.completed;
        finish_locked(job, std::move(failure));
    }
}

void worker_fleet::handle_lane_death(const lane_state& lane, span_job job,
                                     const std::string& why) {
    const std::lock_guard<std::mutex> lock(mutex_);
    last_lane_error_ = lane.label + ": " + why;
    if (job.batch->failure != nullptr) {
        finish_locked(job, nullptr); // the batch is lost already
    } else if (job.attempts == 0 && !stopping_) {
        // THE span's one requeue: any live lane — possibly this one,
        // reconnected — re-runs it. Deliberately not bounded by
        // max_pending_spans: a lane blocking on its own requeue would
        // deadlock the bound.
        job.attempts = 1;
        ++requeued_;
        queue_.push_back(job);
        queue_cv_.notify_one();
    } else {
        const std::string died = "worker died (requeue exhausted): " + why;
        finish_locked(job, lane_failure(lane.label, job.span, died));
    }
}

void worker_fleet::run_spans(std::span<const shard_work> plan,
                             std::vector<std::vector<std::uint8_t>> requests,
                             std::size_t values_per_sample,
                             std::span<double> out) {
    QUORUM_EXPECTS_MSG(plan.size() == requests.size(),
                       "fleet: one request per planned span");
    batch_state batch{std::move(requests), out, values_per_sample, 0, {}};
    std::unique_lock<std::mutex> lock(mutex_);
    for (std::size_t k = 0; k < plan.size() && batch.failure == nullptr;
         ++k) {
        space_cv_.wait(lock, [&] {
            return stopping_ || no_lanes_locked() ||
                   batch.failure != nullptr ||
                   queue_.size() < config_.max_pending_spans;
        });
        if (stopping_ || no_lanes_locked()) {
            batch.failure = std::make_exception_ptr(util::contract_error(
                stopping_ ? std::string("fleet is shutting down")
                          : no_workers_message_locked()));
        } else if (batch.failure == nullptr) {
            ++batch.outstanding;
            queue_.push_back(span_job{&batch, k, plan[k], 0});
            queue_cv_.notify_one();
        }
    }
    // Even a failed batch waits for its running spans: they write into
    // `out` and point at `batch`.
    done_cv_.wait(lock, [&] { return batch.outstanding == 0; });
    if (batch.failure != nullptr) {
        std::rethrow_exception(batch.failure);
    }
}

// --- fleet_executor ---------------------------------------------------------

fleet_executor::fleet_executor(std::shared_ptr<worker_fleet> fleet,
                               std::size_t planned_lanes)
    : fleet_(std::move(fleet)), planned_lanes_(planned_lanes) {
    QUORUM_EXPECTS_MSG(fleet_ != nullptr, "fleet executor needs a fleet");
    const fleet_config& config = fleet_->config();
    spec_ = "fleet:" + config.inner;
    planner_ = span_planner(config.engine.schedule);
    needs_rng_ = config.engine.sampling_mode != sampling::exact;
    probe_ = make_executor(config.inner, config.engine);
}

void fleet_executor::run_batch(const program& prog,
                               std::span<const sample> samples,
                               std::span<double> out) const {
    validate_batch(prog, samples, out, needs_rng_);
    dispatch(std::span<const program>(&prog, 1), 0, samples, out);
}

void fleet_executor::run_batch_levels(std::span<const program> levels,
                                      std::span<const sample> samples,
                                      std::span<double> out) const {
    validate_level_batch(levels, samples, out, needs_rng_);
    dispatch(levels, levels.size(), samples, out);
}

void fleet_executor::dispatch(std::span<const program> programs,
                              std::size_t levels,
                              std::span<const sample> samples,
                              std::span<double> out) const {
    if (samples.empty()) {
        return;
    }
    wire::writer block;
    if (levels > 0) {
        block.u32(static_cast<std::uint32_t>(levels));
    }
    for (const program& prog : programs) {
        wire::encode_program(block, prog);
    }
    const std::vector<std::uint8_t> blob = block.take();
    std::size_t lanes = planned_lanes_;
    if (lanes == 0) {
        lanes = std::clamp<std::size_t>(fleet_->lane_count(), 1,
                                        sharded_backend::max_shards);
    }
    // Keyed by sample index only, exactly like the in-process sharded
    // plan (a family plans without a program), so fused evaluation
    // composes with lane-count invariance.
    const program* sized_by = levels == 0 ? programs.data() : nullptr;
    const std::vector<shard_work> plan =
        planner_.plan(samples.size(), lanes, sized_by);
    std::vector<std::vector<std::uint8_t>> requests;
    requests.reserve(plan.size());
    for (const shard_work& span : plan) {
        requests.push_back(wire::encode_span_request(
            span, blob, samples.subspan(span.first, span.count), levels,
            needs_rng_));
    }
    const std::size_t values_per_sample = std::max<std::size_t>(levels, 1);
    fleet_->run_spans(plan, std::move(requests), values_per_sample, out);
}

} // namespace quorum::exec
