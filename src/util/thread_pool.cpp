#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <utility>

namespace quorum::util {

namespace {

/// Shared state of one parallel_for call. Helper tasks hold it by
/// shared_ptr: a helper that gets scheduled only after parallel_for has
/// returned (all iterations claimed by other lanes) finds next >= count
/// and exits without touching anything freed.
struct parallel_for_state {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> completed{0};
    std::size_t count = 0;
    std::function<void(std::size_t)> body;
    std::mutex mutex;
    std::condition_variable done;
    std::exception_ptr first_error;
};

/// Claims and runs iterations until none are left. Failed iterations
/// record the first exception and still count as completed, so the caller
/// always observes completed == count (structured error, never a hang).
void drive_parallel_for(const std::shared_ptr<parallel_for_state>& state) {
    for (;;) {
        const std::size_t i = state->next.fetch_add(1);
        if (i >= state->count) {
            return;
        }
        try {
            state->body(i);
        } catch (...) {
            const std::scoped_lock lock(state->mutex);
            if (!state->first_error) {
                state->first_error = std::current_exception();
            }
        }
        if (state->completed.fetch_add(1) + 1 == state->count) {
            // Lock before notifying so the wakeup cannot slip between the
            // waiter's predicate check and its wait.
            const std::scoped_lock lock(state->mutex);
            state->done.notify_all();
        }
    }
}

} // namespace

thread_pool::thread_pool(std::size_t threads) {
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
        workers_.emplace_back([this]() { worker_loop(); });
    }
}

thread_pool::~thread_pool() {
    {
        const std::scoped_lock lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (auto& worker : workers_) {
        worker.join();
    }
}

void thread_pool::worker_loop() {
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock lock(mutex_);
            wake_.wait(lock, [this]() { return stopping_ || !queue_.empty(); });
            if (queue_.empty()) {
                return; // stopping_ and drained
            }
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

void thread_pool::parallel_for(std::size_t count,
                               const std::function<void(std::size_t)>& body) {
    if (count == 0) {
        return;
    }
    auto state = std::make_shared<parallel_for_state>();
    state->count = count;
    state->body = body;

    // Fire-and-forget helpers: the caller never waits on them, only on the
    // iteration count, so queued helpers stuck behind busy workers cannot
    // deadlock a nested call.
    const std::size_t helpers = std::min(size(), count - 1);
    if (helpers > 0) {
        {
            const std::scoped_lock lock(mutex_);
            for (std::size_t lane = 0; lane < helpers; ++lane) {
                queue_.emplace_back(
                    [state]() { drive_parallel_for(state); });
            }
        }
        wake_.notify_all();
    }
    drive_parallel_for(state);

    std::unique_lock lock(state->mutex);
    state->done.wait(lock, [&state]() {
        return state->completed.load() >= state->count;
    });
    if (state->first_error) {
        std::rethrow_exception(state->first_error);
    }
}

std::size_t default_thread_count() noexcept {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

} // namespace quorum::util
