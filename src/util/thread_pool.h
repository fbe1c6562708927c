// Fixed-size worker pool powering Quorum's "embarrassingly parallel"
// ensemble evaluation (paper §IV-F). Results stay deterministic because
// each parallel work item owns an index-derived RNG stream and results are
// reduced in index order, never in completion order.
#ifndef QUORUM_UTIL_THREAD_POOL_H
#define QUORUM_UTIL_THREAD_POOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace quorum::util {

/// A minimal fixed-size thread pool whose one entry point is
/// parallel_for. The calling thread always takes part in the work, so
/// `threads` workers give threads + 1 lanes, and thread_pool(0) is the
/// caller alone: no worker is started and every index runs in order on
/// the calling thread.
class thread_pool {
public:
    /// Starts `threads` workers (0 = none; the caller works alone).
    explicit thread_pool(std::size_t threads);

    thread_pool(const thread_pool&) = delete;
    thread_pool& operator=(const thread_pool&) = delete;

    /// Drains outstanding tasks, then joins all workers.
    ~thread_pool();

    /// Number of worker threads, not counting the caller.
    [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

    /// Runs body(i) for i in [0, count) across the pool and blocks until all
    /// iterations finish. Exceptions from body are rethrown (first one wins);
    /// every other iteration still runs, so a failure can never hang the
    /// pool. The calling thread participates in the work loop instead of
    /// sleeping on the workers, which makes nested calls — a body invoking
    /// parallel_for on its own pool — complete even when every worker is
    /// busy. Safe to call concurrently from multiple threads.
    void parallel_for(std::size_t count,
                      const std::function<void(std::size_t)>& body);

private:
    void worker_loop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable wake_;
    bool stopping_ = false;
};

/// Hardware thread count, never less than 1.
[[nodiscard]] std::size_t default_thread_count() noexcept;

} // namespace quorum::util

#endif // QUORUM_UTIL_THREAD_POOL_H
