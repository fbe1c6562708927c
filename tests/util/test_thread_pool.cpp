#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/thread_pool.h"

namespace {

using quorum::util::default_thread_count;
using quorum::util::thread_pool;

TEST(ThreadPool, ZeroWorkersRunEveryIndexOnTheCaller) {
    thread_pool pool(0);
    EXPECT_EQ(pool.size(), 0u);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    bool all_on_caller = true;
    pool.parallel_for(50, [&](std::size_t i) {
        all_on_caller &= std::this_thread::get_id() == caller;
        order.push_back(i);
    });
    EXPECT_TRUE(all_on_caller);
    std::vector<std::size_t> expected(50);
    std::iota(expected.begin(), expected.end(), std::size_t{0});
    EXPECT_EQ(order, expected);
}

TEST(ThreadPool, ParallelForVisitsEveryIndexOnce) {
    thread_pool pool(4);
    std::vector<std::atomic<int>> visits(1000);
    pool.parallel_for(1000, [&](std::size_t i) { visits[i].fetch_add(1); });
    for (const auto& v : visits) {
        EXPECT_EQ(v.load(), 1);
    }
}

TEST(ThreadPool, ParallelForZeroCountIsNoop) {
    thread_pool pool(2);
    bool called = false;
    pool.parallel_for(0, [&](std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForMoreTasksThanThreads) {
    thread_pool pool(2);
    std::atomic<long> sum{0};
    pool.parallel_for(10000, [&](std::size_t i) {
        sum.fetch_add(static_cast<long>(i));
    });
    EXPECT_EQ(sum.load(), 10000L * 9999L / 2L);
}

TEST(ThreadPool, ParallelForRethrowsBodyException) {
    thread_pool pool(3);
    EXPECT_THROW((pool.parallel_for(100,
                                   [](std::size_t i) {
                                       if (i == 57) {
                                           throw std::runtime_error("body");
                                       }
                                   })), std::runtime_error);
}

TEST(ThreadPool, ParallelForContinuesAfterException) {
    thread_pool pool(3);
    // All non-throwing iterations must still run (no early abort guarantee
    // needed, but the pool must stay usable afterwards).
    try {
        pool.parallel_for(50, [](std::size_t i) {
            if (i == 0) {
                throw std::runtime_error("first");
            }
        });
    } catch (const std::runtime_error&) {
    }
    std::atomic<int> count{0};
    pool.parallel_for(50, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, DefaultThreadCountPositive) {
    EXPECT_GE(default_thread_count(), 1u);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
    // A body that re-enters parallel_for on the SAME pool: the caller
    // participates in the work loop instead of sleeping on futures, so
    // this completes even with a single worker.
    for (const std::size_t workers : {1u, 2u, 4u}) {
        thread_pool pool(workers);
        std::atomic<int> count{0};
        pool.parallel_for(4, [&](std::size_t) {
            pool.parallel_for(8, [&](std::size_t) { count.fetch_add(1); });
        });
        EXPECT_EQ(count.load(), 32) << workers << " workers";
    }
}

TEST(ThreadPool, NestedParallelForPropagatesInnerException) {
    thread_pool pool(2);
    EXPECT_THROW(
        (pool.parallel_for(3,
                           [&](std::size_t) {
                               pool.parallel_for(3, [](std::size_t i) {
                                   if (i == 1) {
                                       throw std::runtime_error("inner");
                                   }
                               });
                           })),
        std::runtime_error);
    // The pool must stay fully usable afterwards.
    std::atomic<int> count{0};
    pool.parallel_for(10, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, ConcurrentParallelForCallsAreIndependent) {
    // Two threads driving parallel_for on one shared pool (the shape of
    // ensemble workers sharing one sharded engine).
    thread_pool pool(2);
    std::atomic<long> sum_a{0};
    std::atomic<long> sum_b{0};
    std::thread other([&]() {
        pool.parallel_for(500, [&](std::size_t i) {
            sum_a.fetch_add(static_cast<long>(i));
        });
    });
    pool.parallel_for(500, [&](std::size_t i) {
        sum_b.fetch_add(static_cast<long>(i));
    });
    other.join();
    EXPECT_EQ(sum_a.load(), 500L * 499L / 2L);
    EXPECT_EQ(sum_b.load(), 500L * 499L / 2L);
}

class PoolSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PoolSizeSweep, SumIndependentOfPoolSize) {
    thread_pool pool(GetParam());
    std::atomic<long> sum{0};
    pool.parallel_for(777, [&](std::size_t i) {
        sum.fetch_add(static_cast<long>(i * i));
    });
    long expected = 0;
    for (long i = 0; i < 777; ++i) {
        expected += i * i;
    }
    EXPECT_EQ(sum.load(), expected);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PoolSizeSweep,
                         ::testing::Values(0u, 1u, 2u, 3u, 4u, 8u, 16u));

} // namespace
