#include "engine/executor.h"

#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <chrono>
#include <thread>

namespace gpmv {
namespace {

TEST(ThreadPoolTest, ExecutesEverySubmittedTask) {
  ThreadPoolOptions opts;
  opts.num_threads = 4;
  ThreadPool pool(opts);
  std::atomic<int> counter{0};
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(pool.Submit([&counter] { ++counter; }).ok());
  }
  pool.Shutdown();
  EXPECT_EQ(counter.load(), 200);
  ThreadPoolStats stats = pool.stats();
  EXPECT_EQ(stats.submitted, 200u);
  EXPECT_EQ(stats.executed, 200u);
  EXPECT_EQ(stats.rejected, 0u);
}

TEST(ThreadPoolTest, BoundedQueueAppliesBackpressureNotLoss) {
  ThreadPoolOptions opts;
  opts.num_threads = 2;
  opts.queue_capacity = 2;  // submits must block, never drop
  ThreadPool pool(opts);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(pool.Submit([&counter] {
                      std::this_thread::sleep_for(std::chrono::microseconds(200));
                      ++counter;
                    })
                    .ok());
  }
  pool.Shutdown();
  EXPECT_EQ(counter.load(), 50);
  EXPECT_LE(pool.stats().max_queue_depth, 2u);
}

TEST(ThreadPoolTest, SubmitAfterShutdownFails) {
  ThreadPoolOptions opts;
  opts.num_threads = 1;
  opts.queue_capacity = 4;
  ThreadPool pool(opts);
  pool.Shutdown();
  Status st = pool.Submit([] {});
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(pool.stats().rejected, 1u);
}

TEST(ThreadPoolTest, ZeroThreadsDefaultsToHardwareConcurrency) {
  ThreadPoolOptions opts;
  opts.num_threads = 0;
  opts.queue_capacity = 16;
  ThreadPool pool(opts);
  EXPECT_GE(pool.num_threads(), 1u);
  EXPECT_EQ(pool.num_threads(), UsableCpus());
  std::atomic<int> counter{0};
  ASSERT_TRUE(pool.Submit([&counter] { ++counter; }).ok());
  pool.Shutdown();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, ZeroThreadsFollowsCpuAffinity) {
  // Pin a fresh thread (not the test process) to one CPU; a default-sized
  // pool built there gets one worker instead of time-slicing several.
  size_t workers = 0;
  bool pinned = false;
  std::thread t([&] {
    cpu_set_t set;
    ASSERT_EQ(sched_getaffinity(0, sizeof(set), &set), 0);
    int first = 0;
    while (!CPU_ISSET(first, &set)) ++first;
    CPU_ZERO(&set);
    CPU_SET(first, &set);
    pinned = sched_setaffinity(0, sizeof(set), &set) == 0;
    ThreadPoolOptions opts;
    opts.num_threads = 0;
    ThreadPool pool(opts);
    workers = pool.num_threads();
  });
  t.join();
  ASSERT_TRUE(pinned);
  EXPECT_EQ(workers, 1u);
}

}  // namespace
}  // namespace gpmv
