// Tests for the parallel loop (common/parallel_for.hpp): every index runs
// exactly once for any thread count, jobs <= 1 runs in order on the
// calling thread, jobs > 1 runs min(jobs, n) threads at once, and the
// first exception surfaces only after every index ran.
#include "common/parallel_for.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace acc {
namespace {

TEST(ParallelFor, RunsEveryIndexOnce) {
  for (const int jobs : {0, 1, 3, 8}) {
    for (const std::size_t n : {0, 1, 5, 100}) {
      std::vector<std::atomic<int>> runs(n);
      parallel_for(jobs, n, [&](std::size_t i) { ++runs[i]; });
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(runs[i].load(), 1)
            << "jobs=" << jobs << " n=" << n << " i=" << i;
    }
  }
}

TEST(ParallelFor, SerialRunsInOrderOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  for (const int jobs : {-1, 0, 1}) {
    std::vector<std::size_t> order;
    bool on_caller = true;
    parallel_for(jobs, 6, [&](std::size_t i) {
      order.push_back(i);
      on_caller &= std::this_thread::get_id() == caller;
    });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}))
        << "jobs=" << jobs;
    EXPECT_TRUE(on_caller) << "jobs=" << jobs;
  }
}

TEST(ParallelFor, FirstExceptionRethrownAfterEveryIndexRan) {
  for (const int jobs : {1, 3}) {
    constexpr std::size_t kN = 20;
    std::vector<std::atomic<int>> runs(kN);
    EXPECT_THROW(parallel_for(jobs, kN,
                              [&](std::size_t i) {
                                ++runs[i];
                                if (i % 4 == 1) throw std::runtime_error("boom");
                              }),
                 std::runtime_error)
        << "jobs=" << jobs;
    for (std::size_t i = 0; i < kN; ++i)
      EXPECT_EQ(runs[i].load(), 1) << "jobs=" << jobs << " i=" << i;
  }
}

// With n == jobs every body waits until all n have started, which only
// happens if n threads run at once; none of them is the caller.
TEST(ParallelFor, StartsMinOfJobsAndIndicesThreads) {
  const std::thread::id caller = std::this_thread::get_id();
  for (const int jobs : {2, 4}) {
    const std::size_t n = static_cast<std::size_t>(jobs);
    std::mutex mu;
    std::condition_variable cv;
    std::set<std::thread::id> threads;
    bool all_started = true;
    parallel_for(jobs, n, [&](std::size_t) {
      std::unique_lock<std::mutex> lock(mu);
      threads.insert(std::this_thread::get_id());
      cv.notify_all();
      all_started &= cv.wait_for(lock, std::chrono::seconds(5),
                                 [&] { return threads.size() == n; });
    });
    EXPECT_TRUE(all_started) << "jobs=" << jobs;
    EXPECT_EQ(threads.size(), n) << "jobs=" << jobs;
    EXPECT_EQ(threads.count(caller), 0u) << "jobs=" << jobs;
  }
  // More jobs than indices: no more threads than indices.
  std::mutex mu;
  std::set<std::thread::id> threads;
  parallel_for(8, 3, [&](std::size_t) {
    const std::lock_guard<std::mutex> lock(mu);
    threads.insert(std::this_thread::get_id());
  });
  EXPECT_GE(threads.size(), 1u);
  EXPECT_LE(threads.size(), 3u);
}

// The serial loop rethrows the exception of the lowest failing index; the
// parallel one rethrows one of the exceptions its bodies threw.
TEST(ParallelFor, RethrownExceptionIsOneTheBodiesThrew) {
  const auto body = [](std::size_t i) {
    if (i == 3 || i == 7) throw std::runtime_error(std::to_string(i));
  };
  for (const int jobs : {0, 1, 3}) {
    std::string what;
    try {
      parallel_for(jobs, 10, body);
    } catch (const std::runtime_error& e) {
      what = e.what();
    }
    if (jobs <= 1) {
      EXPECT_EQ(what, "3") << "jobs=" << jobs;
    } else {
      EXPECT_TRUE(what == "3" || what == "7") << "jobs=" << jobs << " " << what;
    }
  }
}

}  // namespace
}  // namespace acc
