#include "common/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace acc {

void parallel_for(int jobs, std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  std::mutex error_mu;
  std::exception_ptr error;
  const auto run = [&](std::size_t i) {
    try {
      body(i);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mu);
      if (!error) error = std::current_exception();
    }
  };
  if (jobs <= 1) {
    for (std::size_t i = 0; i < n; ++i) run(i);
  } else {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> threads(
        std::min(static_cast<std::size_t>(jobs), n));
    for (std::thread& t : threads)
      t = std::thread([&] {
        for (std::size_t i = next++; i < n; i = next++) run(i);
      });
    for (std::thread& t : threads) t.join();
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace acc
