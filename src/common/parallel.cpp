#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <thread>
#include <vector>

namespace wsr {

u32 hardware_jobs() {
  const u32 hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void parallel_for_index(std::size_t n, u32 jobs,
                        const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  u32 workers = jobs == 0 ? hardware_jobs() : jobs;
  workers = std::min<u32>(workers, static_cast<u32>(std::min<std::size_t>(
                                       n, std::numeric_limits<u32>::max())));
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < n;) fn(i);
  };
  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  for (u32 t = 0; t + 1 < workers; ++t) threads.emplace_back(worker);
  worker();  // the calling thread is worker 0
  for (std::thread& t : threads) t.join();
}

}  // namespace wsr
