// LazyFifo: a FIFO over a flat vector with a head index — amortized-O(1)
// pop without std::deque's eager chunk allocation. FabricSim constructs two
// per PE (processor ingress and up-ramp pipeline) and most never see
// traffic, so "allocate nothing until the first push" is the property that
// matters; eagerly allocating deques used to be the single hottest line of
// the fig13 suite. (FlowSim keeps its segment queues in one pooled arena
// instead, see flowsim/flowsim.cpp.)
//
// Compaction: once the dead prefix reaches 32 elements and at least half
// the buffer, it is erased in one move so the buffer cannot grow without
// bound under steady streaming.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace wsr {

template <typename T>
struct LazyFifo {
  std::vector<T> buf;
  std::size_t head = 0;

  bool empty() const { return head == buf.size(); }
  std::size_t size() const { return buf.size() - head; }
  const T& front() const { return buf[head]; }
  T& front() { return buf[head]; }
  void push(const T& v) { buf.push_back(v); }
  void push(T&& v) { buf.push_back(std::move(v)); }
  void pop() {
    if (++head == buf.size()) {
      buf.clear();
      head = 0;
    } else if (head >= 32 && head * 2 >= buf.size()) {
      buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(head));
      head = 0;
    }
  }
};

}  // namespace wsr
