#include "net/mailbox.hpp"

#include <algorithm>
#include <thread>

namespace jmh::net {

namespace {

// Yield rounds a receiver spends before it parks. Most mpi_lite waits are a
// peer a few microseconds behind (one block exchange, one vote round), and
// parking on each of them paid a futex sleep, a wake-up and a reschedule.
// Yield, not a `pause` spin: unpinned gang threads often share a CPU, and a
// pause loop burns the timeslice the awaited peer needs. mpi_exchange on a
// shared 4-vCPU VM, 10 s runs, medians of 4 (PERF.md): parking at once gave
// p50 0.99 ms and p99 1.6 ms; 50, 400 and 2000 yields p50 0.48-0.51 ms and
// p99 1.0-2.5 ms; 2000 pauses p99 3.2 ms; 20000 pauses p99 18 ms at a
// quarter of the 400-yield throughput.
constexpr int kYieldRounds = 400;

}  // namespace

void Mailbox::deliver(Message msg) {
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(msg));
    delivered_.fetch_add(1);
    // Read under mu_, which receivers hold from their last scan until
    // cv_.wait releases it: a receiver is either counted here or will see
    // this delivery when it rescans.
    wake = parked_ > 0;
  }
  if (wake) cv_.notify_all();
}

Message Mailbox::receive(int source, int tag) {
  int yields = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    const auto it = std::find_if(queue_.begin(), queue_.end(), [&](const Message& m) {
      return m.source == source && m.tag == tag;
    });
    if (it != queue_.end()) {
      Message out = std::move(*it);
      queue_.erase(it);
      return out;
    }
    const auto poison = std::find_if(queue_.begin(), queue_.end(), [](const Message& m) {
      return m.source == kPoisonSource;
    });
    if (poison != queue_.end()) return *poison;  // copy: left queued for other receivers
    const std::uint64_t seen = delivered_.load();
    if (yields < kYieldRounds) {
      lock.unlock();
      while (yields < kYieldRounds && delivered_.load() == seen) {
        std::this_thread::yield();
        ++yields;
      }
      lock.lock();
    } else {
      ++parked_;
      cv_.wait(lock, [&] { return delivered_.load() != seen; });
      --parked_;
    }
  }
}

void Mailbox::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  queue_.clear();
}

bool Mailbox::probe(int source, int tag) const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::any_of(queue_.begin(), queue_.end(), [&](const Message& m) {
    return m.source == source && m.tag == tag;
  });
}

std::size_t Mailbox::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

std::size_t Mailbox::parked() const {
  std::lock_guard<std::mutex> lock(mu_);
  return parked_;
}

}  // namespace jmh::net
