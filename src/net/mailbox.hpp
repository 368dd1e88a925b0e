// Per-rank mailbox: the message-matching core of mpi_lite.
//
// Semantics mirror the MPI subset the solver needs: messages between a
// (source, destination) pair with equal tags are non-overtaking; recv
// blocks until a matching message (by source and tag) arrives. Payloads are
// vectors of double -- everything the Jacobi solver communicates is column
// data or scalar reductions.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

namespace jmh::net {

using Payload = std::vector<double>;

struct Message {
  int source = -1;
  int tag = 0;
  std::uint64_t seq = 0;  ///< per-(source,tag) sequence number, for tests
  Payload data;
};

/// Sentinel source used to poison a mailbox (wakes every receiver).
inline constexpr int kPoisonSource = -2;

class Mailbox {
 public:
  /// Enqueues a message and wakes any parked receiver. A message with
  /// source == kPoisonSource matches *any* receive and is never consumed,
  /// so all present and future receivers observe it.
  void deliver(Message msg);

  /// Blocks until a message with the given source and tag is available and
  /// returns it. FIFO per (source, tag). A receiver that finds nothing
  /// yields the CPU for a fixed budget of rounds (kYieldRounds in
  /// mailbox.cpp), re-checking only when a delivery lands, and parks on
  /// the condvar after that.
  Message receive(int source, int tag);

  /// Removes all queued messages (used when a Universe is reused).
  void clear();

  /// Non-blocking probe: true if a matching message is queued.
  bool probe(int source, int tag) const;

  /// Messages currently queued (any source/tag).
  std::size_t pending() const;

  /// Receivers currently parked on the condvar (yielding ones excluded).
  std::size_t parked() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Message> queue_;
  std::size_t parked_ = 0;  ///< guarded by mu_: deliver notifies only when > 0
  /// Deliveries so far; bumped under mu_, read without it by yielding
  /// receivers so they take the lock only when the queue has changed.
  std::atomic<std::uint64_t> delivered_{0};
};

}  // namespace jmh::net
