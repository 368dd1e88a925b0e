#include "net/universe.hpp"

#include <thread>

#include "common/alloc_guard.hpp"
#include "common/assert.hpp"
#include "exec/thread_pool.hpp"

namespace jmh::net {

Universe::Universe(int num_ranks) : num_ranks_(num_ranks) {
  JMH_REQUIRE(num_ranks >= 1 && num_ranks <= 4096, "rank count out of range");
  mailboxes_.reserve(static_cast<std::size_t>(num_ranks));
  for (int i = 0; i < num_ranks; ++i) mailboxes_.push_back(std::make_unique<Mailbox>());
}

Mailbox& Universe::mailbox(int rank) {
  JMH_REQUIRE(rank >= 0 && rank < num_ranks_, "rank out of range");
  return *mailboxes_[static_cast<std::size_t>(rank)];
}

void Universe::poison(std::exception_ptr error) {
  {
    std::lock_guard<std::mutex> lock(error_mu_);
    if (!first_error_) first_error_ = error;
  }
  {
    // Stored under barrier_mu_: a waiting rank holds it from checking the
    // barrier_wait predicate until the wait releases it, so the store lands
    // before that check or after the rank sleeps, where the notify reaches it.
    std::lock_guard<std::mutex> lock(barrier_mu_);
    poisoned_.store(true, std::memory_order_release);
  }
  // Wake every blocked receiver with a poison sentinel and release any
  // barrier waiters.
  for (auto& mb : mailboxes_) mb->deliver({kPoisonSource, 0, 0, {}});
  barrier_cv_.notify_all();
}

void Universe::check_poisoned() const {
  if (poisoned_.load(std::memory_order_acquire)) throw UniversePoisoned{};
}

void Universe::barrier_wait() {
  std::unique_lock<std::mutex> lock(barrier_mu_);
  const std::uint64_t gen = barrier_generation_;
  if (++barrier_count_ == num_ranks_) {
    barrier_count_ = 0;
    ++barrier_generation_;
    barrier_episodes_.fetch_add(1, std::memory_order_relaxed);
    barrier_cv_.notify_all();
    return;
  }
  barrier_cv_.wait(lock, [&] {
    return barrier_generation_ != gen || poisoned_.load(std::memory_order_acquire);
  });
  if (barrier_generation_ == gen) throw UniversePoisoned{};
}

CommStats Universe::stats() const {
  return {sent_messages_.load(), sent_elements_.load(), barrier_episodes_.load()};
}

void Universe::run(const std::function<void(Comm&)>& fn) {
  // Reset poison state for reuse across run() calls.
  poisoned_.store(false);
  {
    std::lock_guard<std::mutex> lock(error_mu_);
    first_error_ = nullptr;
  }
  for (auto& mb : mailboxes_) mb->clear();
  sent_messages_.store(0);
  sent_elements_.store(0);
  barrier_episodes_.store(0);

  // Rank bodies block on each other (mailbox receives, barriers), so they
  // need num_ranks_ live threads: a gang on the process-wide pool when it
  // is enabled, one dedicated thread per rank otherwise (JMH_EXEC_POOL=off
  // keeps the legacy baseline measurable from the same binary).
  const auto rank_body = [this, &fn](int r) {
    Comm comm(*this, r);
    try {
      fn(comm);
    } catch (const UniversePoisoned&) {
      // Secondary failure; the original error is already recorded.
    } catch (...) {
      poison(std::current_exception());
    }
  };
  if (exec::ThreadPool::enabled()) {
    exec::ThreadPool::global().run_gang(
        static_cast<std::size_t>(num_ranks_),
        [&rank_body](std::size_t r) { rank_body(static_cast<int>(r)); });
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(num_ranks_));
    for (int r = 0; r < num_ranks_; ++r) threads.emplace_back([&rank_body, r] { rank_body(r); });
    for (auto& t : threads) t.join();
  }

  std::lock_guard<std::mutex> lock(error_mu_);
  if (first_error_) std::rethrow_exception(first_error_);
}

void Comm::send(int dst, int tag, Payload data) {
  universe_->check_poisoned();
  JMH_REQUIRE(tag >= 0, "negative tags are reserved");
  universe_->sent_messages_.fetch_add(1, std::memory_order_relaxed);
  universe_->sent_elements_.fetch_add(data.size(), std::memory_order_relaxed);
  // The mailbox queue node is wire-side state, not endpoint work: exempt it
  // from the sender's allocation audit (common/alloc_guard.hpp).
  const common::AllocExempt wire;
  universe_->mailbox(dst).deliver({rank_, tag, send_seq_++, std::move(data)});
}

void Comm::send(int dst, int tag, std::span<const double> data) {
  // The payload copy IS the wire: the modeled network owns the bytes in
  // flight. The endpoint-side allocation contract (PERF.md) excludes it.
  const common::AllocExempt wire;
  send(dst, tag, Payload(data.begin(), data.end()));
}

void Comm::send_scalar(int dst, int tag, double value) { send(dst, tag, Payload{value}); }

Payload Comm::recv(int src, int tag) {
  universe_->check_poisoned();
  Message m = universe_->mailbox(rank_).receive(src, tag);
  if (m.source == kPoisonSource) throw UniversePoisoned{};
  return std::move(m.data);
}

double Comm::recv_scalar(int src, int tag) {
  const Payload p = recv(src, tag);
  JMH_REQUIRE(p.size() == 1, "expected a scalar message");
  return p[0];
}

Payload Comm::sendrecv(int peer, int tag, std::span<const double> data) {
  send(peer, tag, data);
  return recv(peer, tag);
}

void Comm::barrier() {
  universe_->check_poisoned();
  universe_->barrier_wait();
}

}  // namespace jmh::net
