#include "net/mailbox.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/rng.hpp"

namespace jmh::net {
namespace {

// Spins until @p n receivers are parked on @p mb's condvar, i.e. have used
// up their yield budget.
void await_parked(const Mailbox& mb, std::size_t n) {
  while (mb.parked() != n) std::this_thread::yield();
}

TEST(Mailbox, DeliverThenReceive) {
  Mailbox mb;
  mb.deliver({1, 7, 0, {1.0, 2.0}});
  const Message m = mb.receive(1, 7);
  EXPECT_EQ(m.source, 1);
  EXPECT_EQ(m.tag, 7);
  EXPECT_EQ(m.data, (Payload{1.0, 2.0}));
  EXPECT_EQ(mb.pending(), 0u);
}

TEST(Mailbox, MatchingBySourceAndTag) {
  Mailbox mb;
  mb.deliver({1, 5, 0, {1.0}});
  mb.deliver({2, 5, 0, {2.0}});
  mb.deliver({1, 6, 0, {3.0}});
  EXPECT_EQ(mb.receive(1, 6).data[0], 3.0);
  EXPECT_EQ(mb.receive(2, 5).data[0], 2.0);
  EXPECT_EQ(mb.receive(1, 5).data[0], 1.0);
}

TEST(Mailbox, FifoPerSourceTag) {
  Mailbox mb;
  mb.deliver({0, 1, 0, {10.0}});
  mb.deliver({0, 1, 1, {20.0}});
  EXPECT_EQ(mb.receive(0, 1).data[0], 10.0);
  EXPECT_EQ(mb.receive(0, 1).data[0], 20.0);
}

TEST(Mailbox, Probe) {
  Mailbox mb;
  EXPECT_FALSE(mb.probe(0, 0));
  mb.deliver({0, 0, 0, {}});
  EXPECT_TRUE(mb.probe(0, 0));
  EXPECT_FALSE(mb.probe(0, 1));
  EXPECT_FALSE(mb.probe(1, 0));
}

TEST(Mailbox, BlockingReceiveWakesOnDelivery) {
  // A message from source 4 lands before the awaited one from source 3: the
  // receiver must pass over it, keep waiting and take 3's message -- once
  // right after it starts (so almost always while it yields), once after it
  // has parked.
  for (const bool parked : {false, true}) {
    SCOPED_TRACE(parked ? "parked" : "yielding");
    Mailbox mb;
    std::atomic<bool> started{false};
    std::atomic<bool> returned{false};
    Message m;
    std::thread receiver([&] {
      started = true;
      m = mb.receive(3, 9);
      returned = true;
    });
    while (!started) std::this_thread::yield();
    if (parked) await_parked(mb, 1);
    mb.deliver({4, 9, 0, {7.0}});
    if (parked) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      EXPECT_FALSE(returned.load());
      EXPECT_EQ(mb.parked(), 1u);  // woken by the non-match, parked again
    }
    mb.deliver({3, 9, 0, {42.0}});
    receiver.join();
    EXPECT_EQ(m.source, 3);
    EXPECT_EQ(m.data, (Payload{42.0}));
    EXPECT_EQ(mb.pending(), 1u);
    EXPECT_TRUE(mb.probe(4, 9));
  }
}

TEST(Mailbox, PoisonMatchesAnyReceive) {
  Mailbox mb;
  // Two receivers have parked and two have only just started (so are almost
  // always yielding) when the poison lands: every one must return it.
  std::atomic<int> started{0};
  std::atomic<int> poisoned{0};
  const auto receive_one = [&](int source) {
    ++started;
    if (mb.receive(source, 123).source == kPoisonSource) ++poisoned;
  };
  std::vector<std::thread> receivers;
  for (const int source : {5, 6}) receivers.emplace_back(receive_one, source);
  await_parked(mb, 2);
  for (const int source : {7, 8}) receivers.emplace_back(receive_one, source);
  while (started < 4) std::this_thread::yield();
  mb.deliver({kPoisonSource, 0, 0, {}});
  for (auto& t : receivers) t.join();
  EXPECT_EQ(poisoned.load(), 4);
  // Poison stays queued for further receivers.
  EXPECT_EQ(mb.receive(6, 7).source, kPoisonSource);
  EXPECT_EQ(mb.pending(), 1u);
}

TEST(Mailbox, ClearEmpties) {
  Mailbox mb;
  mb.deliver({0, 0, 0, {}});
  mb.deliver({1, 0, 0, {}});
  mb.clear();
  EXPECT_EQ(mb.pending(), 0u);
}

TEST(Mailbox, ConcurrentDeliveries) {
  Mailbox mb;
  constexpr int kPerThread = 200;
  std::thread a([&] {
    for (int i = 0; i < kPerThread; ++i) mb.deliver({0, 1, 0, {static_cast<double>(i)}});
  });
  std::thread b([&] {
    for (int i = 0; i < kPerThread; ++i) mb.deliver({1, 1, 0, {static_cast<double>(i)}});
  });
  a.join();
  b.join();
  // FIFO per source must be preserved under concurrency.
  for (int i = 0; i < kPerThread; ++i) {
    EXPECT_EQ(mb.receive(0, 1).data[0], static_cast<double>(i));
    EXPECT_EQ(mb.receive(1, 1).data[0], static_cast<double>(i));
  }
}

TEST(Mailbox, PingPongSurvivesEveryHandoffTiming) {
  // The lost-wake-up check: 100k round trips, each message sent after a
  // delay drawn from {none, ~1 us, until the receiver has parked}, so
  // deliveries meet the receiver in its scan, its yield loop and its
  // condvar wait in every order. A lost wake-up hangs here.
  constexpr int kRoundTrips = 100'000;
  Mailbox inbox_a;
  Mailbox inbox_b;
  const auto delay_send = [](Xoshiro256& rng, const Mailbox& peer_inbox) {
    const std::uint64_t draw = rng.below(64);
    if (draw == 0) {
      await_parked(peer_inbox, 1);
    } else if (draw <= 16) {
      const auto until = std::chrono::steady_clock::now() + std::chrono::microseconds(1);
      while (std::chrono::steady_clock::now() < until) {
      }
    }
  };
  std::atomic<int> mismatches{0};
  std::thread b([&] {
    Xoshiro256 rng(2);
    for (int i = 0; i < kRoundTrips; ++i) {
      Message m = inbox_b.receive(0, 1);
      if (m.data != Payload{static_cast<double>(i)}) ++mismatches;
      delay_send(rng, inbox_a);
      inbox_a.deliver({1, 1, m.seq, std::move(m.data)});
    }
  });
  Xoshiro256 rng(1);
  for (int i = 0; i < kRoundTrips; ++i) {
    delay_send(rng, inbox_b);
    inbox_b.deliver({0, 1, static_cast<std::uint64_t>(i), {static_cast<double>(i)}});
    if (inbox_a.receive(1, 1).seq != static_cast<std::uint64_t>(i)) ++mismatches;
  }
  b.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(inbox_a.pending() + inbox_b.pending(), 0u);
}

}  // namespace
}  // namespace jmh::net
