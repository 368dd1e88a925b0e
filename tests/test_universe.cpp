#include "net/universe.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

namespace jmh::net {
namespace {

TEST(Universe, RunsEveryRankOnce) {
  Universe u(8);
  std::atomic<int> count{0};
  std::atomic<int> rank_mask{0};
  u.run([&](Comm& c) {
    ++count;
    rank_mask |= 1 << c.rank();
    EXPECT_EQ(c.size(), 8);
  });
  EXPECT_EQ(count.load(), 8);
  EXPECT_EQ(rank_mask.load(), 0xff);
}

TEST(Universe, PointToPoint) {
  Universe u(2);
  u.run([](Comm& c) {
    if (c.rank() == 0) {
      c.send(1, 3, Payload{1.5, 2.5});
      const Payload back = c.recv(1, 4);
      EXPECT_EQ(back, (Payload{4.0}));
    } else {
      const Payload got = c.recv(0, 3);
      EXPECT_EQ(got, (Payload{1.5, 2.5}));
      c.send_scalar(0, 4, 4.0);
    }
  });
}

TEST(Universe, SendrecvSwapsPayloads) {
  Universe u(2);
  u.run([](Comm& c) {
    const double mine = static_cast<double>(c.rank());
    const Payload got = c.sendrecv(1 - c.rank(), 0, std::span<const double>(&mine, 1));
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], static_cast<double>(1 - c.rank()));
  });
}

TEST(Universe, BarrierSynchronizes) {
  Universe u(4);
  std::atomic<int> before{0};
  std::atomic<bool> violated{false};
  u.run([&](Comm& c) {
    ++before;
    c.barrier();
    if (before.load() != 4) violated = true;
  });
  EXPECT_FALSE(violated.load());
}

TEST(Universe, RepeatedBarriers) {
  Universe u(3);
  u.run([](Comm& c) {
    for (int i = 0; i < 50; ++i) c.barrier();
  });
}

TEST(Universe, ExceptionPropagatesWithoutDeadlock) {
  Universe u(4);
  EXPECT_THROW(u.run([](Comm& c) {
    if (c.rank() == 2) throw std::runtime_error("rank 2 failed");
    // Other ranks block on a message that will never come; the poison
    // mechanism must wake them.
    c.recv(3, 999);
  }),
               std::runtime_error);
}

TEST(Universe, ExceptionInBarrierPropagates) {
  // Repeated: a poison that lands between a waiter's predicate check and
  // its sleep must still release it, or run() never returns.
  Universe u(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_THROW(u.run([](Comm& c) {
      if (c.rank() == 0) throw std::logic_error("boom");
      c.barrier();
    }),
                 std::logic_error);
  }
}

TEST(Universe, ReusableAfterFailure) {
  Universe u(2);
  EXPECT_THROW(u.run([](Comm&) { throw std::runtime_error("first"); }), std::runtime_error);
  std::atomic<int> ok{0};
  u.run([&](Comm& c) {
    c.barrier();
    ++ok;
  });
  EXPECT_EQ(ok.load(), 2);
}

TEST(Universe, ScalarHelpers) {
  Universe u(2);
  u.run([](Comm& c) {
    if (c.rank() == 0) {
      c.send_scalar(1, 0, 3.25);
    } else {
      EXPECT_EQ(c.recv_scalar(0, 0), 3.25);
    }
  });
}

TEST(Universe, ManyMessagesStressOrdering) {
  Universe u(2);
  u.run([](Comm& c) {
    constexpr int kN = 500;
    if (c.rank() == 0) {
      for (int i = 0; i < kN; ++i) c.send_scalar(1, 7, static_cast<double>(i));
    } else {
      for (int i = 0; i < kN; ++i) EXPECT_EQ(c.recv_scalar(0, 7), static_cast<double>(i));
    }
  });
}

TEST(Universe, RejectsBadRankCount) {
  EXPECT_THROW(Universe(0), std::invalid_argument);
}

}  // namespace
}  // namespace jmh::net
