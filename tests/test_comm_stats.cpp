// Traffic accounting of the mpi_lite runtime.
#include <gtest/gtest.h>

#include "api/solver.hpp"
#include "net/collectives.hpp"
#include "net/universe.hpp"

#include "la/sym_gen.hpp"

namespace jmh::net {
namespace {

TEST(CommStats, CountsPointToPoint) {
  Universe u(2);
  u.run([](Comm& c) {
    if (c.rank() == 0) c.send(1, 0, Payload{1.0, 2.0, 3.0});
    else c.recv(0, 0);
  });
  const CommStats s = u.stats();
  EXPECT_EQ(s.messages, 1u);
  EXPECT_EQ(s.elements, 3u);
}

TEST(CommStats, CountsBarriers) {
  Universe u(4);
  u.run([](Comm& c) {
    for (int i = 0; i < 5; ++i) c.barrier();
  });
  EXPECT_EQ(u.stats().barriers, 5u);
  EXPECT_EQ(u.stats().messages, 0u);
}

TEST(CommStats, SendrecvCountsBothDirections) {
  Universe u(2);
  u.run([](Comm& c) {
    const double x = 1.0;
    c.sendrecv(1 - c.rank(), 0, std::span<const double>(&x, 1));
  });
  EXPECT_EQ(u.stats().messages, 2u);
  EXPECT_EQ(u.stats().elements, 2u);
}

TEST(CommStats, ResetBetweenRuns) {
  Universe u(2);
  u.run([](Comm& c) {
    if (c.rank() == 0) c.send_scalar(1, 0, 1.0);
    else c.recv(0, 0);
  });
  EXPECT_EQ(u.stats().messages, 1u);
  u.run([](Comm&) {});
  EXPECT_EQ(u.stats().messages, 0u);
}

TEST(CommStats, ButterflyAllreduceVolume) {
  // Recursive doubling over P=8: log2(8)=3 rounds, each rank sends one
  // scalar per round -> 24 messages of 1 element.
  Universe u(8);
  u.run([](Comm& c) { allreduce_sum(c, 1.0); });
  EXPECT_EQ(u.stats().messages, 24u);
  EXPECT_EQ(u.stats().elements, 24u);
}

TEST(CommStats, DistributedSolveTrafficAccounted) {
  // The dominant traffic of a distributed sweep is one block (of B and V)
  // per node per transition: a d=2 sweep has 7 transitions and 4 nodes, a
  // block payload is 3 + 2 + 2*2*16 = 69 doubles for m=16.
  Xoshiro256 rng(5);
  const la::Matrix a = la::random_uniform_symmetric(16, rng);
  const auto r = api::Solver::solve(api::SolverSpec::parse("backend=mpi,ordering=br,m=16,d=2"), a);
  ASSERT_TRUE(r.converged);
  // sweeps+1 sweep bodies were executed (the last detects convergence).
  const std::uint64_t sweep_bodies = static_cast<std::uint64_t>(r.sweeps) + 1;
  const std::uint64_t block_msgs = sweep_bodies * 7 * 4;
  // Each sweep also runs 2 allreduces (3 rounds x 4 ranks x 2 values = 24
  // msgs) and the run ends with one frobenius allreduce + allgather.
  EXPECT_GE(r.comm.messages, block_msgs);
  EXPECT_LE(r.comm.messages, block_msgs + sweep_bodies * 64 + 64);
  // Block payload volume dominates: at least 69 doubles per block message.
  EXPECT_GE(r.comm.elements, block_msgs * 69);
}

TEST(CommStats, InlineSolverHasNoTraffic) {
  Xoshiro256 rng(5);
  const la::Matrix a = la::random_uniform_symmetric(16, rng);
  const auto r = api::Solver::solve(api::SolverSpec::parse("ordering=br,m=16,d=2"), a);
  EXPECT_EQ(r.comm.messages, 0u);
  EXPECT_EQ(r.comm.elements, 0u);
}

}  // namespace
}  // namespace jmh::net
