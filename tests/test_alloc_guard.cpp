// The allocation-discipline checker itself (common/alloc_guard.hpp), and
// the sweep engine's steady-state audit built on it.
//
// Three layers of regression cover:
//   1. the counter mechanics -- a planted allocation is seen, AllocExempt
//      scopes hide wire allocations, rebase() restarts the window;
//   2. the engine audit trips -- a transport that plants one allocation per
//      phase makes run_sweep_protocol throw on the first steady-state sweep;
//   3. clean transports pass -- inline, and the sim backend's modeled clock
//      both unpipelined and pipelined, run to convergence under the audit.
//
// The counting shim exists only in JMH_DASSERT builds; under NDEBUG every
// test here skips (the audit it covers is compiled out too).
#include "common/alloc_guard.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "la/sym_gen.hpp"
#include "ord/ordering.hpp"
#include "solve/inline_transport.hpp"
#include "solve/sim_transport.hpp"
#include "solve/sweep_engine.hpp"

namespace jmh::solve {
namespace {

#define SKIP_UNLESS_COUNTING() \
  if (!common::kAllocGuardActive) GTEST_SKIP() << "AllocGuard counts only in JMH_DASSERT builds"

TEST(AllocGuard, SeesPlantedAllocation) {
  SKIP_UNLESS_COUNTING();
  const common::AllocGuard guard;
  EXPECT_EQ(guard.allocations(), 0u);
  auto planted = std::make_unique<int>(7);
  EXPECT_GE(guard.allocations(), 1u);
}

TEST(AllocGuard, ExemptScopeHidesWireAllocations) {
  SKIP_UNLESS_COUNTING();
  const common::AllocGuard guard;
  {
    const common::AllocExempt wire;
    auto hidden = std::make_unique<int>(1);
  }
  EXPECT_EQ(guard.allocations(), 0u) << "exempt allocation was counted";
  {
    const common::AllocExempt outer;
    const common::AllocExempt inner;  // scopes nest
    auto hidden = std::make_unique<int>(2);
  }
  auto counted = std::make_unique<int>(3);  // scope ended: counting resumes
  EXPECT_GE(guard.allocations(), 1u);
}

TEST(AllocGuard, RebaseRestartsTheWindow) {
  SKIP_UNLESS_COUNTING();
  common::AllocGuard guard;
  auto warmup = std::make_unique<int>(4);
  EXPECT_GE(guard.allocations(), 1u);
  guard.rebase();
  EXPECT_EQ(guard.allocations(), 0u);
}

// InlineTransport with one deliberate heap allocation per phase -- the
// exact defect class the engine audit exists to catch (a scratch buffer
// that silently regressed to per-sweep construction).
class LeakyTransport : public InlineTransport {
 public:
  using InlineTransport::InlineTransport;

  SweepStats run_phase(const PhaseContext& ctx) override {
    leak_ = std::vector<double>(64, 1.0);
    return InlineTransport::run_phase(ctx);
  }

 private:
  std::vector<double> leak_;
};

la::Matrix test_matrix() {
  Xoshiro256 rng(29);
  return la::random_uniform_symmetric(16, rng);
}

TEST(AllocGuardEngine, AuditTripsOnPlantedPhaseAllocation) {
  SKIP_UNLESS_COUNTING();
  const la::Matrix a = test_matrix();
  LeakyTransport transport(a, 1);
  const ord::JacobiOrdering ordering(ord::OrderingKind::BR, 1);
  EXPECT_THROW(run_sweep_protocol(transport, ordering, SolveOptions{}), std::invalid_argument)
      << "a per-phase allocation in sweep >= 1 must fail the steady-state audit";
}

TEST(AllocGuardEngine, CleanTransportPassesTheAudit) {
  SKIP_UNLESS_COUNTING();
  const la::Matrix a = test_matrix();
  InlineTransport transport(a, 1);
  const ord::JacobiOrdering ordering(ord::OrderingKind::BR, 1);
  const EngineResult res = run_sweep_protocol(transport, ordering, SolveOptions{});
  EXPECT_TRUE(res.converged);

  // The sim backend charges every transition, pipelined window and vote on
  // its modeled clock; that bookkeeping is under the same contract.
  const ord::JacobiOrdering cube3(ord::OrderingKind::BR, 3);
  for (const std::uint64_t q : {std::uint64_t{0}, std::uint64_t{2}}) {
    SimTransport sim(a, 3, sim::SimConfig{}, q);
    const EngineResult sim_res = run_sweep_protocol(sim, cube3, SolveOptions{});
    EXPECT_TRUE(sim_res.converged) << "q=" << q;
    EXPECT_GT(sim.modeled_time(), 0.0) << "q=" << q;
  }
}

}  // namespace
}  // namespace jmh::solve
