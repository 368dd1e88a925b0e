// AllocGuard: the allocation-discipline checker of the hot paths.
//
// PERF.md promises that the steady-state sweep loop -- the sweep engine's
// per-sweep body, MpiLiteTransport's exchange paths, the exec pool's
// dispatch, JobQueue::pop_group -- performs no heap allocations once the
// scratch arenas have warmed up. This header turns that sentence into a
// failing test: in JMH_DASSERT builds (!NDEBUG) the library replaces the
// global operator new with a counting shim (common/alloc_guard.cpp), and an
// AllocGuard scope asserts that a region allocated nothing on the current
// thread. Under NDEBUG every type here is an empty shell and the operator
// new replacement is not compiled at all, so release builds -- including
// every benchmarked binary -- carry zero instrumentation.
//
// Counting is per-thread: an SPMD endpoint, a pool worker, and a service
// dispatcher each audit only their own steady-state loop, so concurrent
// warm-up on another thread can never produce a false positive.
//
// AllocExempt marks the allocations that are *outside* the contract: the
// mpi_lite wire copies a payload into the destination mailbox (that copy is
// the modeled network, not the endpoint). Scopes nest; exempt allocations
// simply do not count.
#pragma once

#include <cstdint>

#include "common/assert.hpp"

namespace jmh::common {

#ifndef NDEBUG

namespace alloc_detail {
/// Non-exempt operator-new calls on this thread since it started. Defined
/// in alloc_guard.cpp next to the operator new replacement, so any user of
/// the guard links the counting shim in with it.
std::uint64_t thread_allocations() noexcept;
void push_exempt() noexcept;
void pop_exempt() noexcept;
}  // namespace alloc_detail

/// Counts heap allocations made by the current thread during its lifetime.
class AllocGuard {
 public:
  AllocGuard() noexcept : start_(alloc_detail::thread_allocations()) {}
  /// Non-exempt allocations on this thread since construction (or rebase).
  std::uint64_t allocations() const noexcept {
    return alloc_detail::thread_allocations() - start_;
  }
  /// Restarts the count (e.g. after a sanctioned warm-up iteration).
  void rebase() noexcept { start_ = alloc_detail::thread_allocations(); }

 private:
  std::uint64_t start_;
};

/// RAII scope whose allocations are excluded from every AllocGuard on this
/// thread -- the wire / modeled-network carve-out.
class AllocExempt {
 public:
  AllocExempt() noexcept { alloc_detail::push_exempt(); }
  ~AllocExempt() { alloc_detail::pop_exempt(); }
  AllocExempt(const AllocExempt&) = delete;
  AllocExempt& operator=(const AllocExempt&) = delete;
};

inline constexpr bool kAllocGuardActive = true;

#else  // NDEBUG: every shape survives, every cost disappears.

// User-provided (empty) constructors keep -Wunused-variable quiet at the
// declaration sites without [[maybe_unused]] noise on every guard.
class AllocGuard {
 public:
  AllocGuard() noexcept {}
  std::uint64_t allocations() const noexcept { return 0; }
  void rebase() noexcept {}
};

class AllocExempt {
 public:
  AllocExempt() noexcept {}
  AllocExempt(const AllocExempt&) = delete;
  AllocExempt& operator=(const AllocExempt&) = delete;
};

inline constexpr bool kAllocGuardActive = false;

#endif

}  // namespace jmh::common

/// Asserts a guarded region allocated nothing on this thread. Compiled out
/// under NDEBUG (same discipline as JMH_DASSERT: hot-path checks are free
/// in release). @p guard is evaluated only in JMH_DASSERT builds.
#define JMH_ALLOC_ASSERT_ZERO(guard, msg) \
  JMH_DASSERT((guard).allocations() == 0, (msg))
