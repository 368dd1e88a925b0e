#include "solve/fault_injection.hpp"

#include <bit>
#include <chrono>
#include <thread>

#include "common/rng.hpp"

namespace jmh::solve {

namespace {

// Distinct salts keep the per-kind decision streams independent even at
// the same event index.
constexpr std::uint64_t kCorruptSalt = 0x636f727275707421ull;
constexpr std::uint64_t kDelaySalt = 0x64656c6179656421ull;
constexpr std::uint64_t kVoteSalt = 0x766f74652d666c70ull;
constexpr std::uint64_t kBitSalt = 0x6269742d70696b21ull;

/// One splitmix64 finalization of (seed, attempt, kind, index): the entire
/// schedule is this stateless hash, evaluated identically on every endpoint.
std::uint64_t fault_hash(const FaultPlan& plan, std::uint64_t salt,
                         std::uint64_t index) noexcept {
  std::uint64_t state = plan.seed ^ salt ^ (plan.attempt * 0x9e3779b97f4a7c15ull);
  state += index * 0xbf58476d1ce4e5b9ull;
  return splitmix64_next(state);
}

double fault_uniform(const FaultPlan& plan, std::uint64_t salt,
                     std::uint64_t index) noexcept {
  // Same 53-bit mantissa construction as Xoshiro256::uniform01.
  return static_cast<double>(fault_hash(plan, salt, index) >> 11) * 0x1.0p-53;
}

}  // namespace

bool FaultSchedule::corrupt_at(std::uint64_t step) const noexcept {
  return plan_.corrupt_rate > 0.0 &&
         fault_uniform(plan_, kCorruptSalt, step) < plan_.corrupt_rate;
}

bool FaultSchedule::delay_at(std::uint64_t step) const noexcept {
  return plan_.delay_rate > 0.0 &&
         fault_uniform(plan_, kDelaySalt, step) < plan_.delay_rate;
}

bool FaultSchedule::vote_fails(std::uint64_t vote_index) const noexcept {
  return plan_.vote_fail_rate > 0.0 &&
         fault_uniform(plan_, kVoteSalt, vote_index) < plan_.vote_fail_rate;
}

std::uint64_t FaultSchedule::corrupt_bit(std::uint64_t step) const noexcept {
  return fault_hash(plan_, kBitSalt, step);
}

void FaultInjectingTransport::inject_step_faults(std::uint64_t step) {
  if (schedule_.delay_at(step))
    std::this_thread::sleep_for(std::chrono::microseconds(delay_us_));
  if (!schedule_.corrupt_at(step)) return;
  // Surface the corruption through the real detection path: serialize a
  // resident block, flip one scheduled bit "on the wire", and parse it
  // back -- assign_from's checksum verification raises TransportCorrupt
  // exactly as it would for genuine transit damage.
  JacobiNode* victim = nullptr;
  inner_.visit_nodes([&](JacobiNode& node) {
    if (victim == nullptr) victim = &node;
  });
  victim->mobile().serialize_into(corrupt_scratch_);
  const std::uint64_t bit = schedule_.corrupt_bit(step) %
                            (std::uint64_t{corrupt_scratch_.size()} * 64u);
  double& word = corrupt_scratch_[bit / 64];
  word = std::bit_cast<double>(std::bit_cast<std::uint64_t>(word) ^
                               (std::uint64_t{1} << (bit % 64)));
  corrupt_block_.assign_from(corrupt_scratch_);  // throws TransportCorrupt
  throw TransportCorrupt("injected corruption escaped checksum verification");
}

SweepStats FaultInjectingTransport::run_phase(const PhaseContext& ctx) {
  // Injection happens ahead of the delegated phase: the inner transport's
  // own pipelined/modeled run_phase overrides stay in effect untouched.
  const std::size_t end = ctx.phase.first_step + ctx.phase.num_steps;
  for (std::size_t s = ctx.phase.first_step; s < end; ++s)
    inject_step_faults(global_step(ctx.sweep, ctx.steps_per_sweep, s));
  return inner_.run_phase(ctx);
}

void FaultInjectingTransport::allreduce_sum(std::span<double> values) {
  if (schedule_.vote_fails(votes_++))
    throw TransportCorrupt("injected allreduce failure");
  inner_.allreduce_sum(values);
}

}  // namespace jmh::solve
