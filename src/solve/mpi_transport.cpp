#include "solve/mpi_transport.hpp"

#include <mutex>
#include <utility>

#include "common/alloc_guard.hpp"
#include "common/assert.hpp"
#include "net/collectives.hpp"
#include "obs/trace.hpp"
#include "solve/fault_injection.hpp"

namespace jmh::solve {

namespace {

// HypercubeComm namespaces tags as 1<<24 + (tag << 6) + link, so a global
// step index becomes a message tag only while it fits below 2^24 (keeps
// the composed tag clear of int overflow and of the collective tag
// namespaces). Only message transports pay this bound; block-move
// transports ignore the step index entirely.
int message_tag(std::uint64_t step) {
  JMH_REQUIRE(step < (std::uint64_t{1} << 24), "global step exceeds message tag space");
  return static_cast<int>(step);
}

}  // namespace

MpiLiteTransport::MpiLiteTransport(net::Comm& comm, const la::Matrix& a, std::uint64_t q)
    : hc_(comm), layout_(a.cols(), hc_.dimension()), node_(a, layout_, hc_.node()), q_(q) {}

void MpiLiteTransport::apply_transition(const ord::Transition& t, std::uint64_t step) {
  const int tag = message_tag(step);
  const bool low_side = (hc_.node() & (cube::Node{1} << t.link)) == 0;
  if (!t.division) {
    node_.mobile().serialize_into(send_scratch_);
    const net::Payload got = hc_.exchange(t.link, send_scratch_, tag);
    node_.mobile().assign_from(got);
  } else if (low_side) {
    node_.mobile().serialize_into(send_scratch_);
    hc_.send(t.link, send_scratch_, tag);
    node_.mobile().assign_from(hc_.recv(t.link, tag));
  } else {
    node_.fixed().serialize_into(send_scratch_);
    hc_.send(t.link, send_scratch_, tag);
    node_.promote_mobile_to_fixed();  // kept mobile becomes the new fixed
    node_.mobile().assign_from(hc_.recv(t.link, tag));
  }
}

void MpiLiteTransport::allreduce_sum(std::span<double> values) {
  net::allreduce_sum_inplace(hc_.raw(), values);
}

SweepStats MpiLiteTransport::run_phase(const PhaseContext& ctx) {
  // The endpoint-side allocation contract (PERF.md): sweep 0 sizes the
  // scratch arenas, every later phase reuses them. Audited here so BOTH
  // paths -- apply_transition full-block exchanges and the pipelined packet
  // loop -- fail loudly in JMH_DASSERT builds if an allocation creeps back.
  const common::AllocGuard phase_guard;
  SweepStats stats = (q_ == 0 || ctx.phase.type != ord::PhaseInfo::Type::Exchange)
                         ? Transport::run_phase(ctx)
                         : run_phase_pipelined(ctx);
  if (ctx.sweep >= 1)
    JMH_ALLOC_ASSERT_ZERO(phase_guard,
                          "MpiLiteTransport phase allocated in steady state");
  return stats;
}

SweepStats MpiLiteTransport::run_phase_pipelined(const PhaseContext& ctx) {
  // Pipelined exchange phase: packetize the mobile block; pair and forward
  // packet by packet. Packets of one block are spread over consecutive path
  // nodes, overlapping distinct links.
  SweepStats stats;
  const std::size_t k = ctx.phase.num_steps;
  auto link_of = [&](std::size_t t) { return ctx.transitions[ctx.phase.first_step + t].link; };
  auto tag_of = [&](std::size_t t) {
    return message_tag(global_step(ctx.sweep, ctx.steps_per_sweep, ctx.phase.first_step + t));
  };

  // Step 0: pair own mobile's packets and launch them.
  node_.mobile().split_into(q_, split_scratch_);
  for (ColumnBlock& pkt : split_scratch_) {
    stats += node_.pair_fixed_with(pkt, ctx.threshold, ctx.activity);
    pkt.serialize_into(send_scratch_);
    hc_.send(link_of(0), send_scratch_, tag_of(0));
  }
  // Comm attribution covers the blocking receives -- the time this endpoint
  // actually waits on the wire; sends are buffered mailbox deposits and
  // pairings are compute. Null accumulator = spans are disarmed-cheap.
  std::atomic<std::uint64_t>* const comm_acc =
      ctx.timing != nullptr ? &ctx.timing->comm_ns : nullptr;
  // Steps 1..K-1: receive, pair, forward.
  for (std::size_t t = 1; t < k; ++t) {
    for (std::uint64_t pi = 0; pi < q_; ++pi) {
      {
        const obs::SpanScope recv_span("exchange.recv", obs::Category::kComm,
                                       static_cast<std::uint64_t>(tag_of(t - 1)), comm_acc);
        packet_scratch_.assign_from(hc_.recv(link_of(t - 1), tag_of(t - 1)));
      }
      stats += node_.pair_fixed_with(packet_scratch_, ctx.threshold, ctx.activity);
      packet_scratch_.serialize_into(send_scratch_);
      hc_.send(link_of(t), send_scratch_, tag_of(t));
    }
  }
  // Collect the block arriving through the phase's final transition.
  incoming_scratch_.resize(q_);
  for (std::uint64_t pi = 0; pi < q_; ++pi) {
    const obs::SpanScope recv_span("exchange.recv", obs::Category::kComm,
                                   static_cast<std::uint64_t>(tag_of(k - 1)), comm_acc);
    incoming_scratch_[pi].assign_from(hc_.recv(link_of(k - 1), tag_of(k - 1)));
  }
  ColumnBlock::merge_into(incoming_scratch_, merge_scratch_);
  std::swap(node_.mobile(), merge_scratch_);  // old mobile becomes next merge scratch
  return stats;
}

std::vector<ColumnBlock> MpiLiteTransport::collect_blocks() {
  net::Payload mine = node_.fixed().serialize();
  const net::Payload mobile = node_.mobile().serialize();
  mine.insert(mine.end(), mobile.begin(), mobile.end());
  return ColumnBlock::deserialize_stream(net::allgatherv(hc_.raw(), mine));
}

MpiRunOutcome run_mpi_protocol(const la::Matrix& a, const ord::JacobiOrdering& ordering,
                               const SolveOptions& opts, std::uint64_t q) {
  net::Universe universe(1 << ordering.dimension());
  MpiRunOutcome out;
  std::mutex out_mu;
  universe.run([&](net::Comm& comm) {
    MpiLiteTransport transport(comm, a, q);
    // Faults decorate the real transport per rank; with the plan disabled
    // the decorator is never built, keeping unfaulted runs bit-identical.
    EngineResult er;
    if (opts.faults.enabled()) {
      FaultInjectingTransport faulty(transport, opts.faults);
      er = run_sweep_protocol(faulty, ordering, opts);
    } else {
      er = run_sweep_protocol(transport, ordering, opts);
    }
    // The status came out of the allreduced vote, so every rank takes the
    // same branch here: all participate in the collect allgatherv, or none.
    std::vector<ColumnBlock> blocks;
    if (er.status == RunStatus::Ok) blocks = transport.collect_blocks();
    if (comm.rank() == 0) {
      std::lock_guard<std::mutex> lock(out_mu);
      out.engine = er;
      out.blocks = std::move(blocks);
    }
  });
  out.comm = universe.stats();
  if (out.engine.status != RunStatus::Ok) throw SolveInterrupted(out.engine.status);
  return out;
}

}  // namespace jmh::solve
