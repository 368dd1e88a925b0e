#include "sim/programs.hpp"

#include <algorithm>
#include <array>

#include "common/assert.hpp"

namespace jmh::sim {

namespace {

// All nodes execute the same link pattern in every stage of our programs
// (SPMD), so build one NodeStage and replicate it.
std::vector<NodeStage> replicate(const NodeStage& node_stage, std::uint64_t num_nodes) {
  return std::vector<NodeStage>(num_nodes, node_stage);
}

}  // namespace

Program build_sweep_program(const ord::JacobiOrdering& ordering, int sweep, double step_elems) {
  const std::uint64_t nodes = std::uint64_t{1} << ordering.dimension();
  Program program;
  const auto transitions = ordering.sweep_transitions(sweep);
  program.reserve(transitions.size());
  for (const auto& t : transitions)
    program.push_back(replicate({{t.link, step_elems}}, nodes));
  return program;
}

void for_each_pipelined_window(std::span<const ord::Link> links, std::uint64_t q,
                               double step_elems, int d, NodeStage& window,
                               common::FunctionRef<void(const NodeStage&)> emit) {
  JMH_REQUIRE(q >= 1, "pipelining degree must be >= 1");
  JMH_REQUIRE(!links.empty(), "pipelined phase needs at least one link");
  JMH_REQUIRE(d <= cube::Hypercube::kMaxDimension, "cube dimension out of range");
  for (ord::Link link : links)
    JMH_REQUIRE(link >= 0 && link < d, "phase link does not fit the cube");
  const std::uint64_t k = links.size();
  JMH_REQUIRE(q <= k || q - k + 1 <= (std::uint64_t{1} << 22),
              "deep program too large to materialize");
  const double packet = step_elems / static_cast<double>(q);
  const std::uint64_t depth = std::min(q, k);

  // Packs links[begin, begin + len) into per-link messages of packet *
  // multiplicity elements.
  const auto pack = [&](std::uint64_t begin, std::uint64_t len) -> const NodeStage& {
    std::array<std::uint64_t, cube::Hypercube::kMaxDimension> mult{};
    for (std::uint64_t i = begin; i < begin + len; ++i)
      ++mult[static_cast<std::size_t>(links[i])];
    window.clear();
    for (int link = 0; link < d; ++link) {
      const std::uint64_t count = mult[static_cast<std::size_t>(link)];
      if (count > 0) window.push_back({link, packet * static_cast<double>(count)});
    }
    return window;
  };

  // Prologue: growing prefixes.
  for (std::uint64_t j = 1; j < depth; ++j) emit(pack(0, j));
  // Kernel.
  if (q <= k) {
    for (std::uint64_t i = 0; i + q <= k; ++i) emit(pack(i, q));
  } else {
    pack(0, k);
    for (std::uint64_t i = 0; i < q - k + 1; ++i) emit(window);
  }
  // Epilogue: shrinking suffixes.
  for (std::uint64_t j = depth - 1; j >= 1; --j) emit(pack(k - j, j));
}

Program build_pipelined_links_program(const std::vector<ord::Link>& links, std::uint64_t q,
                                      double step_elems, int d) {
  Program program;
  NodeStage window;
  for_each_pipelined_window(links, q, step_elems, d, window, [&](const NodeStage& stage) {
    program.push_back(replicate(stage, std::uint64_t{1} << d));
  });
  return program;
}

Program build_pipelined_phase_program(const ord::LinkSequence& seq, std::uint64_t q,
                                      double step_elems, int d) {
  JMH_REQUIRE(seq.e() <= d, "phase does not fit the cube");
  return build_pipelined_links_program(seq.links(), q, step_elems, d);
}

Program build_pipelined_sweep_program(const ord::JacobiOrdering& ordering, int sweep,
                                      double step_elems,
                                      const std::vector<std::uint64_t>& q_per_phase) {
  const std::uint64_t nodes = std::uint64_t{1} << ordering.dimension();
  const auto transitions = ordering.sweep_transitions(sweep);
  Program program;

  std::size_t exchange_index = 0;
  for (const ord::PhaseInfo& phase : ordering.phases()) {
    if (phase.type == ord::PhaseInfo::Type::Exchange) {
      JMH_REQUIRE(exchange_index < q_per_phase.size(),
                  "need one pipelining degree per exchange phase");
      const std::uint64_t q = q_per_phase[exchange_index++];
      // Phase link sequence under this sweep's sigma rotation.
      std::vector<ord::Link> links;
      links.reserve(phase.num_steps);
      for (std::size_t t = 0; t < phase.num_steps; ++t)
        links.push_back(transitions[phase.first_step + t].link);

      Program phase_program =
          build_pipelined_links_program(links, q, step_elems, ordering.dimension());
      for (auto& stage : phase_program) program.push_back(std::move(stage));
    } else {
      // Division or last transition: one full-size message per node.
      const auto& t = transitions[phase.first_step];
      program.push_back(replicate({{t.link, step_elems}}, nodes));
    }
  }
  JMH_CHECK(exchange_index == q_per_phase.size(), "unused pipelining degrees supplied");
  return program;
}

SimResult simulate_sweep_pipelined(const ord::JacobiOrdering& ordering, int sweep,
                                   double step_elems,
                                   const std::vector<std::uint64_t>& q_per_phase,
                                   const SimConfig& config) {
  const Network net(ordering.dimension(), config);
  return net.run_program(
      build_pipelined_sweep_program(ordering, sweep, step_elems, q_per_phase));
}

double simulate_sweep(const ord::JacobiOrdering& ordering, int sweep, double step_elems,
                      const SimConfig& config) {
  const Network net(ordering.dimension(), config);
  return net.run_program(build_sweep_program(ordering, sweep, step_elems)).makespan;
}

double simulate_pipelined_phase(const ord::LinkSequence& seq, std::uint64_t q,
                                double step_elems, int d, const SimConfig& config) {
  const Network net(d, config);
  return net.run_program(build_pipelined_phase_program(seq, q, step_elems, d)).makespan;
}

}  // namespace jmh::sim
