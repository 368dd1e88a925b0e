#include "sim/network.hpp"

#include <algorithm>
#include <array>

#include "common/assert.hpp"

namespace jmh::sim {

namespace {

/// When the last of one node's messages finishes: the list schedule
/// described in network.hpp. Message i is issued to the earliest-free of
/// the node's injection slots; its transmission starts at the later of
/// that time and its startup completion and holds the slot for elems * tw.
double node_finish(const NodeStage& msgs, double ts, double tw, int ports, bool overlap_startup) {
  // Startup issue times: message i's startup completes at (i+1)*ts. In the
  // paper's analytical model no transmission begins before every startup
  // has been issued. Even zero-size payloads end after their startups.
  const double all_ready = static_cast<double>(msgs.size()) * ts;
  // Links are distinct and below d, so a node never fills more slots than
  // the cube has dimensions.
  std::array<double, cube::Hypercube::kMaxDimension> slot_free{};
  const std::size_t slots = std::min(msgs.size(), static_cast<std::size_t>(ports));
  double finish = all_ready;
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    std::size_t s = 0;
    for (std::size_t j = 1; j < slots; ++j)
      if (slot_free[j] < slot_free[s]) s = j;
    const double ready = overlap_startup ? static_cast<double>(i + 1) * ts : all_ready;
    const double start = std::max(slot_free[s], ready);
    slot_free[s] = start + msgs[i].elems * tw;
    finish = std::max(finish, slot_free[s]);
  }
  return finish;
}

}  // namespace

Network::Network(int d, SimConfig config) : topo_(d), config_(config) {}

double Network::run_stage(const std::vector<NodeStage>& stage) const {
  JMH_REQUIRE(stage.size() == topo_.num_nodes(), "one NodeStage per node required");
  const double ts = config_.machine.ts;
  const double tw = config_.machine.tw;
  const int ports =
      config_.machine.all_port() ? topo_.dimension() : config_.machine.ports;
  JMH_REQUIRE(ports >= 1 || topo_.dimension() == 0, "port count must be >= 1");

  double stage_end = 0.0;
  for (const NodeStage& msgs : stage) {
    // Validate distinct links (packing contract) and sizes.
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      JMH_REQUIRE(topo_.valid_link(msgs[i].link), "message link out of range");
      JMH_REQUIRE(msgs[i].elems >= 0.0, "message size must be non-negative");
      for (std::size_t j = i + 1; j < msgs.size(); ++j)
        JMH_REQUIRE(msgs[i].link != msgs[j].link,
                    "messages on one link must be packed into one");
    }
    if (msgs.empty()) continue;
    stage_end =
        std::max(stage_end, node_finish(msgs, ts, tw, ports, config_.overlap_startup));
  }
  return stage_end;
}

double Network::accumulate_stage(const std::vector<NodeStage>& stage, SimResult& acc) const {
  const std::size_t d = static_cast<std::size_t>(topo_.dimension());
  if (acc.link_busy.size() != topo_.num_nodes() * d)
    acc.link_busy.assign(topo_.num_nodes() * d, 0.0);
  const double t = run_stage(stage);
  acc.makespan += t;
  for (cube::Node n = 0; n < topo_.num_nodes(); ++n) {
    for (const auto& msg : stage[n]) {
      acc.link_busy[n * d + static_cast<std::size_t>(msg.link)] +=
          msg.elems * config_.machine.tw;
    }
  }
  return t;
}

SimResult Network::run_program(const Program& program) const {
  SimResult result;
  result.stage_times.reserve(program.size());
  result.link_busy.assign(topo_.num_nodes() * static_cast<std::size_t>(topo_.dimension()), 0.0);
  for (const auto& stage : program) result.stage_times.push_back(accumulate_stage(stage, result));
  return result;
}

double SimResult::mean_link_utilization() const {
  if (makespan <= 0.0 || link_busy.empty()) return 0.0;
  double total = 0.0;
  for (double b : link_busy) total += b;
  return total / (makespan * static_cast<double>(link_busy.size()));
}

double SimResult::peak_link_utilization() const {
  if (makespan <= 0.0 || link_busy.empty()) return 0.0;
  double peak = 0.0;
  for (double b : link_busy) peak = std::max(peak, b);
  return peak / makespan;
}

}  // namespace jmh::sim
