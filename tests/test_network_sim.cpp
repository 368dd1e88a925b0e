#include "sim/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <numeric>

#include "common/rng.hpp"
#include "sim/event_queue.hpp"

namespace jmh::sim {
namespace {

SimConfig paper_config() {
  SimConfig c;
  c.machine.ts = 1000.0;
  c.machine.tw = 100.0;
  return c;
}

std::vector<NodeStage> uniform_stage(int d, NodeStage stage) {
  return std::vector<NodeStage>(std::size_t{1} << d, std::move(stage));
}

TEST(NetworkSim, SingleMessageStage) {
  const Network net(3, paper_config());
  const double t = net.run_stage(uniform_stage(3, {{0, 50.0}}));
  EXPECT_DOUBLE_EQ(t, 1000.0 + 50.0 * 100.0);
}

TEST(NetworkSim, MultiLinkAllPortParallelTransmission) {
  // Three messages on distinct links: 3 startups serialized, transmissions
  // parallel -> 3*ts + max(elems)*tw.
  const Network net(3, paper_config());
  const double t = net.run_stage(uniform_stage(3, {{0, 10.0}, {1, 30.0}, {2, 20.0}}));
  EXPECT_DOUBLE_EQ(t, 3 * 1000.0 + 30.0 * 100.0);
}

TEST(NetworkSim, MatchesCommOpCostClosedForm) {
  const auto cfg = paper_config();
  const Network net(4, cfg);
  // Window with multiplicities 3,2,1,1 packets of 8 elements.
  const NodeStage stage = {{0, 24.0}, {1, 16.0}, {2, 8.0}, {3, 8.0}};
  const double simulated = net.run_stage(uniform_stage(4, stage));
  const double model = pipe::comm_op_cost(cfg.machine, 4, 3, 7, 8.0);
  EXPECT_DOUBLE_EQ(simulated, model);
}

TEST(NetworkSim, OnePortSerializesTransmissions) {
  SimConfig cfg = paper_config();
  cfg.machine.ports = 1;
  const Network net(2, cfg);
  const double t = net.run_stage(uniform_stage(2, {{0, 10.0}, {1, 20.0}}));
  // 2 startups + both transmissions back to back.
  EXPECT_DOUBLE_EQ(t, 2 * 1000.0 + (10.0 + 20.0) * 100.0);
}

TEST(NetworkSim, TwoPortLimitsConcurrency) {
  SimConfig cfg = paper_config();
  cfg.machine.ports = 2;
  const Network net(3, cfg);
  // Three equal messages, 2 ports: two in parallel, then the third.
  const double t = net.run_stage(uniform_stage(3, {{0, 10.0}, {1, 10.0}, {2, 10.0}}));
  EXPECT_DOUBLE_EQ(t, 3 * 1000.0 + 2 * 10.0 * 100.0);
}

TEST(NetworkSim, OverlapStartupIsNeverSlower) {
  SimConfig strict = paper_config();
  SimConfig overlap = paper_config();
  overlap.overlap_startup = true;
  const NodeStage stage = {{0, 40.0}, {1, 10.0}, {2, 25.0}};
  const double t_strict = Network(3, strict).run_stage(uniform_stage(3, stage));
  const double t_overlap = Network(3, overlap).run_stage(uniform_stage(3, stage));
  EXPECT_LE(t_overlap, t_strict);
  // With overlap, the first transmission starts at ts: 1*ts + 40*tw bounds.
  EXPECT_GE(t_overlap, 1000.0 + 40.0 * 100.0);
}

TEST(NetworkSim, EmptyStageIsFree) {
  const Network net(2, paper_config());
  EXPECT_DOUBLE_EQ(net.run_stage(uniform_stage(2, {})), 0.0);
}

TEST(NetworkSim, ZeroElementMessageStillPaysStartup) {
  const Network net(1, paper_config());
  EXPECT_DOUBLE_EQ(net.run_stage(uniform_stage(1, {{0, 0.0}})), 1000.0);
}

TEST(NetworkSim, DuplicateLinkRejected) {
  const Network net(2, paper_config());
  EXPECT_THROW(net.run_stage(uniform_stage(2, {{0, 1.0}, {0, 2.0}})), std::invalid_argument);
}

TEST(NetworkSim, NegativeSizeRejected) {
  const Network net(2, paper_config());
  EXPECT_THROW(net.run_stage(uniform_stage(2, {{0, 1.0}, {1, -2.0}})), std::invalid_argument);
}

TEST(NetworkSim, WrongNodeCountRejected) {
  const Network net(2, paper_config());
  EXPECT_THROW(net.run_stage({{}, {}}), std::invalid_argument);  // 2 nodes given, 4 needed
}

TEST(NetworkSim, ProgramAccumulatesStages) {
  const Network net(2, paper_config());
  Program program;
  program.push_back(uniform_stage(2, {{0, 10.0}}));
  program.push_back(uniform_stage(2, {{1, 20.0}}));
  const SimResult r = net.run_program(program);
  ASSERT_EQ(r.stage_times.size(), 2u);
  EXPECT_DOUBLE_EQ(r.stage_times[0], 1000.0 + 1000.0);
  EXPECT_DOUBLE_EQ(r.stage_times[1], 1000.0 + 2000.0);
  EXPECT_DOUBLE_EQ(r.makespan, r.stage_times[0] + r.stage_times[1]);
}

// The oracle: the same stage run as a discrete-event simulation on one
// sim::EventQueue, each node's injections, completions and startup wake-ups
// as events. Network::run_stage computed stages this way before it became
// a direct list schedule; the direct schedule must reproduce it bit for
// bit. Inputs are trusted (valid, distinct links).
double event_driven_stage(const std::vector<NodeStage>& stage, int d, const SimConfig& config) {
  const double ts = config.machine.ts;
  const double tw = config.machine.tw;
  const int ports = config.machine.all_port() ? d : config.machine.ports;

  EventQueue q;
  double stage_end = 0.0;
  for (const NodeStage& msgs : stage) {
    if (msgs.empty()) continue;

    // Shared mutable state for this node's events.
    auto in_flight = std::make_shared<int>(0);
    auto next_to_inject = std::make_shared<std::size_t>(0);
    auto ready_time = std::make_shared<std::vector<double>>();  // startup completion per msg

    // Startup issue times: message i's startup completes at (i+1)*ts. In the
    // paper's analytical model no transmission begins before every startup
    // has been issued.
    ready_time->resize(msgs.size());
    const double all_ready = static_cast<double>(msgs.size()) * ts;
    for (std::size_t i = 0; i < msgs.size(); ++i)
      (*ready_time)[i] = config.overlap_startup ? static_cast<double>(i + 1) * ts : all_ready;

    // Injection loop: start transmissions respecting the port limit.
    // Ownership flows through the event chain: every scheduled event holds
    // a shared_ptr to the closure, and the closure itself holds only a weak
    // self-reference (a direct self-capture would be a shared_ptr cycle).
    auto try_inject = std::make_shared<std::function<void()>>();
    const std::weak_ptr<std::function<void()>> weak_self = try_inject;
    *try_inject = [&q, &stage_end, &msgs, in_flight, next_to_inject, ready_time, ports, tw,
                   weak_self]() {
      const std::shared_ptr<std::function<void()>> self = weak_self.lock();
      while (*next_to_inject < msgs.size() && *in_flight < ports) {
        const std::size_t i = (*next_to_inject)++;
        const double start = std::max(q.now(), (*ready_time)[i]);
        const double finish = start + msgs[i].elems * tw;
        ++*in_flight;
        q.schedule(finish, [&stage_end, in_flight, self, finish]() {
          --*in_flight;
          stage_end = std::max(stage_end, finish);
          (*self)();
        });
      }
      // If ports are free but the next message's startup is pending, wake up
      // when it becomes ready.
      if (*next_to_inject < msgs.size() && *in_flight < ports) {
        const double when = (*ready_time)[*next_to_inject];
        if (when > q.now()) q.schedule(when, [self]() { (*self)(); });
      }
    };
    q.schedule(0.0, [try_inject]() { (*try_inject)(); });
    // Even a stage with sends but zero-size payloads ends after startups.
    stage_end = std::max(stage_end, static_cast<double>(msgs.size()) * ts);
  }

  q.run();
  return stage_end;
}

/// One node's random sends: a random subset of the d links in random issue
/// order. Sizes mix zero, one size shared by the whole stage (so
/// transmissions tie) and fractional values.
NodeStage random_node_stage(int d, double shared_elems, Xoshiro256& rng) {
  std::vector<cube::Link> links(static_cast<std::size_t>(d));
  std::iota(links.begin(), links.end(), 0);
  std::shuffle(links.begin(), links.end(), rng);
  links.resize(static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(d) + 1)));
  NodeStage sends;
  for (cube::Link link : links) {
    const std::uint64_t kind = rng.below(4);
    const double elems =
        kind == 0 ? 0.0 : kind == 1 ? shared_elems : rng.uniform(0.0, 100.0);
    sends.push_back({link, elems});
  }
  return sends;
}

TEST(NetworkSim, DirectScheduleMatchesEventOracleBitForBit) {
  Xoshiro256 rng(20260);
  int stages = 0;
  for (int d = 1; d <= 7; ++d) {
    for (int ports = 0; ports <= d; ++ports) {  // 0 = all-port
      for (const bool overlap : {false, true}) {
        for (int trial = 0; trial < 24; ++trial) {
          SimConfig cfg;
          cfg.machine.ports = ports == 0 ? pipe::MachineParams::kAllPort : ports;
          cfg.overlap_startup = overlap;
          // Every fourth trial zeroes ts, the next zeroes tw.
          cfg.machine.ts = trial % 4 == 0 ? 0.0 : rng.uniform(0.0, 2000.0);
          cfg.machine.tw = trial % 4 == 1 ? 0.0 : rng.uniform(0.0, 200.0);
          const double shared_elems = rng.uniform(0.0, 100.0);
          std::vector<NodeStage> stage(std::size_t{1} << d);
          for (NodeStage& sends : stage) sends = random_node_stage(d, shared_elems, rng);

          const double direct = Network(d, cfg).run_stage(stage);
          const double oracle = event_driven_stage(stage, d, cfg);
          ASSERT_EQ(std::bit_cast<std::uint64_t>(direct), std::bit_cast<std::uint64_t>(oracle))
              << "d=" << d << " ports=" << ports << " overlap=" << overlap
              << " trial=" << trial << ": " << direct << " vs " << oracle;
          ++stages;
        }
      }
    }
  }
  EXPECT_EQ(stages, 1680);
}

}  // namespace
}  // namespace jmh::sim
