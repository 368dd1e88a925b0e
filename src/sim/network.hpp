// Simulation of communication programs on a multi-port hypercube.
//
// A *program* is a list of globally-synchronized stages; in each stage
// every node sends zero or more packed messages, at most one per link (the
// paper's footnote 2: packets sharing a link travel as a single message).
// The simulator models:
//   * startup serialization at the node processor: each message send costs
//     ts of CPU time before its transmission can begin;
//   * dedicated full-duplex links: the transmission of a message of n
//     elements occupies its directed channel for n*tw;
//   * the port constraint: at most `ports` transmissions may be in flight
//     from one node simultaneously (all-port: no limit beyond d).
//
// Channels are dedicated per (node, link) direction, so nodes never contend
// and a stage lasts as long as its slowest node. Each node's schedule is
// plain arithmetic: its messages take the node's `ports` injection slots in
// issue order, each the earliest-free slot, and a transmission starts at
// the later of that slot freeing up and the message's startup completing.
// That is the list schedule a discrete-event run of the same rules
// produces, value for value (tests/test_network_sim.cpp keeps such a run
// as its oracle).
//
// Two startup disciplines are provided:
//   * overlap_startup = false (the analytical model of the paper / [9]):
//     transmissions begin only after all of the node's startups for the
//     stage are issued -- stage cost is exactly distinct*ts + serial*tw
//     terms, matching pipe::comm_op_cost;
//   * overlap_startup = true: a message's transmission begins right after
//     its own startup, overlapping later startups -- a slightly more
//     aggressive hardware model, used in the ablation benches to quantify
//     how conservative the paper's closed form is.
#pragma once

#include <vector>

#include "cube/hypercube.hpp"
#include "pipe/machine.hpp"

namespace jmh::sim {

struct SimConfig {
  pipe::MachineParams machine;
  bool overlap_startup = false;
};

/// One packed message: every element of a stage window that shares a link
/// has been merged already.
struct StageMessage {
  cube::Link link = 0;
  double elems = 0.0;
};

/// A node's sends in one stage, in issue order. Links must be distinct.
using NodeStage = std::vector<StageMessage>;

/// program[stage][node] -> NodeStage.
using Program = std::vector<std::vector<NodeStage>>;

struct SimResult {
  double makespan = 0.0;
  /// Duration of each stage, recorded by run_program only (incremental
  /// accumulate_stage clients keep just the totals).
  std::vector<double> stage_times;
  /// Busy time of each directed channel, indexed node * d + link (time the
  /// channel spends transmitting, independent of scheduling details).
  std::vector<double> link_busy;
  /// Mean fraction of the makespan each directed channel spends busy --
  /// the communication-parallelism figure the multi-port orderings exist
  /// to raise.
  double mean_link_utilization() const;
  /// Utilization of the busiest channel.
  double peak_link_utilization() const;
};

class Network {
 public:
  Network(int d, SimConfig config);

  int dimension() const noexcept { return topo_.dimension(); }
  const cube::Hypercube& topology() const noexcept { return topo_; }

  /// Runs the program with a global barrier between stages; returns the
  /// makespan and per-stage durations.
  SimResult run_program(const Program& program) const;

  /// Duration of a single stage (no barrier overhead modelled). Allocates
  /// nothing.
  double run_stage(const std::vector<NodeStage>& stage) const;

  /// Runs one stage, folds it into @p acc (grows the makespan, adds
  /// per-channel busy time) and returns its duration. Lets incremental
  /// clients -- e.g. a SimTransport charging one protocol transition at a
  /// time -- build up a SimResult without materializing a whole Program.
  /// @p acc's link_busy is sized on first use; later calls allocate nothing.
  double accumulate_stage(const std::vector<NodeStage>& stage, SimResult& acc) const;

 private:
  cube::Hypercube topo_;
  SimConfig config_;
};

}  // namespace jmh::sim
