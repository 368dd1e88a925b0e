// Collective operations over a Universe's ranks.
//
// allreduce/allgather use the recursive-doubling (hypercube butterfly)
// algorithm when the rank count is a power of two -- the natural pattern on
// the paper's target topology -- and fall back to a root-relay otherwise.
#pragma once

#include <span>
#include <vector>

#include "net/universe.hpp"

namespace jmh::net {

/// Sum of @p value over all ranks, returned on every rank.
double allreduce_sum(Comm& comm, double value);

/// Element-wise sum of @p values over all ranks, accumulated in place on
/// every rank. All ranks must contribute the same length. One butterfly
/// (or root relay) for the whole span -- combine related votes into one
/// call instead of paying per-scalar message startups.
void allreduce_sum_inplace(Comm& comm, std::span<double> values);

/// Max of @p value over all ranks, returned on every rank.
double allreduce_max(Comm& comm, double value);

/// Logical AND across ranks (encoded as 0.0/1.0 doubles internally).
bool allreduce_and(Comm& comm, bool value);

/// Concatenation of every rank's vector in rank order, returned on every
/// rank. All ranks may contribute different lengths.
std::vector<double> allgatherv(Comm& comm, std::span<const double> local);

/// Broadcast @p data from @p root to all ranks (returned everywhere).
std::vector<double> broadcast(Comm& comm, int root, std::span<const double> data);

}  // namespace jmh::net
