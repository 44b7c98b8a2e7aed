// Test helper: a generated design through the one route_batch entry point.
#ifndef CONG93_TESTS_GENERATED_BATCH_H
#define CONG93_TESTS_GENERATED_BATCH_H

#include <cstdint>
#include <vector>

#include "batch/pipeline.h"
#include "netgen/netgen.h"

namespace cong93 {

/// Routes random_nets(seed, count, grid, sinks) with net i's diagnostic seed
/// net_seed(seed, i) -- the nets and seeds GeneratedNetSource streams.
inline std::vector<NetRouteResult> route_generated(
    std::uint64_t seed, int count, Coord grid, int sinks, const Technology& tech,
    const PipelineOptions& opts = {}, PipelineStats* stats = nullptr,
    std::vector<Workspace>* workspaces = nullptr)
{
    std::vector<std::uint64_t> seeds;
    for (int i = 0; i < count; ++i)
        seeds.push_back(net_seed(seed, static_cast<std::size_t>(i)));
    return route_batch(random_nets(seed, count, grid, sinks), tech, opts,
                       stats, workspaces, seeds);
}

}  // namespace cong93

#endif  // CONG93_TESTS_GENERATED_BATCH_H
