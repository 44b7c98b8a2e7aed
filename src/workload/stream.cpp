#include "workload/stream.h"

#include <algorithm>
#include <exception>
#include <limits>

#include "batch/workspace.h"

namespace cong93 {
namespace {

/// Folds one chunk's route_batch stats into the running aggregate: additive
/// fields (seconds, outcome tallies, cache traffic, telemetry) are summed,
/// high-water fields (threads) maxed, point-in-time fields (workspace
/// counters, cache resident_bytes) replaced.  The ratio fields are per-call
/// quotients; route_source recomputes them over the whole stream.
void accumulate_pipeline_stats(PipelineStats& total, const PipelineStats& chunk)
{
    total.threads = std::max(total.threads, chunk.threads);
    total.pool_threads = std::max(total.pool_threads, chunk.pool_threads);
    total.seconds += chunk.seconds;
    total.counters = chunk.counters;  // cumulative over shared workspaces
    total.nets_routed += chunk.nets_routed;
    total.cache_hits += chunk.cache_hits;
    total.cache_misses += chunk.cache_misses;
    total.cache_shared += chunk.cache_shared;
    total.cache_evictions += chunk.cache_evictions;
    total.resident_bytes = chunk.resident_bytes;
    total.cache_shard_contention += chunk.cache_shard_contention;
    total.single_flight_parked += chunk.single_flight_parked;
    total.nets_ok += chunk.nets_ok;
    total.nets_fallback += chunk.nets_fallback;
    total.nets_uniform_width += chunk.nets_uniform_width;
    total.nets_deadline_degraded += chunk.nets_deadline_degraded;
    total.nets_invalid += chunk.nets_invalid;
    total.nets_cancelled += chunk.nets_cancelled;
    total.nets_rejected += chunk.nets_rejected;
    total.nets_failed += chunk.nets_failed;
    total.fault_events += chunk.fault_events;
    total.deadline_wall_degraded += chunk.deadline_wall_degraded;
}

}  // namespace

void SourceChunk::settle(std::vector<NetRouteResult>& results,
                         PipelineStats& stats) const
{
    // Index-addressed rewrite after the barrier: deterministic at any
    // thread count, and malformed nets surface as invalid_input
    // diagnostics, never as exceptions.
    bool rewrote = false;
    for (std::size_t i = 0; i < items.size(); ++i) {
        const std::string& error = items[i].meta.parse_error;
        if (error.empty()) continue;
        NetRouteResult r;
        r.status = RouteStatus::invalid_input;
        r.diag.net_index = results[i].diag.net_index;
        r.diag.net_seed = results[i].diag.net_seed;
        r.diag.note(RouteStage::validate, "netlist: " + error);
        results[i] = std::move(r);
        rewrote = true;
    }
    if (rewrote) tally_outcomes(results, stats);
}

void route_source(NetSource& source, std::size_t chunk_nets,
                  const ChunkRouter& route, StreamStats& stats)
{
    const std::size_t max_items = chunk_nets == 0
                                      ? std::numeric_limits<std::size_t>::max()
                                      : chunk_nets;
    // One set of chunk buffers for the whole stream.
    SourceChunk chunk;
    // Whole-stream compile accounting (the ratios are per-chunk in
    // PipelineStats).
    double total_builds = 0.0;
    for (;;) {
        chunk.items.clear();
        if (source.pull(chunk.items, max_items) == 0) break;
        chunk.nets.clear();
        chunk.seeds.clear();
        for (const WorkItem& item : chunk.items) {
            chunk.nets.push_back(item.net);
            chunk.seeds.push_back(item.meta.diag_seed);
        }

        const PipelineStats cs = route(chunk);

        PipelineStats& total = stats.pipeline;
        accumulate_pipeline_stats(total, cs);
        const std::size_t n = chunk.items.size();
        total_builds += cs.compiles_per_net * static_cast<double>(n);
        ++stats.chunks;
        stats.nets += n;
        stats.peak_chunk_nets = std::max(stats.peak_chunk_nets, n);
        chunk.first_index += n;

        total.compiles_per_net = total_builds / static_cast<double>(stats.nets);
        if (total.nets_routed > 0)
            total.compiles_per_routed_net =
                total_builds / static_cast<double>(total.nets_routed);
        stats.seconds = total.seconds;
        if (stats.seconds > 0.0)
            stats.nets_per_sec = static_cast<double>(stats.nets) / stats.seconds;
        total.nets_per_sec = stats.nets_per_sec;
    }
}

StreamStats route_stream(NetSource& source, const Technology& tech,
                         const PipelineOptions& opts,
                         const StreamOptions& stream_opts,
                         const StreamVisitor& visit)
{
    StreamStats stats;
    // One set of per-slot workspaces and result buffers for the whole
    // stream: the bounded-memory property is exactly their chunk-sized
    // high-water mark.
    std::vector<Workspace> workspaces;
    std::vector<NetRouteResult> results;
    const char* stage = "pull: ";
    try {
        route_source(source, stream_opts.chunk_nets,
                     [&](const SourceChunk& chunk) {
                         stage = "route_batch: ";
                         PipelineStats cs;
                         results = route_batch(chunk.nets, tech, opts, &cs,
                                               &workspaces, chunk.seeds);
                         chunk.settle(results, cs);
                         if (visit) visit(chunk.first_index, chunk.items, results);
                         stage = "pull: ";
                         return cs;
                     },
                     stats);
    } catch (const std::exception& e) {
        stats.source_error = std::string(stage) + e.what();
    }
    for (const Workspace& w : workspaces)
        stats.workspace_resident_bytes += w.resident_bytes();
    return stats;
}

}  // namespace cong93
