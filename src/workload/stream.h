// Streaming batch driver: route a NetSource of any size through the
// existing route_batch machinery in bounded-memory chunks.
//
// route_stream pulls `chunk_nets` items at a time, routes each chunk with
// route_batch (reusing one persistent set of per-slot Workspaces and one
// set of chunk buffers across the whole stream), hands the chunk's items +
// results to a visitor, and drops them -- so peak resident bytes are a
// function of chunk size x worker slots, never of design size.  A 100k+
// net design streams through the same arenas a 1k design uses.
//
// Determinism contracts (inherited from route_batch per chunk, asserted in
// tests/test_workload.cpp):
//   * serial == N-thread byte-identity per chunk, hence for the stream;
//   * chunked == one-shot: per-net results are index-addressed pure
//     functions of (net, tech, opts), and the route cache evolves by the
//     same net-order epoch drain either way, so streaming a design in any
//     chunking serializes byte-identically (via format_results) to one
//     route_batch over the same nets -- provided per-chunk request-scoped
//     controls (admission caps, deadlines) are off, since those are
//     defined per route_batch call and therefore apply PER CHUNK;
//   * cache on == cache off, per the PR-8 contract.
//
// Error policy: nothing escapes.  Items carrying a reader parse error are
// reported as RouteStatus::invalid_input with the parse message in their
// diagnostic; a source whose pull() throws, or a chunk whose routing or
// visitor throws, stops the stream cleanly with the message in
// StreamStats::source_error.

#ifndef CONG93_WORKLOAD_STREAM_H
#define CONG93_WORKLOAD_STREAM_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "batch/pipeline.h"
#include "workload/net_source.h"

namespace cong93 {

struct StreamOptions {
    /// Items routed per route_batch call; 0 pulls the whole source as one
    /// chunk (the compatibility mode for callers that need exact one-shot
    /// route_batch behavior including per-call admission/deadline scope).
    std::size_t chunk_nets = 4096;
};

/// Aggregated telemetry of one route_stream call.
struct StreamStats {
    std::size_t chunks = 0;          ///< route_batch calls issued
    std::size_t nets = 0;            ///< items routed (including error items)
    std::size_t peak_chunk_nets = 0; ///< largest single chunk
    double seconds = 0.0;            ///< summed route_batch time
    double nets_per_sec = 0.0;
    /// Bytes resident in the persistent per-slot workspaces when the stream
    /// finished -- the streaming memory footprint (chunk-bounded, by
    /// construction independent of how many chunks flowed through).
    std::size_t workspace_resident_bytes = 0;
    /// Non-empty when the source's pull() (or a chunk's route_batch or
    /// visitor) threw: the stream stopped after the last complete chunk and
    /// this carries the exception text.  route_stream itself never throws
    /// on this path.
    std::string source_error;
    /// Pipeline counters aggregated across chunks: additive fields (times,
    /// outcome tallies, cache hits/misses/shared/evictions) are summed;
    /// point-in-time fields (workspace counters, cache resident_bytes)
    /// carry the final chunk's value; compile ratios are recomputed over
    /// the whole stream.
    PipelineStats pipeline;
};

/// Per-chunk result callback: `first_index` is the stream-global index of
/// items[0] (results are chunk-local, parallel to items).  Called on the
/// streaming thread, in chunk order, after the chunk's route_batch barrier.
using StreamVisitor = std::function<void(
    std::size_t first_index, const std::vector<WorkItem>& items,
    const std::vector<NetRouteResult>& results)>;

/// Routes everything `source` yields.  Request-scoped PipelineOptions
/// controls (deadline, cancel, admit_cap, memory budget, cache, pool)
/// apply per chunk, as documented above.  Each result carries its item's
/// diagnostic seed.
StreamStats route_stream(NetSource& source, const Technology& tech,
                         const PipelineOptions& opts = {},
                         const StreamOptions& stream_opts = {},
                         const StreamVisitor& visit = {});

/// One pulled chunk, as route_source hands it to a ChunkRouter.
struct SourceChunk {
    std::size_t first_index = 0;       ///< stream-global index of items[0]
    std::vector<WorkItem> items;
    std::vector<Net> nets;             ///< items' geometry, parallel to items
    std::vector<std::uint64_t> seeds;  ///< items' diagnostic seeds

    /// Rewrites the result of every reader-rejected item (non-empty
    /// meta.parse_error) to invalid_input with the parse message as its
    /// validate diagnostic, keeping the net index and seed route_batch
    /// recorded, and re-tallies `stats` when anything changed.  `results`
    /// are this chunk's route_batch results, parallel to items.
    void settle(std::vector<NetRouteResult>& results, PipelineStats& stats) const;
};

/// Routes one chunk: route_batch over chunk.nets (with chunk.seeds when the
/// caller reports generator seeds), then chunk.settle() on the results
/// before anything consumes them.  Returns the chunk's PipelineStats.
using ChunkRouter = std::function<PipelineStats(const SourceChunk& chunk)>;

/// The NetSource chunk loop behind route_stream and the Session /
/// SessionService source admissions: pulls `source` in `chunk_nets`-item
/// chunks (0 = the whole source as one chunk), hands each to `route`, and
/// folds the returned stats into `stats` -- additive fields summed,
/// point-in-time fields replaced, compile ratios and throughput recomputed
/// over every chunk so far.  Exceptions from pull() or `route` propagate;
/// `stats` then covers the chunks that completed.
void route_source(NetSource& source, std::size_t chunk_nets,
                  const ChunkRouter& route, StreamStats& stats);

}  // namespace cong93

#endif  // CONG93_WORKLOAD_STREAM_H
