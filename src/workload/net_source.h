// Workload layer: the pull-based net-sourcing IR.
//
// Everything the engine routed before this layer existed arrived as an
// ad-hoc `std::vector<Net>` -- fine for one-net experiments, wrong for
// chip-scale designs where 100k+ nets must flow through route_batch in
// bounded memory.  A NetSource is a chunked pull iterator yielding nets
// *plus per-net metadata* (name, criticality weight, required-arrival
// times, a diagnostic seed, and -- for file-backed sources -- a parse
// error): the streaming driver (workload/stream.h) pulls a chunk, routes
// it, hands results to a visitor, and reuses the same buffers for the next
// chunk, so peak memory is a function of chunk size, never of design size.
//
// Determinism contract: a source must yield the same item sequence every
// time it is constructed with the same arguments.  GeneratedNetSource
// holds the generator RNG across pulls and draws nets in index order, so
// streaming N nets in any chunking is bit-identical to the one-shot
// random_nets(seed, N, ...) vector.
#ifndef CONG93_WORKLOAD_NET_SOURCE_H
#define CONG93_WORKLOAD_NET_SOURCE_H

#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "rtree/routing_tree.h"

namespace cong93 {

/// Per-net metadata carried alongside the routable geometry.  The routing
/// pipeline itself consumes only `Net`; metadata feeds the chip-level
/// timing roll-up (report/chip_report.h) and diagnostics.
struct NetMeta {
    std::string name;          ///< unique within a design; empty = unnamed
    double criticality = 1.0;  ///< slack weight in the chip roll-up
    /// Net-level required arrival time in seconds; negative = unconstrained.
    double required_arrival_s = -1.0;
    /// Optional per-sink required arrivals, parallel to Net::sinks (missing
    /// or negative entries = unconstrained sink).
    std::vector<double> sink_required_arrival_s;
    /// Diagnostic RNG seed recorded in NetDiagnostic::net_seed (generated
    /// sources set net_seed(base, index); file/vector sources leave 0).
    std::uint64_t diag_seed = 0;
    /// Non-empty when a reader rejected this net's block: the geometry is
    /// cleared and route_stream reports the net as invalid_input with this
    /// message, instead of throwing mid-stream.
    std::string parse_error;

    /// Tightest required arrival across the net-level and per-sink
    /// constraints; negative when the net is unconstrained.
    double effective_required_arrival_s() const
    {
        double rat = required_arrival_s;
        for (double r : sink_required_arrival_s) {
            if (r >= 0.0 && (rat < 0.0 || r < rat)) rat = r;
        }
        return rat;
    }
};

/// One unit of streamed work: geometry + metadata.
struct WorkItem {
    Net net;
    NetMeta meta;
};

/// Pull-based chunked net iterator.  Sources are single-pass: pull() until
/// it returns 0.  Not thread-safe; the streaming driver pulls from one
/// thread and parallelizes the routing of each chunk instead.
class NetSource {
public:
    virtual ~NetSource() = default;

    /// Appends up to max_items items to `out` (which is NOT cleared) and
    /// returns the number appended; 0 means the source is exhausted.
    /// Implementations must yield items in a deterministic order that does
    /// not depend on max_items (chunking never changes the sequence).
    virtual std::size_t pull(std::vector<WorkItem>& out, std::size_t max_items) = 0;

    /// Total items this source expects to yield, or 0 when unknown (used
    /// only for progress/preallocation hints, never for correctness).
    virtual std::size_t size_hint() const { return 0; }
};

/// In-memory source over a prebuilt item vector (the adapter that lets
/// legacy vector<Net> call sites speak NetSource).
class VectorNetSource : public NetSource {
public:
    explicit VectorNetSource(std::vector<WorkItem> items) : items_(std::move(items)) {}
    /// Wraps plain nets with default metadata.
    explicit VectorNetSource(const std::vector<Net>& nets);

    std::size_t pull(std::vector<WorkItem>& out, std::size_t max_items) override;
    std::size_t size_hint() const override { return items_.size(); }

private:
    std::vector<WorkItem> items_;
    std::size_t cursor_ = 0;
};

/// Streaming adapter over netgen's random generator.  Yields exactly the
/// nets of random_nets(seed, count, grid, sink_count), in order, without
/// ever materializing the whole design: the RNG state is carried across
/// pulls.  Items are named "n<index>" and carry net_seed(seed, index) as
/// the diagnostic seed.
class GeneratedNetSource : public NetSource {
public:
    GeneratedNetSource(std::uint64_t seed, std::size_t count, Coord grid,
                       int sink_count);

    std::size_t pull(std::vector<WorkItem>& out, std::size_t max_items) override;
    std::size_t size_hint() const override { return count_; }

private:
    std::mt19937_64 rng_;
    std::uint64_t seed_;
    std::size_t count_;
    std::size_t next_ = 0;
    Coord grid_;
    int sink_count_;
};

}  // namespace cong93

#endif  // CONG93_WORKLOAD_NET_SOURCE_H
