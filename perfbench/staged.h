// Stage-by-stage per-net routing for traced runs.
//
// Drives one net through the public per-stage functions in the order
// route_single composes them -- validate_net -> build_atree_general ->
// FlatTree::build -> route_report_compiled -> route_tail_compiled -- timing
// each call from outside.  The wiresizing solver hook times grewsa_owsa on
// its own, so the moment check is the tail span minus the solver span.
// Every staged result is bit-compared with route_single on the same net; a
// net that leaves the ok rung or differs is counted as a failure and the
// route_single result stands in for it.  That route_single call is also the
// untraced run of the net: it is timed, and the two times give the tracing
// overhead.
#ifndef PERFBENCH_STAGED_H
#define PERFBENCH_STAGED_H

#include "batch/pipeline.h"
#include "common.h"

namespace perfbench {

struct StageTotals {
    std::uint64_t nets = 0;
    double net_us = 0.0;       ///< whole per-net span
    double traced_us = 0.0;    ///< per-net span plus recording its spans
    double untraced_us = 0.0;  ///< route_single on the same nets
    double validate_us = 0.0;
    double topology_us = 0.0;
    double compile_us = 0.0;
    double report_us = 0.0;
    double tail_us = 0.0;      ///< wiresize + moment check
    double solver_us = 0.0;    ///< grewsa_owsa inside the tail
    std::uint64_t safe_moves = 0;
    std::uint64_t heuristic_moves = 0;
    std::uint64_t nodes = 0;
    double lb_gap_sum = 0.0;   ///< sum of (cost - lower_bound) / lower_bound
    std::uint64_t lb_nets = 0;
    std::uint64_t solves = 0;
    std::uint64_t assignments_examined = 0;
    std::uint64_t bounds_tight = 0;

    /// Emits the per-stage layer metrics (atree, rtree, delay, wiresize,
    /// sim), the span coverage of the per-net span and the tracing
    /// overhead (traced per-net cost against route_single's).
    void emit(Outcome& out) const;
};

class StagedRouter {
public:
    StagedRouter(const cong93::Technology& tech, const cong93::PipelineOptions& opts,
                 Trace& trace)
        : tech_(tech), opts_(opts), trace_(trace)
    {
    }

    /// Routes `net` stage by stage (as route_single(net, index, diag_seed)
    /// would) under trace id `id`, checks it against route_single, and
    /// returns the authoritative result.
    cong93::NetRouteResult route(const cong93::Net& net, std::size_t index,
                                 std::uint64_t diag_seed, std::uint32_t id,
                                 Outcome& out);

    const StageTotals& totals() const { return totals_; }

private:
    const cong93::Technology& tech_;
    cong93::PipelineOptions opts_;
    Trace& trace_;
    cong93::Workspace ws_;
    cong93::Workspace ref_ws_;
    StageTotals totals_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STAGED_H
