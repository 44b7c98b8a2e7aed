#include "staged.h"

#include <optional>

#include "atree/generalized.h"
#include "rtree/validate.h"
#include "wiresize/combined.h"

namespace perfbench {

using namespace cong93;

void StageTotals::emit(Outcome& out) const
{
    const double n = nets == 0 ? 1.0 : static_cast<double>(nets);
    const double wall = net_us > 0.0 ? net_us : 1.0;
    const double solved = solves == 0 ? 1.0 : static_cast<double>(solves);
    const double moments_us = tail_us - solver_us;
    out.add("atree.topology_us_per_net", topology_us / n, "us");
    out.add("atree.topology_share", topology_us / wall, "ratio");
    out.add("atree.safe_moves_per_net", static_cast<double>(safe_moves) / n, "count");
    out.add("atree.heuristic_moves_per_net", static_cast<double>(heuristic_moves) / n,
            "count");
    out.add("atree.lb_gap",
            lb_nets == 0 ? 0.0 : lb_gap_sum / static_cast<double>(lb_nets), "ratio");
    out.add("rtree.validate_us_per_net", validate_us / n, "us");
    out.add("rtree.compile_us_per_net", compile_us / n, "us");
    out.add("rtree.nodes_per_net", static_cast<double>(nodes) / n, "count");
    out.add("delay.report_us_per_net", report_us / n, "us");
    out.add("wiresize.us_per_net", solver_us / n, "us");
    out.add("wiresize.share", solver_us / wall, "ratio");
    out.add("wiresize.assignments_examined_per_net",
            static_cast<double>(assignments_examined) / solved, "count");
    out.add("wiresize.bounds_tight_share", static_cast<double>(bounds_tight) / solved,
            "ratio");
    out.add("sim.moments_us_per_net", moments_us / n, "us");
    out.add("sim.share", moments_us / wall, "ratio");
    out.add("trace.stage_coverage",
            (validate_us + topology_us + compile_us + report_us + tail_us) / wall,
            "ratio");
    out.add("trace.overhead_share",
            untraced_us > 0.0 ? traced_us / untraced_us - 1.0 : 0.0, "ratio");
}

NetRouteResult StagedRouter::route(const Net& net, std::size_t index,
                                   std::uint64_t diag_seed, std::uint32_t id,
                                   Outcome& out)
{
    // The untraced route_single runs first on every other net, so neither
    // side always finds the net's data warm in cache.
    std::optional<NetRouteResult> ref;
    const auto route_untraced = [&] {
        const auto u0 = Clock::now();
        ref.emplace(route_single(net, index, diag_seed, tech_, opts_, ref_ws_));
        totals_.untraced_us += us_between(u0, Clock::now());
    };
    if (id % 2 == 1) route_untraced();

    const auto entry = Clock::now();
    NetRouteResult r;
    r.diag.net_index = index;
    r.diag.net_seed = diag_seed;
    bool on_ok_rung = true;
    double solver_us = 0.0;

    const auto t0 = Clock::now();
    NetValidation v = validate_net(net);
    for (std::string& note : v.notes)
        r.diag.note(RouteStage::validate, std::move(note));
    const auto t1 = Clock::now();
    auto t2 = t1, t3 = t1, t4 = t1, t5 = t1;
    std::optional<AtreeResult> atree;
    if (v.ok) {
        try {
            atree.emplace(build_atree_general(v.net));
        } catch (const std::exception&) {
            on_ok_rung = false;
        }
        t2 = Clock::now();
    } else {
        on_ok_rung = false;
    }
    if (atree) {
        ws_.flat.build(atree->tree);
        t3 = Clock::now();
        on_ok_rung = route_report_compiled(ws_.flat, atree->tree.node_count(),
                                           tech_, ws_, r);
        t4 = Clock::now();
        if (on_ok_rung && opts_.wiresize) {
            route_tail_compiled(
                ws_.flat, index, tech_, opts_, FaultPlan{}, ws_, r,
                [&](const WiresizeContext& ctx) {
                    const auto s0 = Clock::now();
                    CombinedResult c = grewsa_owsa(ctx);
                    const auto s1 = Clock::now();
                    trace_.record(SpanKind::solver, id, s0, s1);
                    solver_us += us_between(s0, s1);
                    ++totals_.solves;
                    totals_.assignments_examined +=
                        static_cast<std::uint64_t>(c.assignments_examined);
                    totals_.bounds_tight += c.bounds_tight ? 1 : 0;
                    return c;
                });
        }
        t5 = Clock::now();
    }

    if (atree) {
        totals_.safe_moves += static_cast<std::uint64_t>(atree->safe_moves);
        totals_.heuristic_moves += static_cast<std::uint64_t>(atree->heuristic_moves);
        totals_.nodes += atree->tree.node_count();
        const Length lb = atree->lower_bound();
        if (lb > 0) {
            totals_.lb_gap_sum +=
                static_cast<double>(atree->cost - lb) / static_cast<double>(lb);
            ++totals_.lb_nets;
        }
        atree.reset();  // freeing the topology is per-net work too
    }
    // The per-net span also holds the glue between stages, so the stage
    // spans' share of it (trace.stage_coverage) is a measurement.
    const auto exit = Clock::now();
    trace_.record(SpanKind::net, id, entry, exit);
    trace_.record(SpanKind::validate, id, t0, t1);
    trace_.record(SpanKind::topology, id, t1, t2);
    trace_.record(SpanKind::compile, id, t2, t3);
    trace_.record(SpanKind::report, id, t3, t4);
    trace_.record(SpanKind::tail, id, t4, t5);
    totals_.traced_us += us_between(entry, Clock::now());

    ++totals_.nets;
    totals_.net_us += us_between(entry, exit);
    totals_.validate_us += us_between(t0, t1);
    totals_.topology_us += us_between(t1, t2);
    totals_.compile_us += us_between(t2, t3);
    totals_.report_us += us_between(t3, t4);
    totals_.tail_us += us_between(t4, t5);
    totals_.solver_us += solver_us;

    if (!ref) route_untraced();
    if (!on_ok_rung || r.status != RouteStatus::ok) {
        out.fail("net " + std::to_string(id) + " left the ok rung (" +
                 to_string(ref->status) + ")");
        return *std::move(ref);
    }
    if (!same_result(r, *ref)) {
        out.fail("net " + std::to_string(id) +
                 ": staged result differs from route_single");
        return *std::move(ref);
    }
    return r;
}

}  // namespace perfbench
