// Chip workloads: a whole design streamed through route_stream into a
// ChipAggregator at kThreads worker threads, plus a serial ECO probe (a
// Session over a sample of the design's nets taking local sink moves).
//
//   chip-netlist  ~200k mostly small nets held as `# cong93 netlist v1`
//                 text and parsed by NetlistReader on every pass; sink
//                 counts are heavy-tailed (1..32), a third carry RATs.
//   chip-bignets  generated nets of 24..96 sinks streamed from memory, so
//                 topology dominates and parsing does nothing.
#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <sstream>

#include "netgen/netgen.h"
#include "report/chip_report.h"
#include "staged.h"
#include "workload/netlist.h"
#include "workload/stream.h"
#include "workloads.h"

namespace perfbench {

using namespace cong93;

namespace {

struct ChipParams {
    bool netlist = true;
    std::size_t nets = 0;
    std::size_t chunk = 0;
    std::size_t probe_nets = 0;       ///< nets the ECO probe session holds
    std::size_t edits_per_round = 0;  ///< ECO probe edits per round
};

ChipParams chip_params(const RunConfig& cfg)
{
    ChipParams p;
    p.netlist = cfg.workload == "chip-netlist";
    if (p.netlist) {
        p.nets = cfg.smoke ? 3000 : 200000;
        p.chunk = cfg.smoke ? 512 : 4096;
        p.probe_nets = cfg.smoke ? 32 : 4096;
        p.edits_per_round = cfg.smoke ? 64 : 2048;
    } else {
        p.nets = cfg.smoke ? 48 : 4096;
        p.chunk = cfg.smoke ? 16 : 256;
        p.probe_nets = cfg.smoke ? 8 : 512;
        p.edits_per_round = cfg.smoke ? 16 : 256;
    }
    return p;
}

/// Heavy-tailed sink count of a chip net: P(k >= j) = j^-1.6, capped at 32.
int small_net_sinks(std::mt19937_64& rng)
{
    const double u = 1.0 - std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    return std::min(32, static_cast<int>(std::pow(u, -1.0 / 1.6)));
}

/// Placed nets: each net's terminals fall in a local box whose side grows
/// with its fanout, anywhere on a 100k x 100k die.
std::vector<WorkItem> make_chip_nets(std::mt19937_64& rng, std::size_t count,
                                     const Technology& tech)
{
    constexpr Coord kDie = 100000;
    std::vector<WorkItem> items(count);
    for (std::size_t i = 0; i < count; ++i) {
        const int k = small_net_sinks(rng);
        const auto box = static_cast<Coord>(200.0 + 150.0 * std::sqrt(k));
        Net net = random_net(rng, box, k);
        std::uniform_int_distribution<Coord> at(0, kDie - box);
        const Point off{at(rng), at(rng)};
        net.source = Point{net.source.x + off.x, net.source.y + off.y};
        for (Point& p : net.sinks) p = Point{p.x + off.x, p.y + off.y};
        WorkItem& it = items[i];
        it.meta.name = std::string("n").append(std::to_string(i));
        if (rng() % 3 == 0) {
            const double slack = std::uniform_real_distribution<double>(0.15, 0.6)(rng);
            it.meta.required_arrival_s = slack * bounding_box_delay_s(net, tech);
            it.meta.criticality = 1.0 + static_cast<double>(rng() % 4);
        }
        it.net = std::move(net);
    }
    return items;
}

std::vector<WorkItem> make_big_nets(std::mt19937_64& rng, std::size_t count)
{
    std::vector<WorkItem> items(count);
    std::uniform_int_distribution<int> sinks(24, 96);
    for (std::size_t i = 0; i < count; ++i) {
        items[i].net = random_net(rng, 4000, sinks(rng));
        items[i].meta.name = std::string("b").append(std::to_string(i));
    }
    return items;
}

/// Set-up's warm-up probe round; no measured round uses its edit script.
constexpr std::uint64_t kWarmupRound = ~std::uint64_t{0};

/// Everything one chip configuration needs across rounds.
struct ChipBench {
    ChipParams p;
    Technology tech = mcm_technology();
    PipelineOptions popts;
    StreamOptions sopts;
    std::uint64_t seed;
    std::vector<WorkItem> items;
    std::string text;  ///< netlist text (chip-netlist only)
    std::vector<Net> probe_base;  ///< the probe's nets as the design has them
    std::optional<Session> probe;
    std::vector<Net> probe_nets;  ///< mirror of the probe session's nets
    std::mt19937_64 probe_rng;    ///< the current round's edit script

    explicit ChipBench(const RunConfig& cfg) : p(chip_params(cfg)), seed(cfg.seed)
    {
        popts.threads = kThreads;
        sopts.chunk_nets = p.chunk;
        std::mt19937_64 rng(cfg.seed);
        items = p.netlist ? make_chip_nets(rng, p.nets, tech) : make_big_nets(rng, p.nets);
        if (p.netlist) text = format_netlist(items, "chip");

        // The probe takes evenly spaced nets of the design sorted by sink
        // count, so its fanout mix -- which sets the edit latencies -- is the
        // design's own and barely moves from seed to seed.
        std::vector<std::size_t> order(items.size());
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
            return items[a].net.sinks.size() < items[b].net.sinks.size();
        });
        for (std::size_t s = 0; s < p.probe_nets; ++s)
            probe_base.push_back(items[order[(2 * s + 1) * items.size() / (2 * p.probe_nets)]].net);
        reset_probe(kWarmupRound);
    }

    /// Rebuilds the probe session over the design's own nets and draws round
    /// `round`'s edit script, so every round edits the same starting nets
    /// and the edit mix does not depend on how many rounds ran.  Nets are
    /// admitted one by one: each holds its repair state from the start.
    void reset_probe(std::uint64_t round)
    {
        SessionOptions so;
        so.pipeline = popts;
        so.pipeline.threads = 1;
        probe.reset();
        probe.emplace(tech, so);
        probe_nets = probe_base;
        for (const Net& n : probe_nets) probe->add(n);
        probe_rng.seed(net_seed(seed, round));
    }

    /// The design's first `limit` nets: parsed from the netlist text when
    /// that is the whole chip-netlist design, else copied from memory.
    NetSource& source(std::istringstream& in, std::optional<NetlistReader>& reader,
                      std::optional<VectorNetSource>& copy, std::size_t limit)
    {
        if (p.netlist && limit >= items.size()) {
            in.str(text);
            reader.emplace(in);
            return *reader;
        }
        const auto end = items.begin() + static_cast<std::ptrdiff_t>(
                                              std::min(limit, items.size()));
        copy.emplace(std::vector<WorkItem>(items.begin(), end));
        return *copy;
    }
};

struct RoundResult {
    double wall_s = 0.0;
    std::vector<double> chunk_ms;  ///< pull -> route_batch -> fold, per chunk
    std::uint64_t hash = 0;
    std::uint64_t digest = kFnvBasis;  ///< format_results digest (when asked)
    ChipSummary summary;
    StreamStats stats;
    double pull_us = 0.0;
    double route_us = 0.0;
    double fold_us = 0.0;
    /// Every 16th stream result by global index (when asked).
    std::vector<std::pair<std::size_t, NetRouteResult>> samples;
};

struct RoundHooks {
    Trace* trace = nullptr;  ///< time pull / route_batch / fold per chunk
    bool digest = false;
    bool sample = false;
    std::size_t limit = static_cast<std::size_t>(-1);
};

RoundResult stream_round(ChipBench& b, const RoundHooks& h)
{
    std::istringstream in;
    std::optional<NetlistReader> reader;
    std::optional<VectorNetSource> copy;
    NetSource* src = &b.source(in, reader, copy, h.limit);
    std::optional<TimedSource> timed;
    if (h.trace != nullptr) src = &timed.emplace(*src, *h.trace);

    RoundResult rr;
    ChipAggregator agg(b.tech);
    const auto t0 = Clock::now();
    auto last = t0;
    rr.stats = route_stream(
        *src, b.tech, b.popts, b.sopts,
        [&](std::size_t first, const std::vector<WorkItem>& items,
            const std::vector<NetRouteResult>& results) {
            const auto v0 = Clock::now();
            agg.add_chunk(first, items, results);
            if (h.trace != nullptr) {
                const auto v1 = Clock::now();
                const std::uint32_t id = timed->chunks() - 1;
                h.trace->record(SpanKind::route, id, timed->last_end(), v0);
                h.trace->record(SpanKind::fold, id, v0, v1);
                rr.route_us += us_between(timed->last_end(), v0);
                rr.fold_us += us_between(v0, v1);
            }
            for (const NetRouteResult& r : results) rr.hash = mix_result(rr.hash, r);
            if (h.digest) rr.digest = fnv1a(rr.digest, format_results(results));
            if (h.sample) {
                for (std::size_t i = (16 - first % 16) % 16; i < results.size(); i += 16)
                    rr.samples.emplace_back(first + i, results[i]);
            }
            const auto t = Clock::now();
            rr.chunk_ms.push_back(us_between(last, t) / 1e3);
            last = t;
        });
    rr.wall_s = s_between(t0, Clock::now());
    rr.summary = agg.summary();
    if (timed) rr.pull_us = timed->pull_us();
    return rr;
}

/// Checks a stream pass: every net on the ok rung, nothing lost.
void check_round(const ChipBench& b, const RoundResult& rr, Outcome& out)
{
    out.attempted += rr.stats.nets;
    if (!rr.stats.source_error.empty()) out.fail("stream: " + rr.stats.source_error);
    if (rr.stats.nets != b.items.size())
        out.fail("stream routed " + std::to_string(rr.stats.nets) + " of " +
                 std::to_string(b.items.size()) + " nets");
    for (std::uint64_t i = 0; i < rr.stats.pipeline.nets_not_ok(); ++i)
        out.fail("stream: a net left the ok rung");
}

/// Serial ECO probe edits; appends per-apply latencies.  Every
/// `verify_every`-th result is bit-compared with route_single outside the
/// timed call; a traced run also times route_single on every edited net.
void probe_edits(ChipBench& b, std::size_t edits, std::size_t verify_every,
                 std::vector<double>& apply_us, SessionTally* tally, Outcome& out)
{
    Workspace ws;
    const Coord step = b.p.netlist ? 40 : 200;
    for (std::size_t e = 0; e < edits; ++e) {
        const NetId id = static_cast<NetId>(b.probe_rng() % b.probe_nets.size());
        Net& net = b.probe_nets[id];
        const EcoDelta d = local_move(net, b.probe_rng, step);
        Technology unused;
        apply_delta(net, unused, d);
        const auto t0 = Clock::now();
        const EcoOutcome o = b.probe->apply(id, d);
        const auto t1 = Clock::now();
        apply_us.push_back(us_between(t0, t1));
        ++out.attempted;
        if (o.result.status != RouteStatus::ok) out.fail("eco: edit left the ok rung");
        if (tally != nullptr || e % verify_every == 0) {
            const auto r0 = Clock::now();
            const NetRouteResult ref = route_single(
                net, static_cast<std::size_t>(o.request), 0, b.tech, b.popts, ws);
            const auto r1 = Clock::now();
            if (!same_result(ref, o.result)) out.fail("eco: apply differs from route_single");
            if (tally != nullptr) {
                tally->add_outcome(o, net.sinks.size());
                tally->apply_us.push_back(us_between(t0, t1));
                tally->full_route_us.push_back(us_between(r0, r1));
            }
        }
    }
}

double setup_once(const RunConfig& cfg, std::optional<ChipBench>& bench, Outcome& out)
{
    bench.reset();
    const auto t0 = Clock::now();
    bench.emplace(cfg);
    // Warm-up: pool spawn and arena growth on a two-chunk prefix, plus a few
    // probe edits.  Untimed in the rounds, charged to set-up.
    RoundHooks warm;
    warm.limit = 2 * bench->p.chunk;
    stream_round(*bench, warm);
    std::vector<double> unused;
    probe_edits(*bench, 16, 16, unused, nullptr, out);
    return s_between(t0, Clock::now());
}

}  // namespace

Outcome run_chip(const RunConfig& cfg)
{
    Outcome out;
    std::optional<ChipBench> bench;
    std::vector<double> setups;
    const int setup_reps = cfg.smoke || cfg.trace ? 1 : 7;
    for (int i = 0; i < setup_reps; ++i) setups.push_back(setup_once(cfg, bench, out));
    ChipBench& b = *bench;
    const auto start = Clock::now();
    // Rounds until the run's time is up (at least three); one in smoke mode.
    const auto more_rounds = [&](int round, int min_rounds, double seconds) {
        if (cfg.smoke) return round < 1;
        return round < min_rounds || s_between(start, Clock::now()) < seconds;
    };

    if (!cfg.trace) {
        std::vector<double> rates, chunk_ms, apply_us;
        std::optional<RoundResult> first;
        for (int round = 0; more_rounds(round, 3, cfg.seconds); ++round) {
            RoundHooks h;
            h.sample = round == 0;
            RoundResult rr = stream_round(b, h);
            check_round(b, rr, out);
            rates.push_back(static_cast<double>(rr.stats.nets) / rr.wall_s);
            chunk_ms.insert(chunk_ms.end(), rr.chunk_ms.begin(), rr.chunk_ms.end());
            b.reset_probe(static_cast<std::uint64_t>(round));
            probe_edits(b, b.p.edits_per_round, 8, apply_us, nullptr, out);
            if (!first) {
                first = std::move(rr);
            } else if (rr.hash != first->hash) {
                out.fail("stream results changed between rounds");
            }
        }
        // Sampled bit-identity of the threaded stream against route_single.
        Workspace ws;
        for (const auto& [g, got] : first->samples) {
            const WorkItem& it = b.items[g];
            ++out.attempted;
            const NetRouteResult ref = route_single(it.net, g % b.p.chunk,
                                                    it.meta.diag_seed, b.tech, b.popts, ws);
            if (!same_result(ref, got)) out.fail("stream result differs from route_single");
        }
        const ChipSummary& s = first->summary;
        out.add("nets_per_s", median(rates), "nets/s");
        out.add("mean_delay_ps",
                s.routed == 0 ? 0.0 : s.sum_delay_s / static_cast<double>(s.routed) * 1e12,
                "ps");
        out.add("wirelength_per_net",
                s.nets == 0 ? 0.0
                            : static_cast<double>(s.total_wirelength) /
                                  static_cast<double>(s.nets),
                "grid");
        out.add("admit_p50_ms", quantile(chunk_ms, 0.5), "ms");
        out.add("admit_p90_ms", quantile(chunk_ms, 0.9), "ms");
        out.add("eco_p50_us", quantile(apply_us, 0.5), "us");
        out.add("eco_p90_us", quantile(apply_us, 0.9), "us");
        out.add("setup_s", median(setups), "s");
        out.add("peak_rss_mb", peak_rss_mb(), "MB");
        return out;
    }

    // Traced run.  1) One untimed pass digests the threaded stream.
    Trace trace;
    RoundHooks dh;
    dh.digest = true;
    const RoundResult ref = stream_round(b, dh);
    check_round(b, ref, out);

    // 2) Traced rounds: pull, route_batch and fold timed per chunk.
    std::vector<double> pull, serial, fold, route_s;
    for (int round = 0; more_rounds(round, 2, cfg.seconds / 2); ++round) {
        RoundHooks th;
        th.trace = &trace;
        const RoundResult tr = stream_round(b, th);
        check_round(b, tr, out);
        if (tr.hash != ref.hash) out.fail("stream results changed between rounds");
        const double n = static_cast<double>(tr.stats.nets);
        pull.push_back(tr.pull_us / n);
        fold.push_back(tr.fold_us / n);
        route_s.push_back(tr.route_us / 1e6);
        serial.push_back(1.0 - tr.route_us / 1e6 / tr.wall_s);
    }

    // 3) Serial stage-by-stage pass over the whole design, chunk by chunk
    //    as the stream indexes it; its digest must equal the threaded one.
    StagedRouter staged(b.tech, b.popts, trace);
    std::uint64_t digest = kFnvBasis;
    std::vector<NetRouteResult> chunk;
    for (std::size_t first = 0; first < b.items.size(); first += b.p.chunk) {
        const std::size_t last = std::min(b.items.size(), first + b.p.chunk);
        chunk.clear();
        for (std::size_t g = first; g < last; ++g) {
            ++out.attempted;
            chunk.push_back(staged.route(b.items[g].net, g - first,
                                         b.items[g].meta.diag_seed,
                                         static_cast<std::uint32_t>(g), out));
        }
        digest = fnv1a(digest, format_results(chunk));
    }
    ++out.attempted;
    if (digest != ref.digest)
        out.fail("format_results digest of the threaded stream != serial staged pass");

    // 4) ECO probe, on round 0's edit script, with route_single timed on
    //    every edited net.
    SessionTally tally;
    std::vector<double> unused;
    b.reset_probe(0);
    probe_edits(b, cfg.smoke ? 64 : 4 * b.p.edits_per_round, 1, unused, &tally, out);
    tally.resident_mb.push_back(static_cast<double>(b.probe->cache().resident_bytes()) / 1e6);

    const StageTotals& st = staged.totals();
    out.add("workload.pull_us_per_net", median(pull), "us");
    out.add("workload.serial_share", median(serial), "ratio");
    st.emit(out);
    out.add("batch.efficiency", st.net_us / 1e6 / (kThreads * median(route_s)), "ratio");
    out.add("batch.compiles_per_net", ref.stats.pipeline.compiles_per_net, "count");
    out.add("report.aggregate_us_per_net", median(fold), "us");
    tally.emit(out);
    out.add("fail_share",
            static_cast<double>(out.failed) / static_cast<double>(out.attempted), "ratio");
    if (!cfg.trace_file.empty() && !trace.write(cfg.trace_file))
        out.fail("cannot write " + cfg.trace_file);
    return out;
}

}  // namespace perfbench
