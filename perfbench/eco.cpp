// session-eco: one SessionService (a kPool-thread worker pool and a shared
// route cache sized below the distinct-signature count) driven by kClients
// closed-loop client threads, each with its own session.  A client admits
// 64-net blocks -- half translated twins of a library every session shares,
// half fresh nets -- through the NetSource admission path, and after each
// admission makes ~10 local move_sink edits on nets it admitted.  Hits,
// single-flight sharing, interning and LRU evictions all occur.
//
// Each round draws its own client scripts from (seed, round) and runs them
// against a fresh service whose cache was primed with the library (untimed).
// Memory stays bounded however many rounds a run makes, and latencies pool
// over many working sets, so they do not hinge on which few nets one script
// happens to edit.
#include <algorithm>
#include <array>
#include <atomic>
#include <optional>
#include <thread>

#include "netgen/netgen.h"
#include "report/chip_report.h"
#include "session/service.h"
#include "staged.h"
#include "workload/net_source.h"
#include "workloads.h"

namespace perfbench {

using namespace cong93;

EcoDelta local_move(const Net& net, std::mt19937_64& rng, Coord step)
{
    const std::size_t s = static_cast<std::size_t>(rng() % net.sinks.size());
    std::uniform_int_distribution<Coord> d(-step, step);
    for (int attempt = 0; attempt < 64; ++attempt) {
        const Point p{std::max<Coord>(0, net.sinks[s].x + d(rng)),
                      std::max<Coord>(0, net.sinks[s].y + d(rng))};
        if (p == net.source ||
            std::find(net.sinks.begin(), net.sinks.end(), p) != net.sinks.end())
            continue;
        return EcoDelta::make_move(s, p);
    }
    return EcoDelta::make_move(s, net.sinks[s]);
}

void SessionTally::add_outcome(const EcoOutcome& o, std::size_t sinks)
{
    ++applies;
    if (o.incremental) {
        ++incremental;
        dirty_sinks += o.dirty_sinks;
        edited_sinks += sinks;
    } else {
        ++fallback;
    }
}

void SessionTally::add_batch(const PipelineStats& s, std::size_t nets)
{
    admitted += nets;
    served += s.cache_hits + s.cache_shared;
    evictions += s.cache_evictions;
    parked += s.single_flight_parked;
    contention += s.cache_shard_contention;
}

void SessionTally::merge(const SessionTally& o)
{
    apply_us.insert(apply_us.end(), o.apply_us.begin(), o.apply_us.end());
    full_route_us.insert(full_route_us.end(), o.full_route_us.begin(),
                         o.full_route_us.end());
    applies += o.applies;
    incremental += o.incremental;
    fallback += o.fallback;
    dirty_sinks += o.dirty_sinks;
    edited_sinks += o.edited_sinks;
    admitted += o.admitted;
    served += o.served;
    evictions += o.evictions;
    parked += o.parked;
    contention += o.contention;
    resident_mb.insert(resident_mb.end(), o.resident_mb.begin(), o.resident_mb.end());
}

void SessionTally::emit(Outcome& out) const
{
    const auto share = [](std::uint64_t a, std::uint64_t b) {
        return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
    };
    out.add("session.apply_us_p50", quantile(apply_us, 0.5), "us");
    out.add("session.full_route_us_p50", quantile(full_route_us, 0.5), "us");
    out.add("session.eco_incremental_share", share(incremental, applies), "ratio");
    out.add("session.eco_fallback_share", share(fallback, applies), "ratio");
    out.add("session.dirty_sink_share", share(dirty_sinks, edited_sinks), "ratio");
    out.add("session.cache_hit_share", share(served, admitted), "ratio");
    out.add("session.cache_evictions_per_admit", share(evictions, admitted), "ratio");
    out.add("session.cache_resident_mb", median(resident_mb), "MB");
    out.add("session.single_flight_parked", share(parked, admitted), "1/net");
    out.add("session.shard_contention", share(contention, admitted), "1/net");
}

namespace {

constexpr int kPool = 2;
constexpr std::uint64_t kWarmupRound = ~std::uint64_t{0};
constexpr int kClients = 2;
static_assert(kPool + kClients <= kThreads);

struct EcoParams {
    std::size_t library = 0;     ///< shared base library
    std::size_t admissions = 0;  ///< per client per round
    std::size_t block = 0;       ///< nets per admission, half of them twins
    std::size_t edits = 0;       ///< ECO edits after each admission
    std::size_t working_set = 0; ///< edits go to the client's first nets
    std::size_t cache_capacity = 0;
};

EcoParams eco_params(bool smoke)
{
    if (smoke) return EcoParams{16, 2, 8, 3, 4, 8};
    return EcoParams{192, 16, 64, 10, 16, 512};
}

Net eco_net(std::mt19937_64& rng)
{
    return random_net(rng, 4000, std::uniform_int_distribution<int>(16, 64)(rng));
}

/// What one client did in one round.
struct ClientLog {
    std::vector<double> admit_ms;
    std::vector<double> apply_us;
    std::uint64_t requests = 0;
    std::uint64_t nets = 0;      ///< nets admitted plus nets edited
    std::vector<Net> mirror;     ///< the session's nets, by NetId
    /// Edited nets with their apply outcome, for the route_single check.
    std::vector<std::pair<Net, EcoOutcome>> checks;
    std::vector<std::string> errors;
    std::uint64_t not_ok = 0;
    // Traced rounds only.
    std::optional<Trace> trace;
    SessionTally tally;
    double pull_us = 0.0;
    double route_s = 0.0;        ///< route_batch time inside admissions
    double admit_s = 0.0;        ///< admission request wall
    double builds = 0.0;         ///< compiles_per_net x nets
};

struct EcoBench {
    EcoParams p;
    Technology tech = mcm_technology();
    ServiceOptions so;
    std::uint64_t seed;
    std::vector<Net> library;
    /// The current round's script: admission blocks and edit seeds.
    std::array<std::vector<std::vector<Net>>, kClients> blocks;
    std::array<std::uint64_t, kClients> edit_seeds{};
    std::optional<SessionService> svc;

    explicit EcoBench(const RunConfig& cfg) : p(eco_params(cfg.smoke)), seed(cfg.seed)
    {
        std::mt19937_64 rng(cfg.seed);
        so.threads = kPool;
        so.cache_capacity = p.cache_capacity;
        so.session.pipeline.threads = kPool;
        for (std::size_t i = 0; i < p.library; ++i) library.push_back(eco_net(rng));
    }

    /// Draws round `round`'s script and builds a fresh service whose cache
    /// holds the library (untimed).
    void prepare(std::uint64_t round)
    {
        draw_script(round);
        svc.reset();
        svc.emplace(tech, so);
        svc->add_batch(svc->open(), library);
    }

    /// Draws round `round`'s admission blocks and edit seeds.
    void draw_script(std::uint64_t round)
    {
        std::mt19937_64 rng(net_seed(seed, round));
        std::uniform_int_distribution<Coord> shift(0, 50000);
        for (int c = 0; c < kClients; ++c) {
            edit_seeds[c] = rng();
            blocks[c].clear();
            for (std::size_t a = 0; a < p.admissions; ++a) {
                std::vector<Net> block;
                for (std::size_t i = 0; i < p.block; ++i) {
                    if (i % 2 == 1) {
                        block.push_back(eco_net(rng));
                        continue;
                    }
                    Net twin = library[rng() % library.size()];
                    const Point off{shift(rng), shift(rng)};
                    twin.source = Point{twin.source.x + off.x, twin.source.y + off.y};
                    for (Point& q : twin.sinks) q = Point{q.x + off.x, q.y + off.y};
                    block.push_back(std::move(twin));
                }
                blocks[c].push_back(std::move(block));
            }
        }
    }

    const PipelineOptions& popts() const { return so.session.pipeline; }
};

void run_client(EcoBench& b, int c, SessionId sid, bool traced, ClientLog& log)
{
    std::mt19937_64 rng(b.edit_seeds[c]);
    SessionService& svc = *b.svc;
    std::size_t edits = 0;
    try {
        for (const std::vector<Net>& block : b.blocks[c]) {
            VectorNetSource plain(block);
            std::optional<TimedSource> timed;
            NetSource* src = &plain;
            if (traced) src = &timed.emplace(plain, *log.trace);
            PipelineStats st;
            const auto t0 = Clock::now();
            const std::vector<NetId> ids = svc.add_batch(sid, *src, 0, &st);
            const auto t1 = Clock::now();
            log.admit_ms.push_back(us_between(t0, t1) / 1e3);
            ++log.requests;
            log.nets += block.size();
            log.not_ok += block.size() - std::min<std::size_t>(block.size(), st.nets_ok);
            log.mirror.insert(log.mirror.end(), block.begin(), block.end());
            if (ids.size() != block.size() || ids.back() + 1 != log.mirror.size())
                throw std::runtime_error("add_batch returned unexpected ids");
            if (traced) {
                log.trace->record(SpanKind::admit, static_cast<std::uint32_t>(c), t0, t1);
                log.tally.add_batch(st, block.size());
                log.pull_us += timed->pull_us();
                log.route_s += st.seconds;
                log.admit_s += s_between(t0, t1);
                log.builds += st.compiles_per_net * static_cast<double>(block.size());
            }
            for (std::size_t e = 0; e < b.p.edits; ++e, ++edits) {
                const NetId id = static_cast<NetId>(
                    rng() % std::min(b.p.working_set, log.mirror.size()));
                Net& net = log.mirror[id];
                const EcoDelta d = local_move(net, rng, 200);
                Technology unused;
                apply_delta(net, unused, d);
                const auto a0 = Clock::now();
                EcoOutcome o = svc.apply(sid, id, d);
                const auto a1 = Clock::now();
                log.apply_us.push_back(us_between(a0, a1));
                ++log.requests;
                ++log.nets;
                if (o.result.status != RouteStatus::ok) ++log.not_ok;
                if (traced) {
                    log.trace->record(SpanKind::apply, static_cast<std::uint32_t>(id), a0, a1);
                    log.tally.add_outcome(o, net.sinks.size());
                    log.tally.apply_us.push_back(us_between(a0, a1));
                }
                if (traced || edits % 8 == 0) log.checks.emplace_back(net, std::move(o));
            }
        }
    } catch (const std::exception& e) {
        log.errors.push_back(std::string("client: ") + e.what());
    }
}

struct EcoRound {
    double wall_s = 0.0;
    std::array<ClientLog, kClients> logs;
    std::array<SessionId, kClients> sids{};
};

EcoRound eco_round(EcoBench& b, std::uint64_t round, bool traced,
                   Clock::time_point origin)
{
    b.prepare(round);
    EcoRound er;
    for (int c = 0; c < kClients; ++c) {
        er.sids[c] = b.svc->open();
        if (traced) er.logs[c].trace.emplace(origin);
    }
    std::atomic<bool> go{false};
    std::vector<std::thread> clients;
    const auto release_and_join = [&] {
        go.store(true, std::memory_order_release);
        for (std::thread& t : clients) t.join();
    };
    try {
        for (int c = 0; c < kClients; ++c) {
            clients.emplace_back([&, c] {
                while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
                run_client(b, c, er.sids[c], traced, er.logs[c]);
            });
        }
    } catch (...) {
        release_and_join();
        throw;
    }
    const auto t0 = Clock::now();
    release_and_join();
    er.wall_s = s_between(t0, Clock::now());
    return er;
}

/// Output checks of a round (untimed): request failures, rung, the sampled
/// apply results against route_single, and every 8th never-edited admitted
/// net (cache-served or routed) against route_single.
void check_round(EcoBench& b, const EcoRound& er, Outcome& out, SessionTally* tally)
{
    Workspace ws;
    for (int c = 0; c < kClients; ++c) {
        const ClientLog& log = er.logs[c];
        out.attempted += log.requests;
        for (const std::string& e : log.errors) out.fail(e);
        for (std::uint64_t i = 0; i < log.not_ok; ++i) out.fail("a net left the ok rung");
        for (const auto& [net, o] : log.checks) {
            ++out.attempted;
            const auto t0 = Clock::now();
            const NetRouteResult ref = route_single(
                net, static_cast<std::size_t>(o.request), 0, b.tech, b.popts(), ws);
            if (tally != nullptr) tally->full_route_us.push_back(us_between(t0, Clock::now()));
            if (!same_result(ref, o.result)) out.fail("apply differs from route_single");
        }
        for (NetId id = b.p.working_set; id < log.mirror.size(); id += 8) {
            ++out.attempted;
            const NetRouteResult ref =
                route_single(log.mirror[id], id % b.p.block, 0, b.tech, b.popts(), ws);
            if (!same_result(ref, b.svc->result(er.sids[c], id)))
                out.fail("admitted result differs from route_single");
        }
    }
}

/// Folds the round's final results into `agg`; returns the fold time per
/// net in microseconds.
double fold_round(EcoBench& b, const EcoRound& er, ChipAggregator& agg)
{
    std::vector<std::pair<WorkItem, NetRouteResult>> rows;
    for (int c = 0; c < kClients; ++c) {
        for (NetId id = 0; id < er.logs[c].mirror.size(); ++id) {
            WorkItem it;
            it.net = er.logs[c].mirror[id];
            rows.emplace_back(std::move(it), b.svc->result(er.sids[c], id));
        }
    }
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < rows.size(); ++i) agg.add(i, rows[i].first, rows[i].second);
    return us_between(t0, Clock::now()) /
           static_cast<double>(std::max<std::size_t>(1, rows.size()));
}

double setup_once(const RunConfig& cfg, std::optional<EcoBench>& bench, Outcome& out)
{
    bench.reset();
    const auto t0 = Clock::now();
    bench.emplace(cfg);
    // Warm-up: one untimed round (pool spawn, arena and cache growth), on a
    // script no measured round uses.
    const EcoRound warm = eco_round(*bench, kWarmupRound, false, t0);
    const double seconds = s_between(t0, Clock::now());
    check_round(*bench, warm, out, nullptr);
    return seconds;
}

}  // namespace

Outcome run_eco(const RunConfig& cfg)
{
    Outcome out;
    std::optional<EcoBench> bench;
    std::vector<double> setups;
    const int setup_reps = cfg.smoke || cfg.trace ? 1 : 7;
    for (int i = 0; i < setup_reps; ++i) setups.push_back(setup_once(cfg, bench, out));
    EcoBench& b = *bench;
    const auto start = Clock::now();
    // Rounds until the run's time is up (at least three); one in smoke mode.
    const auto more_rounds = [&](int round, int min_rounds, double seconds) {
        if (cfg.smoke) return round < 1;
        return round < min_rounds || s_between(start, Clock::now()) < seconds;
    };

    if (!cfg.trace) {
        std::vector<double> rates, admit_ms, apply_us;
        // Quality over the first three rounds, which every run makes.
        ChipAggregator quality_agg(b.tech);
        for (int round = 0; more_rounds(round, 3, cfg.seconds); ++round) {
            const EcoRound er = eco_round(b, static_cast<std::uint64_t>(round), false, start);
            std::uint64_t nets = 0;
            for (const ClientLog& log : er.logs) {
                nets += log.nets;
                admit_ms.insert(admit_ms.end(), log.admit_ms.begin(), log.admit_ms.end());
                apply_us.insert(apply_us.end(), log.apply_us.begin(), log.apply_us.end());
            }
            rates.push_back(static_cast<double>(nets) / er.wall_s);
            check_round(b, er, out, nullptr);
            if (round < 3) fold_round(b, er, quality_agg);
        }
        const ChipSummary& quality = quality_agg.summary();
        out.add("nets_per_s", median(rates), "nets/s");
        out.add("mean_delay_ps",
                quality.routed == 0
                    ? 0.0
                    : quality.sum_delay_s / static_cast<double>(quality.routed) * 1e12,
                "ps");
        out.add("wirelength_per_net",
                quality.nets == 0 ? 0.0
                                  : static_cast<double>(quality.total_wirelength) /
                                        static_cast<double>(quality.nets),
                "grid");
        out.add("admit_p50_ms", quantile(admit_ms, 0.5), "ms");
        out.add("admit_p90_ms", quantile(admit_ms, 0.9), "ms");
        out.add("eco_p50_us", quantile(apply_us, 0.5), "us");
        out.add("eco_p90_us", quantile(apply_us, 0.9), "us");
        out.add("setup_s", median(setups), "s");
        out.add("peak_rss_mb", peak_rss_mb(), "MB");
        return out;
    }

    // Traced run.
    Trace trace(start);
    SessionTally tally;
    std::vector<double> route_s, fold_us;
    double pull_us = 0.0, admit_s = 0.0, route_total = 0.0, builds = 0.0;
    for (int round = 0; more_rounds(round, 2, cfg.seconds / 2); ++round) {
        const EcoRound tr = eco_round(b, static_cast<std::uint64_t>(round), true, start);
        check_round(b, tr, out, &tally);
        double round_route = 0.0;
        for (const ClientLog& log : tr.logs) {
            trace.append(*log.trace);
            tally.merge(log.tally);
            pull_us += log.pull_us;
            admit_s += log.admit_s;
            round_route += log.route_s;
            builds += log.builds;
        }
        route_s.push_back(round_route);
        route_total += round_route;
        tally.resident_mb.push_back(static_cast<double>(b.svc->cache().resident_bytes()) / 1e6);
        ChipAggregator agg(b.tech);
        fold_us.push_back(fold_round(b, tr, agg));
    }

    // Serial stage-by-stage pass over round 0's admitted blocks, so its
    // figures do not depend on how many rounds ran.
    b.draw_script(0);
    StagedRouter staged(b.tech, b.popts(), trace);
    std::uint32_t id = 0;
    for (int c = 0; c < kClients; ++c) {
        for (const std::vector<Net>& block : b.blocks[c]) {
            for (std::size_t i = 0; i < block.size(); ++i) {
                ++out.attempted;
                staged.route(block[i], i, 0, id++, out);
            }
        }
    }

    const StageTotals& st = staged.totals();
    const double n = tally.admitted == 0 ? 1.0 : static_cast<double>(tally.admitted);
    out.add("workload.pull_us_per_net", pull_us / n, "us");
    out.add("workload.serial_share", admit_s > 0.0 ? 1.0 - route_total / admit_s : 0.0,
            "ratio");
    st.emit(out);
    out.add("batch.efficiency", st.net_us / 1e6 / (kPool * route_s.front()), "ratio");
    out.add("batch.compiles_per_net", builds / n, "count");
    out.add("report.aggregate_us_per_net", median(fold_us), "us");
    tally.emit(out);
    out.add("fail_share",
            static_cast<double>(out.failed) / static_cast<double>(out.attempted), "ratio");
    if (!cfg.trace_file.empty() && !trace.write(cfg.trace_file))
        out.fail("cannot write " + cfg.trace_file);
    return out;
}

}  // namespace perfbench
