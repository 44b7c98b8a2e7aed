// The benchmark's workloads and the helpers the chip and session workloads
// share.
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <random>

#include "common.h"
#include "session/session.h"
#include "workload/net_source.h"

namespace perfbench {

/// chip-netlist and chip-bignets.
Outcome run_chip(const RunConfig& cfg);
/// session-eco.
Outcome run_eco(const RunConfig& cfg);

/// A local placement edit: one sink of `net` moves by at most `step` grid
/// units per axis, staying in the first quadrant and off every other
/// terminal (so the edited net stays routable on the ok rung).
cong93::EcoDelta local_move(const cong93::Net& net, std::mt19937_64& rng,
                            cong93::Coord step);

/// Times every pull of the wrapped source (traced runs).
class TimedSource : public cong93::NetSource {
public:
    TimedSource(cong93::NetSource& inner, Trace& trace) : inner_(inner), trace_(trace) {}
    std::size_t pull(std::vector<cong93::WorkItem>& out, std::size_t max_items) override
    {
        const auto t0 = Clock::now();
        const std::size_t n = inner_.pull(out, max_items);
        last_end_ = Clock::now();
        trace_.record(SpanKind::pull, chunks_++, t0, last_end_);
        pull_us_ += us_between(t0, last_end_);
        return n;
    }
    std::size_t size_hint() const override { return inner_.size_hint(); }

    Clock::time_point last_end() const { return last_end_; }
    std::uint32_t chunks() const { return chunks_; }
    double pull_us() const { return pull_us_; }

private:
    cong93::NetSource& inner_;
    Trace& trace_;
    Clock::time_point last_end_{};
    std::uint32_t chunks_ = 0;
    double pull_us_ = 0.0;
};

/// Session-layer tallies of a traced run.
struct SessionTally {
    std::vector<double> apply_us;
    std::vector<double> full_route_us;  ///< route_single on the same edited net
    std::uint64_t applies = 0;
    std::uint64_t incremental = 0;
    std::uint64_t fallback = 0;      ///< full re-routes (not incremental)
    std::uint64_t dirty_sinks = 0;
    std::uint64_t edited_sinks = 0;  ///< sinks of the edited nets
    std::uint64_t admitted = 0;      ///< nets admitted through add_batch
    std::uint64_t served = 0;        ///< cache hits + single-flight shares
    std::uint64_t evictions = 0;
    std::uint64_t parked = 0;
    std::uint64_t contention = 0;
    std::vector<double> resident_mb;

    void add_outcome(const cong93::EcoOutcome& o, std::size_t sinks);
    void add_batch(const cong93::PipelineStats& s, std::size_t nets);
    void merge(const SessionTally& other);
    void emit(Outcome& out) const;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H
