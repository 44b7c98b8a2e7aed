// Shared plumbing of the repository benchmark: run configuration, the result
// record every workload fills, order statistics, the in-memory span store of
// traced runs, and exact result comparison.
#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "batch/pipeline.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double us_between(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

inline double s_between(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/// Worker threads of every routing pool, and the ceiling on worker plus
/// client threads of any workload.
inline constexpr int kThreads = 4;

struct RunConfig {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Tiny inputs and one round: checks that every metric is emitted.
    bool smoke = false;
    /// Where a traced run writes its spans (Chrome trace-event JSON).
    std::string trace_file;
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// What one run reports: the contract's result line plus diagnostics.
struct Outcome {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<std::string> errors;  ///< first few check failures, for stderr

    void add(std::string name, double value, std::string unit)
    {
        metrics.push_back(Metric{std::move(name), value, std::move(unit)});
    }
    /// A failed output check: counted as a failed operation.
    void fail(const std::string& why);
};

/// Quantile with linear interpolation between order statistics (q in
/// [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Peak resident set of the process so far, in MB.
double peak_rss_mb();

/// Byte-identity of the two results' format_results lines.
bool same_result(const cong93::NetRouteResult& a, const cong93::NetRouteResult& b);

/// Cheap order-sensitive fold of a result's printed fields (bit patterns),
/// for comparing whole streams across rounds inside timed regions.
std::uint64_t mix_result(std::uint64_t h, const cong93::NetRouteResult& r);

/// FNV-1a over a string, continuing from `h`.
std::uint64_t fnv1a(std::uint64_t h, const std::string& s);
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// Span names of the traced runs.  Per-net stage spans share the net's
/// trace id; chunk and request spans use their own ids.
enum class SpanKind : std::uint8_t {
    net, validate, topology, compile, report, tail, solver,
    pull, route, fold, admit, apply,
};

/// In-memory span store; written once, at the end of a traced run.  Not
/// thread-safe: concurrent clients keep one store each (sharing the origin)
/// and append them at the end.
class Trace {
public:
    explicit Trace(Clock::time_point origin = Clock::now()) : origin_(origin) {}

    void record(SpanKind kind, std::uint32_t id, Clock::time_point t0,
                Clock::time_point t1)
    {
        spans_.push_back(Span{id, kind, ns(t0), ns(t1)});
    }
    void append(const Trace& other)
    {
        spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
    }

    /// Chrome trace-event JSON of the first 200k spans (a viewer-sized
    /// file).  Returns false when the file cannot be written.
    bool write(const std::string& path) const;

private:
    struct Span {
        std::uint32_t id;
        SpanKind kind;
        std::int64_t start_ns;
        std::int64_t end_ns;
    };
    std::int64_t ns(Clock::time_point t) const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
            .count();
    }

    Clock::time_point origin_;
    std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H
