#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <fstream>

namespace perfbench {

void Outcome::fail(const std::string& why)
{
    correct = false;
    ++failed;
    if (errors.size() < 8) errors.push_back(why);
}

double quantile(std::vector<double> v, double q)
{
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mb()
{
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool same_result(const cong93::NetRouteResult& a, const cong93::NetRouteResult& b)
{
    return cong93::format_results({a}) == cong93::format_results({b});
}

std::uint64_t mix_result(std::uint64_t h, const cong93::NetRouteResult& r)
{
    const auto mix = [&h](std::uint64_t v) {
        h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    };
    mix(static_cast<std::uint64_t>(r.status));
    mix(r.nodes);
    mix(r.segments);
    mix(static_cast<std::uint64_t>(r.wirelength));
    mix(std::bit_cast<std::uint64_t>(r.rph_s));
    mix(std::bit_cast<std::uint64_t>(r.elmore_max_s));
    mix(std::bit_cast<std::uint64_t>(r.wiresized_delay_s));
    mix(std::bit_cast<std::uint64_t>(r.moment_elmore_max_s));
    for (const int w : r.assignment) mix(static_cast<std::uint64_t>(w));
    mix(r.diag.events.size());
    return h;
}

std::uint64_t fnv1a(std::uint64_t h, const std::string& s)
{
    for (const unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

namespace {

const char* span_name(SpanKind k)
{
    switch (k) {
    case SpanKind::net: return "net";
    case SpanKind::validate: return "rtree.validate";
    case SpanKind::topology: return "atree.topology";
    case SpanKind::compile: return "rtree.compile";
    case SpanKind::report: return "delay.report";
    case SpanKind::tail: return "tail";
    case SpanKind::solver: return "wiresize.solver";
    case SpanKind::pull: return "workload.pull";
    case SpanKind::route: return "batch.route_batch";
    case SpanKind::fold: return "report.add_chunk";
    case SpanKind::admit: return "session.add_batch";
    case SpanKind::apply: return "session.apply";
    }
    return "?";
}

}  // namespace

bool Trace::write(const std::string& path) const
{
    constexpr std::size_t cap = 200000;
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"traceEvents\":[\n";
    const std::size_t n = std::min(cap, spans_.size());
    for (std::size_t i = 0; i < n; ++i) {
        const Span& s = spans_[i];
        out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << span_name(s.kind)
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
            << static_cast<double>(s.start_ns) / 1e3
            << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
            << ",\"args\":{\"trace_id\":" << s.id << "}}";
    }
    out << "\n],\"spans_recorded\":" << spans_.size() << ",\"spans_written\":" << n
        << "}\n";
    return static_cast<bool>(out);
}

}  // namespace perfbench
