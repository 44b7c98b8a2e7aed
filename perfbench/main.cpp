// perfbench: the repository benchmark program.
//
//   perfbench --workload <chip-netlist|chip-bignets|session-eco> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-file <path>] [--smoke]
//
// Prints a host/build record line ("# host {...}") and, as its last line,
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Exits 1 when any output check failed, 2 on a usage error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include <unistd.h>

#include "simd/dispatch.h"
#include "workloads.h"

namespace {

using perfbench::Outcome;
using perfbench::RunConfig;

RunConfig parse_args(int argc, char** argv)
{
    RunConfig cfg;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
            return argv[++i];
        };
        if (a == "--workload") cfg.workload = value();
        else if (a == "--seed") cfg.seed = std::stoull(value());
        else if (a == "--seconds") cfg.seconds = std::stod(value());
        else if (a == "--trace") cfg.trace = std::stoi(value()) != 0;
        else if (a == "--trace-file") cfg.trace_file = value();
        else if (a == "--smoke") cfg.smoke = true;
        else throw std::invalid_argument("unknown argument " + a);
    }
    if (cfg.workload != "chip-netlist" && cfg.workload != "chip-bignets" &&
        cfg.workload != "session-eco")
        throw std::invalid_argument("unknown workload '" + cfg.workload + "'");
    if (!(cfg.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
    return cfg;
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

std::string json_number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

}  // namespace

int main(int argc, char** argv)
{
    RunConfig cfg;
    try {
        cfg = parse_args(argc, argv);
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << '\n';
        return 2;
    }
    // The benchmark measures the default configuration whatever the caller's
    // environment says: auto-detected SIMD and no fault injection.  Thread
    // counts are always explicit.
    unsetenv("CONG93_SIMD");
    unsetenv("CONG93_FAULT_INJECT");

    const bool eco = cfg.workload == "session-eco";
    const int workers = eco ? 2 : perfbench::kThreads;
    const int clients = eco ? 2 : 0;  // chip: the streaming thread waits on the pool
    const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
    std::cout << "# host {\"nproc\":" << nproc
              << ",\"hardware_concurrency\":" << std::thread::hardware_concurrency()
              << ",\"workers\":" << workers << ",\"clients\":" << clients
              << ",\"compiler\":\"" << kCompiler << "\",\"build_type\":\""
              << PERFBENCH_BUILD_TYPE << "\",\"simd\":\""
              << cong93::simd_isa_name(cong93::active_simd_config().isa)
              << "\",\"scaling_evidence\":"
              << (nproc >= workers + clients ? "true" : "false") << "}\n";

    Outcome out = eco ? perfbench::run_eco(cfg) : perfbench::run_chip(cfg);
    for (perfbench::Metric& m : out.metrics) {
        if (std::isfinite(m.value)) continue;
        out.fail("metric " + m.name + " is not finite");
        m.value = 0.0;
    }

    std::cout << "{\"correct\": " << (out.correct ? "true" : "false")
              << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
              << ", \"metrics\": {";
    for (std::size_t i = 0; i < out.metrics.size(); ++i) {
        const perfbench::Metric& m = out.metrics[i];
        std::cout << (i == 0 ? "" : ", ") << '"' << m.name << "\": {\"value\": "
                  << json_number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    }
    std::cout << "}}" << std::endl;
    for (const std::string& e : out.errors) std::cerr << "perfbench: check failed: " << e << '\n';
    return out.correct ? 0 : 1;
}
