// Runtime ISA dispatch for the vectorized analysis kernels.
//
// The delay/moment kernels ship in up to two builds: the seed-exact scalar
// path (the bit-identity anchor every oracle gate compares against) and an
// AVX2 build (x86-64, 4 doubles per lane).  Whether the AVX2 build exists is
// a compile-time fact (CONG93_SIMD_HAVE_AVX2, set by the src/CMakeLists.txt
// compiler probe); which build runs is resolved here at startup from, in
// priority order,
//
//   1. a programmatic override (set_simd_mode, used by tests and benches),
//   2. the CONG93_SIMD environment variable,
//   3. auto-detection (cpuid on x86; every other host runs scalar),
//
// with a hard fallback to scalar whenever the requested ISA is not compiled
// in or the CPU lacks it -- requesting avx2 on a non-AVX2 host silently runs
// scalar, exactly like CONG93_SIMD=auto on that host.
//
// CONG93_SIMD accepts `auto`, `scalar` and `avx2`.  Any other non-empty
// value is reported with one line on stderr and treated as `auto`.
//
// Reduction-order contract (see DESIGN.md §9): the scalar ISA reproduces the
// seed kernels bit for bit.  The AVX2 ISA runs the relaxed kernels, which
// may reassociate order-sensitive floating point reductions (top-down Elmore
// sweeps, multi-accumulator sink sums): results are ULP-bounded against
// scalar, not bit-equal, but bit-identical to the relaxed scalar emulations
// in simd/kernels.h.
//
// Either ISA is deterministic: the same input always produces the same
// bits, on any thread of any schedule.
#ifndef CONG93_SIMD_DISPATCH_H
#define CONG93_SIMD_DISPATCH_H

namespace cong93 {

/// Instruction sets a kernel can be dispatched to.
enum class SimdIsa { scalar, avx2 };

/// What the user asked for (auto resolves to the best available ISA).
enum class SimdMode { auto_detect, scalar, avx2 };

/// Resolved per-process kernel configuration.
struct SimdConfig {
    SimdIsa isa = SimdIsa::scalar;
};

/// True when this binary contains an implementation of `isa` AND the running
/// CPU supports it (scalar is always supported).
bool simd_isa_supported(SimdIsa isa);

/// Resolves a request against compiled-in kernels and the running CPU;
/// unsupported requests (and auto_detect) fall back as described above.
SimdIsa resolve_simd_isa(SimdMode mode);

/// The active configuration: the last set_simd_mode() override if any, else
/// $CONG93_SIMD (parsed once), else auto-detection.  Cheap (one atomic
/// load); kernels call this per invocation.
SimdConfig active_simd_config();

/// Programmatic override (tests/benches); resolution and fallback are the
/// same as for the environment variable.  Thread-safe, but intended to be
/// called while no kernels are in flight -- a mid-batch switch would apply
/// to some nets and not others.
void set_simd_mode(SimdMode mode);

/// Drops any override and re-reads $CONG93_SIMD.
void reset_simd_mode();

/// "scalar" / "avx2".
const char* simd_isa_name(SimdIsa isa);

/// Parses a CONG93_SIMD value ("auto", "scalar", "avx2").  Returns false
/// (leaving `mode` untouched) for unrecognized text.
bool parse_simd_spec(const char* text, SimdMode& mode);

/// RAII mode pin for tests and benches: applies `mode` on construction,
/// restores the previous configuration on destruction.
class ScopedSimdMode {
public:
    explicit ScopedSimdMode(SimdMode mode);
    ~ScopedSimdMode();
    ScopedSimdMode(const ScopedSimdMode&) = delete;
    ScopedSimdMode& operator=(const ScopedSimdMode&) = delete;

private:
    SimdIsa saved_;
};

}  // namespace cong93

#endif  // CONG93_SIMD_DISPATCH_H
