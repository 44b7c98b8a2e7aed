#include "simd/dispatch.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace cong93 {

namespace {

/// The resolved ISA, or kUnset until the first read parses the environment,
/// so the hot-path read is one atomic load.
constexpr int kUnset = -1;
std::atomic<int> g_isa{kUnset};

bool cpu_has_avx2()
{
#if defined(CONG93_SIMD_HAVE_AVX2) && (defined(__x86_64__) || defined(__i386__))
    return __builtin_cpu_supports("avx2") != 0;
#else
    return false;
#endif
}

SimdIsa from_environment()
{
    SimdMode mode = SimdMode::auto_detect;
    const char* env = std::getenv("CONG93_SIMD");
    const bool rejected = env != nullptr && *env != '\0' &&
                          !parse_simd_spec(env, mode);
    const SimdIsa isa = resolve_simd_isa(mode);
    if (rejected)
        std::fprintf(stderr,
                     "cong93: unrecognized CONG93_SIMD value '%s' (expected "
                     "auto, scalar or avx2); using auto -> %s\n",
                     env, simd_isa_name(isa));
    return isa;
}

}  // namespace

bool simd_isa_supported(SimdIsa isa)
{
    switch (isa) {
    case SimdIsa::scalar: return true;
    case SimdIsa::avx2: return cpu_has_avx2();
    }
    return false;
}

SimdIsa resolve_simd_isa(SimdMode mode)
{
    if (mode == SimdMode::scalar) return SimdIsa::scalar;
    return cpu_has_avx2() ? SimdIsa::avx2 : SimdIsa::scalar;
}

SimdConfig active_simd_config()
{
    int isa = g_isa.load(std::memory_order_relaxed);
    if (isa == kUnset) {
        // A racing first read computes the same value; last store wins.
        isa = static_cast<int>(from_environment());
        g_isa.store(isa, std::memory_order_relaxed);
    }
    return SimdConfig{static_cast<SimdIsa>(isa)};
}

void set_simd_mode(SimdMode mode)
{
    g_isa.store(static_cast<int>(resolve_simd_isa(mode)),
                std::memory_order_relaxed);
}

void reset_simd_mode()
{
    g_isa.store(static_cast<int>(from_environment()),
                std::memory_order_relaxed);
}

const char* simd_isa_name(SimdIsa isa)
{
    return isa == SimdIsa::avx2 ? "avx2" : "scalar";
}

bool parse_simd_spec(const char* text, SimdMode& mode)
{
    if (text == nullptr) return false;
    if (std::strcmp(text, "auto") == 0)
        mode = SimdMode::auto_detect;
    else if (std::strcmp(text, "scalar") == 0)
        mode = SimdMode::scalar;
    else if (std::strcmp(text, "avx2") == 0)
        mode = SimdMode::avx2;
    else
        return false;
    return true;
}

ScopedSimdMode::ScopedSimdMode(SimdMode mode)
    : saved_(active_simd_config().isa)
{
    set_simd_mode(mode);
}

ScopedSimdMode::~ScopedSimdMode()
{
    g_isa.store(static_cast<int>(saved_), std::memory_order_relaxed);
}

}  // namespace cong93
