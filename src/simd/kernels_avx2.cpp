// AVX2 kernel builds (4 doubles per lane).  This translation unit is the
// only one compiled with -mavx2; it is reached strictly behind the cpuid
// check in simd/dispatch.cpp, so no AVX2 instruction can leak into code
// executed on a non-AVX2 host.  -mfma is never enabled and the intrinsics
// used here are non-fused, so every lane rounds exactly like the scalar
// emulation it must match (see kernels_scalar.cpp).
#include "simd/kernels.h"

#if defined(CONG93_SIMD_HAVE_AVX2)

#include <immintrin.h>

namespace cong93 {
namespace simdk {

namespace {

/// Exact int64 -> double for values in [0, 2^52) (grid lengths are far
/// below): overlay the 2^52 exponent and subtract it.  AVX2 has no i64->f64
/// conversion instruction; this classic bit trick produces the same value as
/// a scalar cast for every in-range input.
inline __m256d i64_to_f64(__m256i x)
{
    const __m256d magic = _mm256_set1_pd(4503599627370496.0);  // 2^52
    const __m256i bits = _mm256_or_si256(x, _mm256_castpd_si256(magic));
    return _mm256_sub_pd(_mm256_castsi256_pd(bits), magic);
}

inline double resolved_cap(const ElmoreView& v, std::int32_t s)
{
    const double sc = v.sink_cap[s];
    return sc >= 0.0 ? sc : v.default_sink_cap;
}

}  // namespace

// ---------------------------------------------------------------------------
// Elmore
// ---------------------------------------------------------------------------

void elmore_relaxed_avx2(const ElmoreView& v, double* cap, double* out)
{
    const std::size_t n = v.n;
    if (n == 0) return;
    const __m256d cu = _mm256_set1_pd(v.c_unit);
    // 1. Wire capacitance per node (elementwise), then sink loads.
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i el = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(v.edge_len + i));
        _mm256_storeu_pd(cap + i, _mm256_mul_pd(cu, i64_to_f64(el)));
    }
    for (; i < n; ++i) cap[i] = v.c_unit * static_cast<double>(v.edge_len[i]);
    for (std::size_t j = 0; j < v.sink_count; ++j) {
        const std::int32_t s = v.sinks[j];
        cap[s] += resolved_cap(v, s);
    }
    // 2. Bottom-up accumulation: loop-carried through memory, scalar.
    for (i = n; i-- > 1;)
        cap[static_cast<std::size_t>(v.parent[i])] += cap[i];
    const double c_total = cap[0];
    // 3. Per-edge contributions (elementwise).
    const __m256d ru = _mm256_set1_pd(v.r_unit);
    const __m256d half = _mm256_set1_pd(0.5);
    for (i = 1; i + 4 <= n; i += 4) {
        const __m256d el = i64_to_f64(_mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(v.edge_len + i)));
        const __m256d re = _mm256_mul_pd(ru, el);
        const __m256d ce = _mm256_mul_pd(cu, el);
        const __m256d t =
            _mm256_sub_pd(_mm256_loadu_pd(cap + i), _mm256_mul_pd(half, ce));
        _mm256_storeu_pd(cap + i, _mm256_mul_pd(re, t));
    }
    for (; i < n; ++i) {
        const double el = static_cast<double>(v.edge_len[i]);
        const double re = v.r_unit * el;
        const double ce = v.c_unit * el;
        cap[i] = re * (cap[i] - 0.5 * ce);
    }
    cap[0] = v.rd * c_total;
    // 4. Top-down prefix sums along root paths, scalar (chain dependence).
    for (i = 1; i < n; ++i)
        cap[i] = cap[static_cast<std::size_t>(v.parent[i])] + cap[i];
    for (std::size_t j = 0; j < v.sink_count; ++j)
        out[j] = cap[static_cast<std::size_t>(v.sinks[j])];
}

// ---------------------------------------------------------------------------
// Moments
// ---------------------------------------------------------------------------

namespace {

/// Elementwise current init: subtree = c (* prev).  Identical bits to the
/// scalar loop -- one IEEE multiply per element.
inline void init_currents(const MomentsView& v, const double* prev,
                          double* subtree)
{
    const std::size_t n = v.n;
    std::size_t i = 0;
    if (prev == nullptr) {
        for (; i < n; ++i) subtree[i] = v.c[i];
        return;
    }
    for (; i + 4 <= n; i += 4)
        _mm256_storeu_pd(subtree + i, _mm256_mul_pd(_mm256_loadu_pd(v.c + i),
                                                    _mm256_loadu_pd(prev + i)));
    for (; i < n; ++i) subtree[i] = v.c[i] * prev[i];
}

// Vector twin of kernels_scalar.cpp's suffix_scan_chain: one 4-wide group
// per step from the top, t = x + shift_down1(x); s = t + shift_down2(t);
// out = s + carry.  The blended-in zero lanes are the emulation's explicit
// `+ 0.0` terms, so the bits match it exactly.
inline void suffix_scan_chain_avx2(double* z, std::size_t lo, std::size_t hi)
{
    const __m256d zero = _mm256_setzero_pd();
    std::size_t p = hi;
    while (p - lo >= 4) {
        p -= 4;
        const __m256d c = _mm256_broadcast_sd(z + p + 4);
        const __m256d x = _mm256_loadu_pd(z + p);
        const __m256d xs = _mm256_blend_pd(
            _mm256_permute4x64_pd(x, _MM_SHUFFLE(3, 3, 2, 1)), zero, 0x8);
        const __m256d t = _mm256_add_pd(x, xs);
        const __m256d ts = _mm256_blend_pd(
            _mm256_permute4x64_pd(t, _MM_SHUFFLE(0, 0, 3, 2)), zero, 0xC);
        const __m256d s = _mm256_add_pd(t, ts);
        _mm256_storeu_pd(z + p, _mm256_add_pd(s, c));
    }
    while (p > lo) {
        --p;
        z[p] = z[p] + z[p + 1];
    }
}

// Vector twin of the emulation's prefix group: y = -d already negated,
// t = y + shift_up1(y); s = t + shift_up2(t); returns s + carry.
inline __m256d prefix_group_avx2(const __m256d y, const __m256d carry)
{
    const __m256d zero = _mm256_setzero_pd();
    const __m256d ys = _mm256_blend_pd(
        _mm256_permute4x64_pd(y, _MM_SHUFFLE(2, 1, 0, 0)), zero, 0x1);
    const __m256d t = _mm256_add_pd(y, ys);
    const __m256d ts = _mm256_blend_pd(
        _mm256_permute4x64_pd(t, _MM_SHUFFLE(1, 0, 0, 0)), zero, 0x3);
    const __m256d s = _mm256_add_pd(t, ts);
    return _mm256_add_pd(s, carry);
}

inline void prefix_scan_chain_avx2(const double* r, const double* sub,
                                   const double* lh, const double* spp,
                                   double* cur, std::size_t a, std::size_t b)
{
    const __m256d msign = _mm256_set1_pd(-0.0);
    std::size_t i = a;
    if (lh != nullptr) {
        while (b + 1 - i >= 4) {
            const __m256d carry = _mm256_broadcast_sd(cur + i - 1);
            const __m256d rs = _mm256_mul_pd(_mm256_loadu_pd(r + i),
                                             _mm256_loadu_pd(sub + i));
            const __m256d ls = _mm256_mul_pd(_mm256_loadu_pd(lh + i),
                                             _mm256_loadu_pd(spp + i));
            const __m256d y = _mm256_xor_pd(_mm256_add_pd(rs, ls), msign);
            _mm256_storeu_pd(cur + i, prefix_group_avx2(y, carry));
            i += 4;
        }
        for (; i <= b; ++i)
            cur[i] = cur[i - 1] - (r[i] * sub[i] + lh[i] * spp[i]);
    } else {
        while (b + 1 - i >= 4) {
            const __m256d carry = _mm256_broadcast_sd(cur + i - 1);
            const __m256d y = _mm256_xor_pd(
                _mm256_mul_pd(_mm256_loadu_pd(r + i), _mm256_loadu_pd(sub + i)),
                msign);
            _mm256_storeu_pd(cur + i, prefix_group_avx2(y, carry));
            i += 4;
        }
        for (; i <= b; ++i) cur[i] = cur[i - 1] - r[i] * sub[i];
    }
}

}  // namespace

void moments_order_relaxed_avx2(const MomentsView& v, const double* prev,
                                double* cur, double* subtree,
                                const double* spp)
{
    const std::size_t n = v.n;
    if (n == 0) return;
    init_currents(v, prev, subtree);
    // Up-sweep: grouped suffix scans over maximal parent-chain runs (same
    // run decomposition as the scalar emulation), seed RMW elsewhere.
    std::size_t i = n - 1;
    while (i >= 1) {
        if (v.parent[i] == static_cast<std::int32_t>(i) - 1) {
            std::size_t a = i;
            while (a > 1 && v.parent[a - 1] == static_cast<std::int32_t>(a) - 2)
                --a;
            suffix_scan_chain_avx2(subtree, a - 1, i);
            if (a == 1) break;
            i = a - 1;
        } else {
            subtree[static_cast<std::size_t>(v.parent[i])] += subtree[i];
            --i;
        }
    }
    // Down-sweep with the drop multiply fused into the chain scans.
    const bool rlc = v.lh != nullptr && spp != nullptr;
    const double* lh = rlc ? v.lh : nullptr;
    cur[0] = rlc ? -(v.r[0] * subtree[0] + v.lh[0] * spp[0])
                 : -(v.r[0] * subtree[0]);
    std::size_t j = 1;
    while (j < n) {
        if (v.parent[j] == static_cast<std::int32_t>(j) - 1) {
            std::size_t b = j;
            while (b + 1 < n && v.parent[b + 1] == static_cast<std::int32_t>(b))
                ++b;
            prefix_scan_chain_avx2(v.r, subtree, lh, spp, cur, j, b);
            j = b + 1;
        } else {
            const double d = rlc ? v.r[j] * subtree[j] + v.lh[j] * spp[j]
                                 : v.r[j] * subtree[j];
            cur[j] = cur[static_cast<std::size_t>(v.parent[j])] - d;
            ++j;
        }
    }
}

}  // namespace simdk
}  // namespace cong93

#endif  // CONG93_SIMD_HAVE_AVX2
