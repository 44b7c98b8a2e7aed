// Scalar kernel builds: the seed implementations (moved verbatim from
// delay/elmore.cpp, delay/rph.cpp and sim/moments.cpp -- the bit-identity
// anchors) plus the relaxed-order scalar emulations.
//
// The relaxed emulations define the relaxed results: a vectorized relaxed
// kernel must perform, per element, exactly the IEEE operation sequence
// written here, so its output is bit-equal to these on every input.  That is
// the property the cross-ISA identity tests lean on.
#include "simd/kernels.h"

namespace cong93 {
namespace simdk {

namespace {

/// Sink load with the technology default applied.
inline double resolved_cap(const ElmoreView& v, std::int32_t s)
{
    const double sc = v.sink_cap[s];
    return sc >= 0.0 ? sc : v.default_sink_cap;
}

}  // namespace

// ---------------------------------------------------------------------------
// Elmore
// ---------------------------------------------------------------------------

void elmore_subtree_caps_scalar(const ElmoreView& v, double* cap)
{
    // Subtree capacitances, children accumulated in original order via the
    // CSR adjacency so the sums match the pointer-walk oracle bit for bit.
    for (std::size_t i = v.n; i-- > 0;) {
        double c = v.c_unit * static_cast<double>(v.edge_len[i]);
        if (v.is_sink[i]) c += resolved_cap(v, static_cast<std::int32_t>(i));
        for (std::int32_t k = v.child_ptr[i]; k < v.child_ptr[i + 1]; ++k)
            c += cap[static_cast<std::size_t>(v.child_idx[k])];
        cap[i] = c;
    }
}

void elmore_scalar(const ElmoreView& v, double* cap, double* out)
{
    const std::size_t n = v.n;
    elmore_subtree_caps_scalar(v, cap);
    const double c_total = n == 0 ? 0.0 : cap[0];
    for (std::size_t j = 0; j < v.sink_count; ++j) {
        double t = v.rd * c_total;
        for (std::int32_t id = v.sinks[j]; id != 0; id = v.parent[id]) {
            const double re = v.r_unit * static_cast<double>(v.edge_len[id]);
            const double ce = v.c_unit * static_cast<double>(v.edge_len[id]);
            t += re * (cap[static_cast<std::size_t>(id)] - 0.5 * ce);
        }
        out[j] = t;
    }
}

void elmore_relaxed_scalar(const ElmoreView& v, double* cap, double* out)
{
    const std::size_t n = v.n;
    if (n == 0) return;
    // 1. Wire capacitance per node, then sink loads.
    for (std::size_t i = 0; i < n; ++i)
        cap[i] = v.c_unit * static_cast<double>(v.edge_len[i]);
    for (std::size_t j = 0; j < v.sink_count; ++j) {
        const std::int32_t s = v.sinks[j];
        cap[s] += resolved_cap(v, s);
    }
    // 2. Bottom-up subtree accumulation in reverse index order (children
    // follow parents in preorder) -- the reassociation relaxed mode allows.
    for (std::size_t i = n; i-- > 1;)
        cap[static_cast<std::size_t>(v.parent[i])] += cap[i];
    const double c_total = cap[0];
    // 3. Per-edge delay contribution, in place over the subtree caps.
    for (std::size_t i = 1; i < n; ++i) {
        const double el = static_cast<double>(v.edge_len[i]);
        const double re = v.r_unit * el;
        const double ce = v.c_unit * el;
        cap[i] = re * (cap[i] - 0.5 * ce);
    }
    cap[0] = v.rd * c_total;
    // 4. Top-down prefix sums along every root path: one O(n) sweep instead
    // of the seed kernel's O(sinks * depth) per-sink walks.
    for (std::size_t i = 1; i < n; ++i)
        cap[i] = cap[static_cast<std::size_t>(v.parent[i])] + cap[i];
    for (std::size_t j = 0; j < v.sink_count; ++j)
        out[j] = cap[static_cast<std::size_t>(v.sinks[j])];
}

void elmore_all_sinks(const ElmoreView& v,
                      [[maybe_unused]] const SimdConfig& cfg, double* cap,
                      double* out)
{
#if defined(CONG93_SIMD_HAVE_AVX2)
    if (cfg.isa == SimdIsa::avx2) {
        elmore_relaxed_avx2(v, cap, out);
        return;
    }
#endif
    elmore_scalar(v, cap, out);
}

// ---------------------------------------------------------------------------
// RPH
// ---------------------------------------------------------------------------

RphSums rph_scalar(const RphView& v)
{
    RphSums s;
    for (std::size_t i = 1; i < v.n; ++i) {
        const std::int64_t l = v.edge_len[i];
        const std::int64_t a = v.path_len[i] - l;
        s.length_sum += l;
        s.qmst_sum += l * a + l * (l + 1) / 2;
    }
    for (std::size_t j = 0; j < v.sink_count; ++j) {
        const std::int32_t k = v.sinks[j];
        const double sc = v.sink_cap[k];
        const double ck = sc >= 0.0 ? sc : v.default_sink_cap;
        s.t2 += v.r0 * static_cast<double>(v.path_len[k]) * ck;
        s.t4 += v.rd * ck;
    }
    return s;
}

RphSums rph_relaxed_scalar(const RphView& v)
{
    RphSums s;
    // Integer geometric sums are exact under any order; keep the seed loop.
    for (std::size_t i = 1; i < v.n; ++i) {
        const std::int64_t l = v.edge_len[i];
        const std::int64_t a = v.path_len[i] - l;
        s.length_sum += l;
        s.qmst_sum += l * a + l * (l + 1) / 2;
    }
    // Sink sums in four logical lanes (element j accumulates into lane
    // j mod 4, lanes combined pairwise).  This loop is load-bound on the
    // two indexed reads per sink, so relaxed mode runs it as is on every
    // ISA; an AVX2 build of it measured 0.82-1.07x.
    double t2[4] = {0.0, 0.0, 0.0, 0.0};
    double t4[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t j = 0; j < v.sink_count; ++j) {
        const std::int32_t k = v.sinks[j];
        const double sc = v.sink_cap[k];
        const double ck = sc >= 0.0 ? sc : v.default_sink_cap;
        t2[j & 3] += v.r0 * static_cast<double>(v.path_len[k]) * ck;
        t4[j & 3] += v.rd * ck;
    }
    s.t2 = (t2[0] + t2[1]) + (t2[2] + t2[3]);
    s.t4 = (t4[0] + t4[1]) + (t4[2] + t4[3]);
    return s;
}

RphSums rph_sums(const RphView& v, const SimdConfig& cfg)
{
    return cfg.isa == SimdIsa::scalar ? rph_scalar(v) : rph_relaxed_scalar(v);
}

// ---------------------------------------------------------------------------
// Moments
// ---------------------------------------------------------------------------

void moments_order_scalar(const MomentsView& v, const double* prev, double* cur,
                          double* subtree, const double* spp)
{
    const std::size_t n = v.n;
    if (prev == nullptr)
        for (std::size_t i = 0; i < n; ++i) subtree[i] = v.c[i];
    else
        for (std::size_t i = 0; i < n; ++i) subtree[i] = v.c[i] * prev[i];
    for (std::size_t i = n; i-- > 1;)
        subtree[static_cast<std::size_t>(v.parent[i])] += subtree[i];
    if (v.lh != nullptr && spp != nullptr) {
        cur[0] = -v.r[0] * subtree[0] - v.lh[0] * spp[0];
        for (std::size_t i = 1; i < n; ++i)
            cur[i] = cur[static_cast<std::size_t>(v.parent[i])] -
                     v.r[i] * subtree[i] - v.lh[i] * spp[i];
    } else {
        // Pure RC: the seed kernel's lh terms are all +0.0*spp, which is a
        // bitwise no-op on these alternating-sign moment rows; skip them.
        cur[0] = -v.r[0] * subtree[0];
        for (std::size_t i = 1; i < n; ++i)
            cur[i] = cur[static_cast<std::size_t>(v.parent[i])] -
                     v.r[i] * subtree[i];
    }
}

namespace {

// Grouped suffix scan over a parent chain (relaxed up-sweep): positions
// [lo, hi) each absorb the suffix sum toward hi, whose seed z[hi] is already
// final.  Four positions per step from the top, each group reassociated as
// one vector step -- t = x + shift_down1(x); s = t + shift_down2(t);
// out = s + carry -- remainder handled sequentially at the bottom.  The
// explicit `+ 0.0` terms are the lanes a vector shift fills with zero; they
// are kept so the AVX2 kernel matches this emulation bit for bit.
inline void suffix_scan_chain(double* z, std::size_t lo, std::size_t hi)
{
    std::size_t p = hi;
    while (p - lo >= 4) {
        p -= 4;
        const double c = z[p + 4];
        const double x0 = z[p], x1 = z[p + 1], x2 = z[p + 2], x3 = z[p + 3];
        const double t0 = x0 + x1, t1 = x1 + x2, t2 = x2 + x3, t3 = x3 + 0.0;
        const double s0 = t0 + t2, s1 = t1 + t3, s2 = t2 + 0.0, s3 = t3 + 0.0;
        z[p] = s0 + c;
        z[p + 1] = s1 + c;
        z[p + 2] = s2 + c;
        z[p + 3] = s3 + c;
    }
    while (p > lo) {
        --p;
        z[p] = z[p] + z[p + 1];
    }
}

// Grouped prefix scan over a parent chain (relaxed down-sweep) with the
// branch-drop multiply fused in: cur[i] = cur[i-1] - d_i for i in [a, b],
// d_i = r_i*s_i (+ lh_i*spp_i in RLC mode), via y = -d and four-wide groups
// t = y + shift_up1(y); s = t + shift_up2(t); out = s + carry.  Remainder
// sequential at the top.  `lh`/`spp` may be nullptr (pure RC).
inline void prefix_scan_chain(const double* r, const double* sub,
                              const double* lh, const double* spp, double* cur,
                              std::size_t a, std::size_t b)
{
    std::size_t i = a;
    if (lh != nullptr) {
        while (b + 1 - i >= 4) {
            const double carry = cur[i - 1];
            const double y0 = -(r[i] * sub[i] + lh[i] * spp[i]);
            const double y1 = -(r[i + 1] * sub[i + 1] + lh[i + 1] * spp[i + 1]);
            const double y2 = -(r[i + 2] * sub[i + 2] + lh[i + 2] * spp[i + 2]);
            const double y3 = -(r[i + 3] * sub[i + 3] + lh[i + 3] * spp[i + 3]);
            const double t0 = y0 + 0.0, t1 = y1 + y0, t2 = y2 + y1,
                         t3 = y3 + y2;
            const double s0 = t0 + 0.0, s1 = t1 + 0.0, s2 = t2 + t0,
                         s3 = t3 + t1;
            cur[i] = s0 + carry;
            cur[i + 1] = s1 + carry;
            cur[i + 2] = s2 + carry;
            cur[i + 3] = s3 + carry;
            i += 4;
        }
        for (; i <= b; ++i)
            cur[i] = cur[i - 1] - (r[i] * sub[i] + lh[i] * spp[i]);
    } else {
        while (b + 1 - i >= 4) {
            const double carry = cur[i - 1];
            const double y0 = -(r[i] * sub[i]);
            const double y1 = -(r[i + 1] * sub[i + 1]);
            const double y2 = -(r[i + 2] * sub[i + 2]);
            const double y3 = -(r[i + 3] * sub[i + 3]);
            const double t0 = y0 + 0.0, t1 = y1 + y0, t2 = y2 + y1,
                         t3 = y3 + y2;
            const double s0 = t0 + 0.0, s1 = t1 + 0.0, s2 = t2 + t0,
                         s3 = t3 + t1;
            cur[i] = s0 + carry;
            cur[i + 1] = s1 + carry;
            cur[i + 2] = s2 + carry;
            cur[i + 3] = s3 + carry;
            i += 4;
        }
        for (; i <= b; ++i) cur[i] = cur[i - 1] - r[i] * sub[i];
    }
}

}  // namespace

void moments_order_relaxed_scalar(const MomentsView& v, const double* prev,
                                  double* cur, double* subtree,
                                  const double* spp)
{
    const std::size_t n = v.n;
    if (n == 0) return;
    if (prev == nullptr)
        for (std::size_t i = 0; i < n; ++i) subtree[i] = v.c[i];
    else
        for (std::size_t i = 0; i < n; ++i) subtree[i] = v.c[i] * prev[i];
    // Up-sweep: maximal parent-chain runs (parent[i] == i-1; ~7/8 of all
    // nodes at 8 RC sections per edge) take the grouped suffix scan, stray
    // branch nodes the seed read-modify-write.  Reverse index order keeps
    // every side subtree accumulated before the run that absorbs it.
    std::size_t i = n - 1;
    while (i >= 1) {
        if (v.parent[i] == static_cast<std::int32_t>(i) - 1) {
            std::size_t a = i;
            while (a > 1 && v.parent[a - 1] == static_cast<std::int32_t>(a) - 2)
                --a;
            suffix_scan_chain(subtree, a - 1, i);
            if (a == 1) break;  // run reached the root: position 0 is final
            i = a - 1;          // a-1 absorbed the run; its own push is next
        } else {
            subtree[static_cast<std::size_t>(v.parent[i])] += subtree[i];
            --i;
        }
    }
    // Down-sweep with the drop multiply fused into the chain scans; the
    // accumulated currents stay intact in `subtree` (the RLC recursion needs
    // them as the next order's spp).
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
            prefix_scan_chain(v.r, subtree, lh, spp, cur, j, b);
            j = b + 1;
        } else {
            const double d = rlc ? v.r[j] * subtree[j] + v.lh[j] * spp[j]
                                 : v.r[j] * subtree[j];
            cur[j] = cur[static_cast<std::size_t>(v.parent[j])] - d;
            ++j;
        }
    }
}

void moments_order(const MomentsView& v,
                   [[maybe_unused]] const SimdConfig& cfg, const double* prev,
                   double* cur, double* subtree, const double* spp)
{
#if defined(CONG93_SIMD_HAVE_AVX2)
    if (cfg.isa == SimdIsa::avx2) {
        moments_order_relaxed_avx2(v, prev, cur, subtree, spp);
        return;
    }
#endif
    moments_order_scalar(v, prev, cur, subtree, spp);
}

}  // namespace simdk
}  // namespace cong93
