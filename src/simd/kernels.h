// Raw-array analysis kernels behind the ISA dispatch (simd/dispatch.h).
//
// Every kernel here operates on plain pointers so this library depends on
// nothing above it; the owning layers (delay/, sim/) build the views from
// their FlatTree / RcTree arrays and forward the active SimdConfig.  Each
// dispatcher has one kernel path per reduction order:
//
//   * scalar  -- the seed kernels, moved here verbatim from delay/ and sim/.
//     The bit-identity anchor: every oracle gate compares against these.
//   * relaxed -- the AVX2 ISA's order.  Elmore and moments run 4-double
//     AVX2 kernels, compiled with -mavx2 in their own TU (never inlined
//     elsewhere) and executed only behind the cpuid check; the RPH sink
//     sums run rph_relaxed_scalar, which no vector build beats.
//
// Reduction-order contract (DESIGN.md §9): relaxed kernels may restructure
// order-sensitive reductions (the top-down Elmore sweep, multi-accumulator
// sink sums), so they are ULP-bounded against scalar.  The relaxed result is
// still ISA-independent bit for bit -- a vector lane performs the same IEEE
// mul/add/sub sequence as the relaxed scalar emulation below -- which keeps
// serial == threaded under either ISA and lets the AVX2 kernels be
// bit-compared against the emulations on any AVX2 host.
//
// No kernel in this library may be compiled with FMA contraction: a fused
// multiply-add rounds once where the contract above assumes two roundings.
// CMake forces -ffp-contract=off on these TUs.
#ifndef CONG93_SIMD_KERNELS_H
#define CONG93_SIMD_KERNELS_H

#include <cstddef>
#include <cstdint>

#include "simd/dispatch.h"

namespace cong93 {
namespace simdk {

// ---------------------------------------------------------------------------
// Elmore delay over a compiled tree's preorder arrays (delay/elmore.h).
// ---------------------------------------------------------------------------

struct ElmoreView {
    std::size_t n = 0;
    const std::int32_t* parent = nullptr;    ///< preorder; parent[0] == -1
    const std::int64_t* edge_len = nullptr;  ///< grid units to the parent
    const std::uint8_t* is_sink = nullptr;
    const double* sink_cap = nullptr;        ///< raw; < 0 -> default_sink_cap
    const std::int32_t* child_ptr = nullptr; ///< CSR children (scalar order)
    const std::int32_t* child_idx = nullptr;
    const std::int32_t* sinks = nullptr;     ///< flat sink indices
    std::size_t sink_count = 0;
    double r_unit = 0.0;           ///< wire resistance per grid unit
    double c_unit = 0.0;           ///< wire capacitance per grid unit
    double rd = 0.0;               ///< driver resistance
    double default_sink_cap = 0.0; ///< technology sink load
};

/// All-sink Elmore delays.  `cap` is an n-double scratch (holds the subtree
/// capacitances on return of the scalar path; the relaxed path repurposes
/// it for the top-down sweep).  `out` receives sink_count delays in
/// view.sinks order.
void elmore_all_sinks(const ElmoreView& v, const SimdConfig& cfg, double* cap,
                      double* out);

// ---------------------------------------------------------------------------
// RPH bound sums (delay/rph.h).
// ---------------------------------------------------------------------------

struct RphView {
    std::size_t n = 0;
    const std::int64_t* edge_len = nullptr;
    const std::int64_t* path_len = nullptr;
    const std::int32_t* sinks = nullptr;
    std::size_t sink_count = 0;
    const double* sink_cap = nullptr;  ///< raw; < 0 -> default_sink_cap
    double r0 = 0.0;
    double rd = 0.0;
    double default_sink_cap = 0.0;
};

struct RphSums {
    std::int64_t length_sum = 0;  ///< Σ edge lengths (exact)
    std::int64_t qmst_sum = 0;    ///< Σ l*a + l*(l+1)/2 (exact)
    double t2 = 0.0;              ///< Σ r0 * pl_k * Ck over sinks
    double t4 = 0.0;              ///< Σ rd * Ck over sinks
};

/// The four RPH partial sums.  Integer sums are exact in every mode; the two
/// sink sums follow the reduction-order contract.
RphSums rph_sums(const RphView& v, const SimdConfig& cfg);

// ---------------------------------------------------------------------------
// Moment recursion over an RC tree's SoA arrays (sim/moments.h).
// ---------------------------------------------------------------------------

struct MomentsView {
    std::size_t n = 0;
    const std::int32_t* parent = nullptr;  ///< parents precede children
    const double* r = nullptr;
    const double* c = nullptr;
    const double* lh = nullptr;  ///< nullptr: pure RC (skip inductance terms)
};

/// One moment order: writes m_q into `cur` given `prev` = m_{q-1} (nullptr
/// for q == 1, where the currents are the raw capacitances).  `subtree`
/// returns this order's accumulated currents Σ_subtree C*m_{q-1} (the next
/// order's m_{q-2} currents); `spp` carries the previous order's (nullptr in
/// pure-RC mode).
///
/// The relaxed path exploits the chain-dominated shape of discretized RC
/// trees (at 8 sections per edge ~7/8 of all parents are `i - 1`): maximal
/// parent-chain runs turn the order's two sequential sweeps -- the bottom-up
/// current accumulation and the top-down drop recurrence -- into grouped
/// suffix/prefix scans, four nodes per step with a fixed in-group
/// reassociation (t = x + shift1(x); s = t + shift2(t); out = s + carry)
/// that every ISA reproduces bit for bit.  The branch-drop multiply is
/// fused into the top-down scan, so relaxed runs one fewer memory pass than
/// the seed kernel.
void moments_order(const MomentsView& v, const SimdConfig& cfg,
                   const double* prev, double* cur, double* subtree,
                   const double* spp);

// ---------------------------------------------------------------------------
// Per-ISA entry points (exposed for the dispatch-selection tests; call the
// dispatchers above in production code).  The avx2 variants exist only when
// CONG93_SIMD_HAVE_AVX2 is compiled in -- check simd_isa_supported() before
// calling.
// ---------------------------------------------------------------------------

void elmore_scalar(const ElmoreView& v, double* cap, double* out);
/// Seed subtree-capacitance pass alone (CSR child order); fills cap[0..n).
void elmore_subtree_caps_scalar(const ElmoreView& v, double* cap);
void elmore_relaxed_scalar(const ElmoreView& v, double* cap, double* out);
RphSums rph_scalar(const RphView& v);
RphSums rph_relaxed_scalar(const RphView& v);
void moments_order_scalar(const MomentsView& v, const double* prev, double* cur,
                          double* subtree, const double* spp);
void moments_order_relaxed_scalar(const MomentsView& v, const double* prev,
                                  double* cur, double* subtree,
                                  const double* spp);

void elmore_relaxed_avx2(const ElmoreView& v, double* cap, double* out);
void moments_order_relaxed_avx2(const MomentsView& v, const double* prev,
                                double* cur, double* subtree,
                                const double* spp);

}  // namespace simdk
}  // namespace cong93

#endif  // CONG93_SIMD_KERNELS_H
