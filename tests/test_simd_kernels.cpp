// SIMD kernel dispatch and equivalence suite (DESIGN.md §9).
//
// The reduction-order contract under test:
//   * relaxed vectorized results are bit-identical to the relaxed *scalar
//     emulation* (ISA independence) and ULP-bounded against the seed;
//   * relaxed moment evaluation reassociates the up/down chain sweeps in
//     fixed 4-wide groups (kernels.h), so it is ULP-bounded against the
//     seed and bit-identical across ISAs.
//
// Sizes deliberately cover 1 sink, sub-lane-width nets and lane remainders
// (n % 4 != 0) so masked tails are exercised, not just full vectors.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "atree/generalized.h"
#include "batch/pipeline.h"
#include "delay/elmore.h"
#include "delay/rph.h"
#include "netgen/netgen.h"
#include "rtree/flat_tree.h"
#include "sim/moments.h"
#include "sim/rc_tree.h"
#include "simd/dispatch.h"
#include "simd/kernels.h"
#include "tech/technology.h"
#include "generated_batch.h"

namespace cong93 {
namespace {

std::vector<RoutingTree> random_atrees(std::uint64_t seed, int count, int sinks)
{
    std::vector<RoutingTree> trees;
    for (const Net& net : random_nets(seed, count, kMcmGrid, sinks))
        trees.push_back(build_atree_general(net).tree);
    return trees;
}

/// Distance in representable doubles; 0 for bit-equal values.
std::uint64_t ulps_between(double a, double b)
{
    if (a == b) return 0;
    if (!std::isfinite(a) || !std::isfinite(b))
        return ~std::uint64_t{0};
    std::int64_t ia, ib;
    std::memcpy(&ia, &a, sizeof a);
    std::memcpy(&ib, &b, sizeof b);
    if (ia < 0) ia = std::numeric_limits<std::int64_t>::min() - ia;
    if (ib < 0) ib = std::numeric_limits<std::int64_t>::min() - ib;
    return static_cast<std::uint64_t>(ia > ib ? ia - ib : ib - ia);
}

/// Generous ceiling for reassociated positive-sum reductions on these net
/// sizes; the observed distances are single digits.
constexpr std::uint64_t kMaxUlps = 256;

simdk::ElmoreView make_elmore_view(const FlatTree& ft, const Technology& tech)
{
    simdk::ElmoreView v;
    v.n = ft.size();
    v.parent = ft.parent().data();
    v.edge_len = ft.edge_length().data();
    v.is_sink = ft.is_sink().data();
    v.sink_cap = ft.sink_cap().data();
    v.child_ptr = ft.child_ptr().data();
    v.child_idx = ft.child_idx().data();
    v.sinks = ft.sinks().data();
    v.sink_count = ft.sinks().size();
    v.r_unit = tech.r_grid();
    v.c_unit = tech.c_grid();
    v.rd = tech.driver_resistance_ohm;
    v.default_sink_cap = tech.sink_load_f;
    return v;
}

simdk::RphView make_rph_view(const FlatTree& ft, const Technology& tech)
{
    simdk::RphView v;
    v.n = ft.size();
    v.edge_len = ft.edge_length().data();
    v.path_len = ft.path_length().data();
    v.sinks = ft.sinks().data();
    v.sink_count = ft.sinks().size();
    v.sink_cap = ft.sink_cap().data();
    v.r0 = tech.r_grid();
    v.rd = tech.driver_resistance_ohm;
    v.default_sink_cap = tech.sink_load_f;
    return v;
}

const int kSinkSizes[] = {1, 2, 3, 4, 5, 7, 12, 50};

// ---------------------------------------------------------------------------
// Dispatch shim
// ---------------------------------------------------------------------------

TEST(SimdDispatch, ParseSpec)
{
    SimdMode mode = SimdMode::auto_detect;
    EXPECT_TRUE(parse_simd_spec("scalar", mode));
    EXPECT_EQ(mode, SimdMode::scalar);
    EXPECT_TRUE(parse_simd_spec("avx2", mode));
    EXPECT_EQ(mode, SimdMode::avx2);
    EXPECT_TRUE(parse_simd_spec("auto", mode));
    EXPECT_EQ(mode, SimdMode::auto_detect);

    const SimdMode before = mode;
    EXPECT_FALSE(parse_simd_spec("sse9", mode));
    EXPECT_FALSE(parse_simd_spec("", mode));
    EXPECT_FALSE(parse_simd_spec("neon", mode));
    EXPECT_FALSE(parse_simd_spec("auto-strict", mode));
    EXPECT_EQ(mode, before);  // unrecognized text leaves outputs untouched
}

TEST(SimdDispatch, ScopedOverrideRestores)
{
    const SimdConfig outer = active_simd_config();
    {
        ScopedSimdMode pin(SimdMode::scalar);
        EXPECT_EQ(active_simd_config().isa, SimdIsa::scalar);
        {
            ScopedSimdMode inner(SimdMode::auto_detect);
            EXPECT_EQ(active_simd_config().isa,
                      resolve_simd_isa(SimdMode::auto_detect));
        }
        EXPECT_EQ(active_simd_config().isa, SimdIsa::scalar);
    }
    EXPECT_EQ(active_simd_config().isa, outer.isa);
}

TEST(SimdDispatch, UnsupportedIsaFallsBackToScalar)
{
    EXPECT_TRUE(simd_isa_supported(SimdIsa::scalar));
    // A non-AVX2 host must resolve an avx2 request to scalar rather than
    // crash or misdispatch.
    if (!simd_isa_supported(SimdIsa::avx2)) {
        EXPECT_EQ(resolve_simd_isa(SimdMode::avx2), SimdIsa::scalar);
    }
    const SimdIsa resolved = resolve_simd_isa(SimdMode::auto_detect);
    EXPECT_TRUE(simd_isa_supported(resolved));
}

/// Sets CONG93_SIMD for the lifetime of the object and re-reads it;
/// restores the ambient value -- the suite itself may run under one (the
/// scalar CI leg does exactly that) -- on destruction.
class ScopedSimdEnv {
public:
    explicit ScopedSimdEnv(const char* value)
    {
        if (const char* ambient = std::getenv("CONG93_SIMD")) {
            had_ambient_ = true;
            ambient_ = ambient;
        }
        setenv("CONG93_SIMD", value, 1);
        reset_simd_mode();
    }
    ~ScopedSimdEnv()
    {
        if (had_ambient_)
            setenv("CONG93_SIMD", ambient_.c_str(), 1);
        else
            unsetenv("CONG93_SIMD");
        reset_simd_mode();
    }
    ScopedSimdEnv(const ScopedSimdEnv&) = delete;
    ScopedSimdEnv& operator=(const ScopedSimdEnv&) = delete;

private:
    bool had_ambient_ = false;
    std::string ambient_;
};

TEST(SimdDispatch, EnvironmentSpecHonored)
{
    const SimdConfig before = active_simd_config();
    {
        testing::internal::CaptureStderr();
        ScopedSimdEnv env("scalar");
        EXPECT_EQ(active_simd_config().isa, SimdIsa::scalar);
        EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
    }
    EXPECT_EQ(active_simd_config().isa, before.isa);
}

TEST(SimdDispatch, UnrecognizedEnvironmentValueIsReported)
{
    const SimdIsa fallback = resolve_simd_isa(SimdMode::auto_detect);
    // Removed spellings are rejected like any other unknown text: one
    // stderr line naming the value and the ISA auto resolved to.
    for (const char* value : {"auto-strict", "neon", "sse9"}) {
        testing::internal::CaptureStderr();
        {
            ScopedSimdEnv env(value);
            EXPECT_EQ(active_simd_config().isa, fallback) << value;
        }
        const std::string err = testing::internal::GetCapturedStderr();
        EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
        EXPECT_NE(err.find(std::string("'") + value + "'"), std::string::npos)
            << err;
        EXPECT_NE(err.find(simd_isa_name(fallback)), std::string::npos) << err;
    }
    // An empty value means "unset": auto, silently.
    testing::internal::CaptureStderr();
    {
        ScopedSimdEnv env("");
        EXPECT_EQ(active_simd_config().isa, fallback);
    }
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

// ---------------------------------------------------------------------------
// Elmore
// ---------------------------------------------------------------------------

TEST(SimdElmore, RelaxedScalarEmulationWithinUlpsOfSeed)
{
    const Technology tech = mcm_technology();
    for (const int sinks : kSinkSizes) {
        for (const RoutingTree& tree :
             random_atrees(31 + static_cast<std::uint64_t>(sinks), 3, sinks)) {
            const FlatTree ft(tree);
            const simdk::ElmoreView v = make_elmore_view(ft, tech);
            std::vector<double> cap(ft.size()), seed(v.sink_count),
                relaxed(v.sink_count);
            simdk::elmore_scalar(v, cap.data(), seed.data());
            simdk::elmore_relaxed_scalar(v, cap.data(), relaxed.data());
            for (std::size_t i = 0; i < seed.size(); ++i)
                EXPECT_LE(ulps_between(seed[i], relaxed[i]), kMaxUlps)
                    << sinks << " sinks, sink " << i;
        }
    }
}

TEST(SimdElmore, VectorRelaxedBitIdenticalToScalarEmulation)
{
    const Technology tech = mcm_technology();
    for (const int sinks : kSinkSizes) {
        for (const RoutingTree& tree :
             random_atrees(32 + static_cast<std::uint64_t>(sinks), 3, sinks)) {
            const FlatTree ft(tree);
            const simdk::ElmoreView v = make_elmore_view(ft, tech);
            std::vector<double> cap(ft.size()), emu(v.sink_count),
                vec(v.sink_count);
            simdk::elmore_relaxed_scalar(v, cap.data(), emu.data());
#if defined(CONG93_SIMD_HAVE_AVX2)
            if (simd_isa_supported(SimdIsa::avx2)) {
                simdk::elmore_relaxed_avx2(v, cap.data(), vec.data());
                for (std::size_t i = 0; i < emu.size(); ++i)
                    EXPECT_EQ(emu[i], vec[i]) << "avx2 sink " << i;
            }
#endif
        }
    }
}

TEST(SimdElmore, DispatcherRoutesByConfig)
{
    const Technology tech = mcm_technology();
    const RoutingTree tree = random_atrees(34, 1, 20)[0];
    const FlatTree ft(tree);

    ScopedSimdMode pin(SimdMode::scalar);
    const std::vector<double> seed = elmore_all_sinks(ft, tech);
    {
        ScopedSimdMode relaxed_pin(SimdMode::auto_detect);
        const std::vector<double> relaxed = elmore_all_sinks(ft, tech);
        ASSERT_EQ(relaxed.size(), seed.size());
        for (std::size_t i = 0; i < seed.size(); ++i)
            EXPECT_LE(ulps_between(seed[i], relaxed[i]), kMaxUlps)
                << "relaxed sink " << i;
    }
}

// ---------------------------------------------------------------------------
// RPH
// ---------------------------------------------------------------------------

TEST(SimdRph, IntegerSumsExactInEveryMode)
{
    const Technology tech = mcm_technology();
    for (const RoutingTree& tree : random_atrees(35, 4, 17)) {
        const FlatTree ft(tree);
        const simdk::RphView v = make_rph_view(ft, tech);
        const simdk::RphSums seed = simdk::rph_scalar(v);
        const simdk::RphSums relaxed = simdk::rph_relaxed_scalar(v);
        EXPECT_EQ(seed.length_sum, relaxed.length_sum);
        EXPECT_EQ(seed.qmst_sum, relaxed.qmst_sum);
    }
}

TEST(SimdRph, RelaxedSinkSumsUlpBoundedAndExactBelowFourSinks)
{
    const Technology tech = mcm_technology();
    for (const int sinks : kSinkSizes) {
        for (const RoutingTree& tree :
             random_atrees(36 + static_cast<std::uint64_t>(sinks), 3, sinks)) {
            const FlatTree ft(tree);
            const simdk::RphView v = make_rph_view(ft, tech);
            const simdk::RphSums seed = simdk::rph_scalar(v);
            const simdk::RphSums relaxed = simdk::rph_relaxed_scalar(v);
            if (v.sink_count <= 3) {
                // <= 3 sinks never leave logical lane accumulation order.
                EXPECT_EQ(seed.t2, relaxed.t2);
                EXPECT_EQ(seed.t4, relaxed.t4);
            } else {
                EXPECT_LE(ulps_between(seed.t2, relaxed.t2), kMaxUlps);
                EXPECT_LE(ulps_between(seed.t4, relaxed.t4), kMaxUlps);
            }
            // The AVX2 ISA dispatches to the relaxed emulation itself.
            SimdConfig avx2;
            avx2.isa = SimdIsa::avx2;
            const simdk::RphSums vec = simdk::rph_sums(v, avx2);
            EXPECT_EQ(relaxed.t2, vec.t2);
            EXPECT_EQ(relaxed.t4, vec.t4);
            EXPECT_EQ(relaxed.length_sum, vec.length_sum);
            EXPECT_EQ(relaxed.qmst_sum, vec.qmst_sum);
        }
    }
}

// ---------------------------------------------------------------------------
// Moments
// ---------------------------------------------------------------------------

TEST(SimdMoments, RelaxedUlpBoundedAndIsaIndependent)
{
    const Technology tech = mcm_technology();
    MomentWorkspace ws;
    for (const RoutingTree& tree : random_atrees(37, 4, 9)) {
        const RcTree rc = RcTree::from_routing_tree(tree, tech, 8);
        ASSERT_FALSE(rc.has_inductance());
        ScopedSimdMode pin(SimdMode::scalar);
        const auto seed = compute_moments(rc, 3);
        ScopedSimdMode relaxed_pin(SimdMode::auto_detect);
        const auto& relaxed = compute_moments(rc, 3, ws);
        for (int q = 0; q < 3; ++q)
            for (std::size_t i = 0; i < rc.size(); ++i)
                EXPECT_LE(ulps_between(seed[static_cast<std::size_t>(q)][i],
                                       relaxed[static_cast<std::size_t>(q)][i]),
                          kMaxUlps)
                    << "order " << q << " node " << i;

        // ISA independence: the AVX2 relaxed kernel reproduces the relaxed
        // scalar emulation bit for bit, order by order.
        const std::size_t n = rc.size();
        simdk::MomentsView v;
        v.n = n;
        v.parent = rc.parent_data();
        v.r = rc.r_data();
        v.c = rc.c_data();
        std::vector<double> emu_sub(n), emu_prev(n), emu_cur(n);
        std::vector<double> vec_sub(n), vec_prev(n), vec_cur(n);
        if (simd_isa_supported(SimdIsa::avx2)) {
            SimdConfig cfg;
            cfg.isa = SimdIsa::avx2;
            for (int q = 0; q < 3; ++q) {
                const double* ep = q == 0 ? nullptr : emu_prev.data();
                const double* vp = q == 0 ? nullptr : vec_prev.data();
                simdk::moments_order_relaxed_scalar(v, ep, emu_cur.data(),
                                                    emu_sub.data(), nullptr);
                simdk::moments_order(v, cfg, vp, vec_cur.data(),
                                     vec_sub.data(), nullptr);
                for (std::size_t i = 0; i < n; ++i) {
                    EXPECT_EQ(emu_cur[i], vec_cur[i])
                        << "order " << q << " node " << i;
                    EXPECT_EQ(emu_sub[i], vec_sub[i])
                        << "currents, order " << q << " node " << i;
                }
                emu_prev.swap(emu_cur);
                vec_prev.swap(vec_cur);
            }
        }
    }
}

TEST(SimdMoments, RlcRelaxedUlpBounded)
{
    const Technology tech = mcm_technology();
    for (const RoutingTree& tree : random_atrees(38, 3, 9)) {
        const RcTree rc = RcTree::from_routing_tree(tree, tech, 8, true);
        ASSERT_TRUE(rc.has_inductance());
        ScopedSimdMode pin(SimdMode::scalar);
        const auto seed = compute_moments(rc, 4);
        {
            ScopedSimdMode relaxed_pin(SimdMode::auto_detect);
            const auto relaxed = compute_moments(rc, 4);
            for (int q = 0; q < 4; ++q)
                for (std::size_t i = 0; i < rc.size(); ++i)
                    EXPECT_LE(
                        ulps_between(seed[static_cast<std::size_t>(q)][i],
                                     relaxed[static_cast<std::size_t>(q)][i]),
                        kMaxUlps)
                        << "order " << q << " node " << i;
        }
    }
}

// ---------------------------------------------------------------------------
// Pipeline
// ---------------------------------------------------------------------------

TEST(SimdBatched, PipelineResultsIdenticalAcrossBatchingBoundary)
{
    // Whatever the host supports, a relaxed run must be byte-identical
    // to itself run serially (covered elsewhere) and ULP-close to the
    // scalar run.
    const Technology tech = mcm_technology();
    PipelineOptions opts;
    opts.threads = 1;

    ScopedSimdMode pin(SimdMode::scalar);
    const auto seed = route_generated(42, 24, kMcmGrid, 6, tech, opts);
    {
        ScopedSimdMode relaxed_pin(SimdMode::auto_detect);
        const auto relaxed = route_generated(42, 24, kMcmGrid, 6, tech, opts);
        ASSERT_EQ(relaxed.size(), seed.size());
        for (std::size_t i = 0; i < seed.size(); ++i) {
            EXPECT_EQ(seed[i].status, relaxed[i].status) << "net " << i;
            EXPECT_EQ(seed[i].nodes, relaxed[i].nodes) << "net " << i;
            EXPECT_LE(ulps_between(seed[i].rph_s, relaxed[i].rph_s), kMaxUlps)
                << "net " << i;
            EXPECT_LE(
                ulps_between(seed[i].elmore_max_s, relaxed[i].elmore_max_s),
                kMaxUlps)
                << "net " << i;
            EXPECT_LE(ulps_between(seed[i].moment_elmore_max_s,
                                   relaxed[i].moment_elmore_max_s),
                      kMaxUlps)
                << "net " << i;
        }
    }
}

}  // namespace
}  // namespace cong93
