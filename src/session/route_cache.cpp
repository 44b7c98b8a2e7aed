#include "session/route_cache.h"

#include <algorithm>
#include <bit>

#include "simd/dispatch.h"

namespace cong93 {

namespace {

bool tech_equal(const Technology& a, const Technology& b)
{
    // Bit-level equality of every numeric parameter (name is cosmetic and
    // feeds no result bits; NaN-corrupted copies never reach the cache
    // because fault-injected batches bypass it).
    const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    return bits(a.driver_resistance_ohm) == bits(b.driver_resistance_ohm) &&
           bits(a.unit_wire_resistance_ohm) == bits(b.unit_wire_resistance_ohm) &&
           bits(a.unit_wire_capacitance_f) == bits(b.unit_wire_capacitance_f) &&
           bits(a.sink_load_f) == bits(b.sink_load_f) &&
           bits(a.unit_wire_inductance_h) == bits(b.unit_wire_inductance_h) &&
           bits(a.grid_pitch_um) == bits(b.grid_pitch_um) &&
           bits(a.base_width_um) == bits(b.base_width_um);
}

}  // namespace

RouteCache::RouteCache(std::size_t capacity, std::size_t shards)
    : capacity_(capacity)
{
    std::size_t n = std::bit_ceil(std::max<std::size_t>(shards, 1));
    // Under a capacity bound every shard must own at least one entry, or a
    // signature hashing into a zero-capacity shard could never be cached.
    while (capacity_ != 0 && n > capacity_) n /= 2;
    mask_ = n - 1;
    shards_ = std::vector<CacheShard>(n);
    if (capacity_ != 0) {
        const std::size_t base = capacity_ / n;
        const std::size_t rem = capacity_ % n;
        for (std::size_t i = 0; i < n; ++i)
            shards_[i].set_capacity(base + (i < rem ? 1 : 0));
    }
}

std::size_t RouteCache::shards_for_threads(int threads)
{
    const auto t = static_cast<std::size_t>(std::max(threads, 1));
    return std::bit_ceil(t * 4);
}

std::uint32_t RouteCache::config_of(const Technology& tech,
                                    const PipelineOptions& opts)
{
    Config c;
    c.tech = tech;
    c.widths_r = opts.widths_r;
    c.wiresize = opts.wiresize;
    c.max_nodes_per_net = opts.max_nodes_per_net;
    c.simd_isa = static_cast<int>(active_simd_config().isa);

    std::lock_guard<std::mutex> lk(config_mutex_);
    for (std::size_t i = 0; i < configs_.size(); ++i) {
        const Config& o = configs_[i];
        if (tech_equal(o.tech, c.tech) && o.widths_r == c.widths_r &&
            o.wiresize == c.wiresize &&
            o.max_nodes_per_net == c.max_nodes_per_net &&
            o.simd_isa == c.simd_isa)
            return static_cast<std::uint32_t>(i);
    }
    configs_.push_back(std::move(c));
    return static_cast<std::uint32_t>(configs_.size() - 1);
}

std::uint64_t RouteCache::drain(std::vector<CacheEpochEvent>& events)
{
    if (events.empty()) return 0;
    std::vector<std::vector<CacheEpochEvent>> buckets(shards_.size());
    for (CacheEpochEvent& ev : events)
        buckets[shard_index(ev.hash)].push_back(std::move(ev));
    events.clear();
    std::uint64_t evicted = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i)
        evicted += shards_[i].apply(buckets[i]);
    return evicted;
}

std::uint64_t RouteCache::evict_to_resident(std::size_t target_bytes)
{
    std::uint64_t evicted = 0;
    // Evict from the largest-resident shard each round: a deterministic
    // order for a deterministic cache state, and the fastest route under
    // the budget when one shard holds the bulk of the bytes.
    while (resident_bytes() > target_bytes) {
        std::size_t worst_shard = shards_.size();
        std::size_t worst_bytes = 0;
        for (std::size_t i = 0; i < shards_.size(); ++i) {
            const std::size_t b = shards_[i].resident_bytes();
            if (b > worst_bytes) {
                worst_bytes = b;
                worst_shard = i;
            }
        }
        if (worst_shard == shards_.size()) break;  // everything already empty
        if (shards_[worst_shard].evict_one() == 0) break;
        ++evicted;
    }
    return evicted;
}

RouteCacheStats RouteCache::stats() const
{
    RouteCacheStats total;
    for (const CacheShard& s : shards_) {
        const ShardStats st = s.stats();
        total.hits += st.hits;
        total.misses += st.misses;
        total.insertions += st.insertions;
        total.evictions += st.evictions;
        total.contended += st.contended;
    }
    return total;
}

std::size_t RouteCache::size() const
{
    std::size_t n = 0;
    for (const CacheShard& s : shards_) n += s.size();
    return n;
}

std::size_t RouteCache::resident_bytes() const
{
    std::size_t n = 0;
    for (const CacheShard& s : shards_) n += s.resident_bytes();
    return n;
}

void RouteCache::clear()
{
    for (CacheShard& s : shards_) s.clear();
}

std::string RouteCache::dump() const
{
    std::string out;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        out += "shard ";
        out += std::to_string(i);
        out += '\n';
        shards_[i].dump(out);
    }
    return out;
}

}  // namespace cong93
