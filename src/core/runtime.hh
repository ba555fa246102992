/**
 * @file
 * Platform descriptions: the tier chain, migration links, execution
 * and profiler parameters, and Sentinel's options that one training
 * run is built on, with the paper's presets (Table II).
 * harness::Cell assembles a run from one.
 */

#ifndef SENTINEL_CORE_RUNTIME_HH
#define SENTINEL_CORE_RUNTIME_HH

#include <vector>

#include "core/sentinel_policy.hh"
#include "dataflow/executor.hh"
#include "mem/hm.hh"
#include "profile/profiler.hh"

namespace sentinel::core {

struct RuntimeConfig {
    mem::TierParams fast;
    mem::TierParams slow;
    mem::MigrationParams migration;
    df::ExecParams exec;
    prof::ProfilerOptions profiler;
    SentinelOptions sentinel;

    /**
     * Middle tiers between fast and slow, ordered fast-to-slow; empty
     * = the classic two-tier system.  insertMidTiers() fills this with
     * geometrically interpolated parameters.
     */
    std::vector<mem::TierParams> mids;

    /**
     * Per-link migration parameters; entry i drives the link between
     * chain tiers i and i+1.  Empty = every link reuses `migration`;
     * when set, size must be mids.size() + 1.
     */
    std::vector<mem::MigrationParams> links;

    /** Single-tier chain: only the fast tier exists, no links, no
     *  migration.  `mids` must be empty. */
    bool single_tier = false;

    /** The ordered tier chain ([fast, mids..., slow]) the memory
     *  system consumes. */
    std::vector<mem::TierParams> tierChain() const;

    /** Per-link migration parameters matching tierChain(). */
    std::vector<mem::MigrationParams> linkChain() const;

    /**
     * Insert @p count middle tiers of @p bytes_each between fast and
     * slow.  Each mid's bandwidth/latency interpolates geometrically
     * between the fast and slow endpoints by chain position; when
     * @p bw_override > 0 it replaces every mid's read/write bandwidth
     * and the bandwidth of every link below the first mid (the far
     * legs a staged prefetch crosses early).  Link 0 (fast <-> first
     * mid) keeps the preset `migration` channel.
     */
    void insertMidTiers(int count, std::uint64_t bytes_each,
                        double bw_override = 0.0);

    /**
     * DDR4 + Optane DC PMM preset (the paper's Table II CPU platform),
     * with the fast tier sized to @p fast_bytes.
     */
    static RuntimeConfig optane(std::uint64_t fast_bytes);

    /** V100 HBM + host-DRAM-over-PCIe preset (GPU platform). */
    static RuntimeConfig gpu(std::uint64_t hbm_bytes);

    /**
     * DDR4 + CXL-attached-memory preset: a faster, lower-latency slow
     * tier than Optane.  Not in the paper (CXL postdates it) — kept to
     * study how Sentinel's advantage scales as the tier gap narrows,
     * the question the paper's introduction raises about future
     * memory technologies.
     */
    static RuntimeConfig cxl(std::uint64_t fast_bytes);
};

} // namespace sentinel::core

#endif // SENTINEL_CORE_RUNTIME_HH
