/**
 * @file
 * A std::map model of mem::PageTable for differential tests.
 *
 * One entry per mapped page, with the same contract as the real table:
 * sequence numbers are handed out from one counter that survives
 * clear(), and a commit takes effect only while its page is mapped,
 * in flight, and still carries the committing sequence.  Pre-condition
 * checks are left to the real table; callers only drive valid calls.
 */

#ifndef SENTINEL_TESTS_SUPPORT_REF_PAGE_TABLE_HH
#define SENTINEL_TESTS_SUPPORT_REF_PAGE_TABLE_HH

#include <cstdint>
#include <map>

#include "mem/page_table.hh"

namespace sentinel::testing {

class RefPageTable
{
  public:
    void
    mapRange(mem::PageId first, std::uint64_t count, mem::Tier tier)
    {
        for (std::uint64_t i = 0; i < count; ++i)
            pages_[first + i] = mem::PageEntry{ tier, false, tier, 0, 0 };
    }

    /** Remove [first, first+count), in flight or not.  @return the
     *  pages removed per resident tier and per in-flight destination. */
    mem::PageTable::UnmapCounts
    unmapRange(mem::PageId first, std::uint64_t count)
    {
        mem::PageTable::UnmapCounts out;
        for (std::uint64_t i = 0; i < count; ++i) {
            const mem::PageEntry &e = pages_.at(first + i);
            ++out.src[mem::tierIndex(e.tier)];
            if (e.in_flight)
                ++out.dest[mem::tierIndex(e.dest)];
            pages_.erase(first + i);
        }
        return out;
    }

    bool isMapped(mem::PageId page) const { return pages_.count(page) > 0; }

    const mem::PageEntry &entry(mem::PageId page) const
    {
        return pages_.at(page);
    }

    mem::PageRunState
    runState(mem::PageId first, std::uint64_t count) const
    {
        const mem::PageEntry &e0 = entry(first);
        mem::PageRunState rs{ e0.tier, e0.in_flight, 1 };
        while (rs.count < count) {
            const mem::PageEntry &e = entry(first + rs.count);
            if (e.tier != rs.tier || e.in_flight != rs.in_flight)
                break;
            ++rs.count;
        }
        return rs;
    }

    /** Begin migrating [first, first+count); page i arrives at
     *  @p arrival0 + i * @p step.  @return the first page's sequence. */
    std::uint64_t
    beginMigrationRun(mem::PageId first, std::uint64_t count,
                      mem::Tier dest, Tick arrival0, Tick step)
    {
        const std::uint64_t seq0 = next_seq_;
        for (std::uint64_t i = 0; i < count; ++i) {
            mem::PageEntry &e = pages_.at(first + i);
            e.in_flight = true;
            e.dest = dest;
            e.arrival = arrival0 + static_cast<Tick>(i) * step;
            e.seq = next_seq_++;
        }
        return seq0;
    }

    std::uint64_t
    commitMigrationRun(mem::PageId first, std::uint64_t count,
                       std::uint64_t seq0)
    {
        std::uint64_t done = 0;
        for (std::uint64_t i = 0; i < count; ++i) {
            auto it = pages_.find(first + i);
            if (it == pages_.end() || !it->second.in_flight ||
                it->second.seq != seq0 + i)
                continue; // freed, or remapped and superseded
            it->second.tier = it->second.dest;
            it->second.in_flight = false;
            ++done;
        }
        return done;
    }

    std::size_t numMapped() const { return pages_.size(); }

    std::size_t
    numInFlight() const
    {
        std::size_t n = 0;
        for (const auto &kv : pages_)
            n += kv.second.in_flight ? 1 : 0;
        return n;
    }

    void clear() { pages_.clear(); }

  private:
    std::map<mem::PageId, mem::PageEntry> pages_;
    std::uint64_t next_seq_ = 1;
};

} // namespace sentinel::testing

#endif // SENTINEL_TESTS_SUPPORT_REF_PAGE_TABLE_HH
