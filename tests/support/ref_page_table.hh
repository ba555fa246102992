/**
 * @file
 * A std::map model of mem::PageTable for differential tests.
 *
 * One entry per mapped page, with the same contract as the real table:
 * a begun run is a record whose commits pass its pages in order, and a
 * commit lands a page only while it is mapped and still in flight
 * under that record.  Records here are never reused, so a stale commit
 * can only be told apart by the page's own record; the real table's
 * ids differ and callers map between the two.  Pre-condition checks
 * are left to the real table; callers only drive valid calls.
 */

#ifndef SENTINEL_TESTS_SUPPORT_REF_PAGE_TABLE_HH
#define SENTINEL_TESTS_SUPPORT_REF_PAGE_TABLE_HH

#include <cstdint>
#include <map>
#include <vector>

#include "mem/page_table.hh"

namespace sentinel::testing {

class RefPageTable
{
  public:
    void
    mapRange(mem::PageId first, std::uint64_t count, mem::Tier tier)
    {
        for (std::uint64_t i = 0; i < count; ++i)
            pages_[first + i] = Page{ mem::PageEntry{ tier, false, tier, 0 },
                                      0 };
    }

    /** Remove [first, first+count), in flight or not.  @return the
     *  pages removed per resident tier and per in-flight destination. */
    mem::PageTable::UnmapCounts
    unmapRange(mem::PageId first, std::uint64_t count)
    {
        mem::PageTable::UnmapCounts out;
        for (std::uint64_t i = 0; i < count; ++i) {
            const mem::PageEntry &e = entry(first + i);
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
        return pages_.at(page).e;
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
     *  @p arrival0 + i * @p step.  @return the run's record. */
    std::uint64_t
    beginMigrationRun(mem::PageId first, std::uint64_t count,
                      mem::Tier dest, Tick arrival0, Tick step)
    {
        const std::uint64_t rec = records_.size();
        records_.push_back(Record{ first, count, 0 });
        for (std::uint64_t i = 0; i < count; ++i) {
            Page &pg = pages_.at(first + i);
            pg.e.in_flight = true;
            pg.e.dest = dest;
            pg.e.arrival = arrival0 + static_cast<Tick>(i) * step;
            pg.rec = rec;
        }
        return rec;
    }

    /** Commit the next @p n pages of record @p rec. */
    std::uint64_t
    commitMigrationRun(std::uint64_t rec, std::uint64_t n)
    {
        Record &r = records_.at(rec);
        std::uint64_t done = 0;
        for (std::uint64_t i = 0; i < n; ++i) {
            auto it = pages_.find(r.first + r.cursor + i);
            if (it == pages_.end() || !it->second.e.in_flight ||
                it->second.rec != rec)
                continue; // freed, or remapped and superseded
            it->second.e.tier = it->second.e.dest;
            it->second.e.in_flight = false;
            ++done;
        }
        r.cursor += n;
        return done;
    }

    std::size_t numMapped() const { return pages_.size(); }

    std::size_t
    numInFlight() const
    {
        std::size_t n = 0;
        for (const auto &kv : pages_)
            n += kv.second.e.in_flight ? 1 : 0;
        return n;
    }

    /** Records whose commits have not passed their last page. */
    std::size_t
    numFlights() const
    {
        std::size_t n = 0;
        for (const Record &r : records_)
            n += r.cursor < r.count ? 1 : 0;
        return n;
    }

    /** Drop every page and record. */
    void
    clear()
    {
        pages_.clear();
        for (Record &r : records_)
            r.cursor = r.count;
    }

  private:
    struct Page {
        mem::PageEntry e;
        std::uint64_t rec = 0; ///< record, while in flight
    };
    struct Record {
        mem::PageId first = 0;
        std::uint64_t count = 0;
        std::uint64_t cursor = 0; ///< pages commits have passed
    };

    std::map<mem::PageId, Page> pages_;
    std::vector<Record> records_; ///< indexed by record, never reused
};

} // namespace sentinel::testing

#endif // SENTINEL_TESTS_SUPPORT_REF_PAGE_TABLE_HH
