/**
 * @file
 * A serialized bandwidth link.
 *
 * Models one DMA-like channel: transfers queue behind each other and
 * each takes bytes/bandwidth time.  Sentinel's migration engine uses two
 * of these (one per direction, matching the paper's two helper threads);
 * the GPU configurations use them for the PCIe link.
 */

#ifndef SENTINEL_SIM_BANDWIDTH_CHANNEL_HH
#define SENTINEL_SIM_BANDWIDTH_CHANNEL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hh"

namespace sentinel::sim {

/**
 * Ticks of a run of transfers as an arithmetic series: transfer k of
 * the run is at first + k * step.  Used both for the times a run
 * becomes ready on a channel and for the times it completes there.
 */
struct TransferSeries {
    Tick first = 0;
    Tick step = 0;
    std::uint64_t count = 0;

    Tick at(std::uint64_t k) const
    {
        return first + static_cast<Tick>(k) * step;
    }
    Tick last() const { return at(count - 1); }
};

/** One serialized transfer link with busy-until semantics. */
class BandwidthChannel
{
  public:
    /**
     * @param name diagnostic name ("promote", "demote", "pcie-h2d"...).
     * @param bytes_per_sec link bandwidth.
     * @param startup_latency fixed per-transfer setup cost (e.g. the
     *        move_pages() syscall or a cudaMemcpyAsync launch).
     */
    BandwidthChannel(std::string name, double bytes_per_sec,
                     Tick startup_latency = 0);

    /**
     * Enqueue a transfer that may begin no earlier than @p ready.
     *
     * @return absolute completion time.
     */
    Tick submit(Tick ready, std::uint64_t bytes);

    /** submit() with an explicit setup cost (0 = batched continuation). */
    Tick submitWithStartup(Tick ready, std::uint64_t bytes,
                           Tick startup);

    /**
     * Enqueue @p in.count transfers of @p bytes each, transfer k ready
     * at in.at(k) (in.step >= 0), in order.  The first pays @p startup
     * and the rest stream: exactly in.count submitWithStartup() calls
     * (startup, 0, 0, ...), in O(1).  Completions are appended to
     * @p out as at most two arithmetic pieces, each merged into the
     * last piece of @p out when it continues that progression: while
     * the queue is the bottleneck transfers leave at the channel's own
     * pace, and once the input falls behind they leave at the input's
     * pace.
     */
    void submitSeries(const TransferSeries &in, std::uint64_t bytes,
                      Tick startup, std::vector<TransferSeries> &out);

    /**
     * Enqueue @p in.count transfers of @p bytes each, transfer k ready
     * at in.at(k), each paying @p startup, on a channel idle at
     * in.first and with transfers spaced at least startup + transfer
     * time apart: none ever queues, so this is exactly in.count
     * submitWithStartup(startup) calls, in O(1).
     *
     * @return the completions, {in.first + startup + tt, in.step, n}.
     */
    TransferSeries submitSpaced(const TransferSeries &in, std::uint64_t bytes,
                                Tick startup);

    /** Earliest time a new transfer submitted at @p ready could finish. */
    Tick estimateCompletion(Tick ready, std::uint64_t bytes) const;

    /** Time the channel becomes idle given everything submitted so far. */
    Tick busyUntil() const { return busy_until_; }

    /** Total payload bytes accepted. */
    std::uint64_t bytesTransferred() const { return bytes_transferred_; }

    /** Total number of submit() calls. */
    std::uint64_t numTransfers() const { return num_transfers_; }

    /** Accumulated busy time (transfer + startup). */
    Tick busyTime() const { return busy_time_; }

    double bandwidth() const { return bytes_per_sec_; }
    /** Setup cost submit() charges per transfer. */
    Tick startupLatency() const { return startup_latency_; }
    const std::string &name() const { return name_; }

    /**
     * Re-rate the link mid-run (fault injection / dynamic topology).
     * Only transfers submitted afterwards see the new rate; work already
     * queued keeps its completion time.
     */
    void setBandwidth(double bytes_per_sec);

    /**
     * Block the channel until at least @p until (one-shot outage).
     * Transfers already submitted keep their completion times (their
     * data is on the wire); new submissions queue behind the outage.
     * The blocked interval counts as busy time so utilisation stats
     * reflect it.
     */
    void blockUntil(Tick until);

    /** Forget queued work and stats (new experiment, same link). */
    void reset();

  private:
    std::string name_;
    double bytes_per_sec_;
    Tick startup_latency_;

    Tick busy_until_ = 0;
    std::uint64_t bytes_transferred_ = 0;
    std::uint64_t num_transfers_ = 0;
    Tick busy_time_ = 0;
};

} // namespace sentinel::sim

#endif // SENTINEL_SIM_BANDWIDTH_CHANNEL_HH
