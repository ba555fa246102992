#include <vector>

#include <gtest/gtest.h>

#include "sim/bandwidth_channel.hh"

namespace sentinel::sim {
namespace {

TEST(BandwidthChannel, SingleTransferTiming)
{
    // 1 GB/s, no startup: 1 MB takes ~1 ms.
    BandwidthChannel ch("t", 1e9);
    Tick done = ch.submit(0, 1'000'000);
    EXPECT_EQ(done, 1'000'000); // 1e6 ns
    EXPECT_EQ(ch.bytesTransferred(), 1'000'000u);
    EXPECT_EQ(ch.numTransfers(), 1u);
}

TEST(BandwidthChannel, TransfersSerialize)
{
    BandwidthChannel ch("t", 1e9);
    Tick first = ch.submit(0, 1'000'000);
    // Second submitted while the first is still running queues behind it.
    Tick second = ch.submit(0, 1'000'000);
    EXPECT_EQ(second, first + 1'000'000);
    EXPECT_EQ(ch.busyUntil(), second);
}

TEST(BandwidthChannel, IdleGapRespectsReadyTime)
{
    BandwidthChannel ch("t", 1e9);
    ch.submit(0, 1000);
    Tick done = ch.submit(10'000'000, 1000);
    // Starts at ready time, not at busyUntil.
    EXPECT_EQ(done, 10'000'000 + 1000);
}

TEST(BandwidthChannel, StartupLatencyCharged)
{
    BandwidthChannel ch("t", 1e9, 500);
    Tick done = ch.submit(0, 1000);
    EXPECT_EQ(done, 500 + 1000);
    // Estimation matches submission for the same state.
    BandwidthChannel ch2("t2", 1e9, 500);
    EXPECT_EQ(ch2.estimateCompletion(0, 1000), done);
}

TEST(BandwidthChannel, EstimateDoesNotMutate)
{
    BandwidthChannel ch("t", 1e9);
    Tick est = ch.estimateCompletion(0, 1'000'000);
    EXPECT_EQ(ch.busyUntil(), 0);
    EXPECT_EQ(ch.bytesTransferred(), 0u);
    EXPECT_EQ(ch.submit(0, 1'000'000), est);
}

TEST(BandwidthChannel, BusyTimeAccumulates)
{
    BandwidthChannel ch("t", 1e9, 100);
    ch.submit(0, 1000);
    ch.submit(50'000, 1000);
    EXPECT_EQ(ch.busyTime(), 2 * (100 + 1000));
}

TEST(BandwidthChannel, ResetClearsState)
{
    BandwidthChannel ch("t", 1e9);
    ch.submit(0, 12345);
    ch.reset();
    EXPECT_EQ(ch.busyUntil(), 0);
    EXPECT_EQ(ch.bytesTransferred(), 0u);
    EXPECT_EQ(ch.numTransfers(), 0u);
    EXPECT_EQ(ch.busyTime(), 0);
}

/** The per-transfer path: in.count submits, the first paying
 *  @p startup.  @return each completion. */
std::vector<Tick>
submitEach(BandwidthChannel &ch, const TransferSeries &in,
           std::uint64_t bytes, Tick startup)
{
    std::vector<Tick> out;
    for (std::uint64_t k = 0; k < in.count; ++k)
        out.push_back(ch.submitWithStartup(in.at(k), bytes, k ? 0 : startup));
    return out;
}

std::vector<Tick>
expand(const std::vector<TransferSeries> &pieces)
{
    std::vector<Tick> out;
    for (const TransferSeries &p : pieces)
        for (std::uint64_t k = 0; k < p.count; ++k)
            out.push_back(p.at(k));
    return out;
}

TEST(BandwidthChannel, SeriesMatchesPerTransferSubmits)
{
    // 4 KiB at 1 GB/s: tt = 4096.  Input spacing below, at and above
    // tt; an idle channel and one busy far past the first ready tick
    // (a queue-limited transient before the input's pace takes over).
    const std::uint64_t bytes = 4096;
    for (Tick step : { 0, 1000, 4096, 4097, 5000, 12000 })
        for (Tick busy : { 0, 20'000, 400'000 })
            for (Tick startup : { 0, 777 })
                for (std::uint64_t n : { 1, 2, 7, 64, 300 })
                    for (Tick first : { 0, 30'000 }) {
                        SCOPED_TRACE(::testing::Message()
                                     << "step " << step << " busy " << busy
                                     << " startup " << startup << " n "
                                     << n << " first " << first);
                        BandwidthChannel a("a", 1e9), b("b", 1e9);
                        a.blockUntil(busy);
                        b.blockUntil(busy);
                        const TransferSeries in{ first, step, n };
                        std::vector<TransferSeries> pieces;
                        a.submitSeries(in, bytes, startup, pieces);
                        EXPECT_LE(pieces.size(), 2u);
                        EXPECT_EQ(expand(pieces),
                                  submitEach(b, in, bytes, startup));
                        EXPECT_EQ(a.busyUntil(), b.busyUntil());
                        EXPECT_EQ(a.bytesTransferred(), b.bytesTransferred());
                        EXPECT_EQ(a.numTransfers(), b.numTransfers());
                        EXPECT_EQ(a.busyTime(), b.busyTime());
                    }
}

TEST(BandwidthChannel, SeriesSwitchesFromQueuePaceToInputPace)
{
    // Busy until 40960; inputs every 8192 from 0.  The backlog drains
    // at tt = 4096 per transfer until the input catches up at k = 10,
    // then transfers leave 4096 after they become ready.
    BandwidthChannel ch("t", 1e9);
    ch.blockUntil(40'960);
    std::vector<TransferSeries> out;
    ch.submitSeries({ 0, 8192, 16 }, 4096, 0, out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].first, 45'056);
    EXPECT_EQ(out[0].step, 4096);
    EXPECT_EQ(out[0].count, 10u);
    EXPECT_EQ(out[1].first, 10 * 8192 + 4096);
    EXPECT_EQ(out[1].step, 8192);
    EXPECT_EQ(out[1].count, 6u);
    EXPECT_EQ(ch.busyUntil(), 15 * 8192 + 4096);
    EXPECT_EQ(ch.numTransfers(), 16u);
    EXPECT_EQ(ch.busyTime(), 40'960 + 16 * 4096);
}

TEST(BandwidthChannel, StagedSeriesMatchesPerTransferLegs)
{
    // Three legs of different pace fed piece by piece, against the
    // page-at-a-time walk: each transfer crosses all legs in turn.
    const double bw[] = { 2e9, 0.5e9, 1.3e9 };
    const Tick startup[] = { 500, 0, 123 };
    for (Tick busy : { 0, 90'000 }) {
        std::vector<BandwidthChannel> a, b;
        for (int l = 0; l < 3; ++l) {
            a.emplace_back("a", bw[l]);
            b.emplace_back("b", bw[l]);
            a.back().blockUntil(busy * l);
            b.back().blockUntil(busy * l);
        }
        std::vector<TransferSeries> in{ { 1000, 0, 50 } }, out;
        for (int l = 0; l < 3; ++l) {
            out.clear();
            Tick st = startup[l];
            for (const TransferSeries &piece : in) {
                a[l].submitSeries(piece, 4096, st, out);
                st = 0;
            }
            in.swap(out);
        }
        std::vector<Tick> want;
        for (int k = 0; k < 50; ++k) {
            Tick t = 1000;
            for (int l = 0; l < 3; ++l)
                t = b[l].submitWithStartup(t, 4096, k ? 0 : startup[l]);
            want.push_back(t);
        }
        EXPECT_EQ(expand(in), want);
        for (int l = 0; l < 3; ++l) {
            EXPECT_EQ(a[l].busyUntil(), b[l].busyUntil());
            EXPECT_EQ(a[l].busyTime(), b[l].busyTime());
        }
    }
}

TEST(BandwidthChannel, SpacedSeriesMatchesPerTransferSubmits)
{
    // 4 KiB at 1 GB/s: tt = 4096.  Spacing exactly startup + tt (each
    // transfer ready the tick its predecessor finishes) and wider; the
    // channel idle at the first ready tick, or busy up to it exactly.
    const std::uint64_t bytes = 4096;
    for (Tick startup : { 0, 777 })
        for (Tick slack : { 0, 1, 9000 })
            for (Tick busy : { 0, 30'000 })
                for (std::uint64_t n : { 1, 2, 7, 300 }) {
                    SCOPED_TRACE(::testing::Message()
                                 << "startup " << startup << " slack "
                                 << slack << " busy " << busy << " n "
                                 << n);
                    BandwidthChannel a("a", 1e9), b("b", 1e9);
                    a.blockUntil(busy);
                    b.blockUntil(busy);
                    const TransferSeries in{ 30'000, startup + 4096 + slack,
                                             n };
                    const TransferSeries got = a.submitSpaced(in, bytes,
                                                              startup);
                    std::vector<Tick> want;
                    for (std::uint64_t k = 0; k < n; ++k)
                        want.push_back(
                            b.submitWithStartup(in.at(k), bytes, startup));
                    EXPECT_EQ(expand({ got }), want);
                    EXPECT_EQ(a.busyUntil(), b.busyUntil());
                    EXPECT_EQ(a.bytesTransferred(), b.bytesTransferred());
                    EXPECT_EQ(a.numTransfers(), b.numTransfers());
                    EXPECT_EQ(a.busyTime(), b.busyTime());
                }
}

TEST(BandwidthChannel, SpacedSeriesThatWouldQueuePanics)
{
    // Busy past the first ready tick, or spaced tighter than
    // startup + tt: a transfer would queue, which the closed form
    // does not model.
    BandwidthChannel busy("busy", 1e9);
    busy.blockUntil(10'001);
    EXPECT_THROW(busy.submitSpaced({ 10'000, 5000, 3 }, 4096, 0),
                 std::logic_error);
    BandwidthChannel tight("tight", 1e9);
    EXPECT_THROW(tight.submitSpaced({ 0, 4096 + 99, 3 }, 4096, 100),
                 std::logic_error);
}

TEST(BandwidthChannel, ZeroBandwidthPanics)
{
    EXPECT_THROW(BandwidthChannel("bad", 0.0), std::logic_error);
}

} // namespace
} // namespace sentinel::sim
