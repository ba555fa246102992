#include <algorithm>
#include <exception>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/interval_planner.hh"
#include "core/migration_plan.hh"
#include "mem/hm.hh"
#include "profile/profiler.hh"
#include "profile/serialize.hh"
#include "support/test_graphs.hh"

namespace sentinel::prof {
namespace {

ProfileDatabase
profileToy()
{
    df::Graph g = sentinel::testing::makeToyGraph();
    mem::TierParams fast{ "dram", 64ull << 20, 50e9, 40e9, 80, 80 };
    mem::TierParams slow{ "pmm", 4ull << 30, 6e9, 2e9, 300, 100 };
    mem::HeterogeneousMemory hm({ fast, slow }, { { 4e9, 2e9, 2000 } });
    Profiler p;
    return std::move(p.profile(g, hm, df::ExecParams{}).db);
}

TEST(ProfileSerialize, RoundTripsExactly)
{
    ProfileDatabase db = profileToy();
    std::stringstream ss;
    ASSERT_TRUE(saveProfile(db, ss));
    ProfileDatabase loaded = loadProfile(ss);

    EXPECT_EQ(loaded.graphName(), db.graphName());
    EXPECT_EQ(loaded.numLayers(), db.numLayers());
    EXPECT_EQ(loaded.numTensors(), db.numTensors());
    EXPECT_EQ(loaded.shortLivedPeakBytes(), db.shortLivedPeakBytes());

    for (int l = 0; l < db.numLayers(); ++l) {
        EXPECT_EQ(loaded.layer(l).duration, db.layer(l).duration);
        EXPECT_EQ(loaded.layer(l).compute, db.layer(l).compute);
        EXPECT_EQ(loaded.layer(l).mem, db.layer(l).mem);
    }
    for (df::TensorId id = 0; id < db.numTensors(); ++id) {
        const TensorProfile &a = db.tensor(id);
        const TensorProfile &b = loaded.tensor(id);
        EXPECT_EQ(a.bytes, b.bytes);
        EXPECT_EQ(a.kind, b.kind);
        EXPECT_EQ(a.preallocated, b.preallocated);
        EXPECT_EQ(a.first_layer, b.first_layer);
        EXPECT_EQ(a.last_layer, b.last_layer);
        EXPECT_EQ(a.short_lived, b.short_lived);
        EXPECT_EQ(a.small, b.small);
        EXPECT_EQ(a.total_accesses, b.total_accesses);
        EXPECT_DOUBLE_EQ(a.accesses_per_page, b.accesses_per_page);
        EXPECT_EQ(a.access_layers, b.access_layers);
    }
}

TEST(ProfileSerialize, LoadedProfileDrivesTheSameQueries)
{
    ProfileDatabase db = profileToy();
    std::stringstream ss;
    saveProfile(db, ss);
    ProfileDatabase loaded = loadProfile(ss);

    EXPECT_EQ(loaded.longLivedAccessedIn(0, 2),
              db.longLivedAccessedIn(0, 2));
    EXPECT_EQ(loaded.longLivedBytesAccessedIn(2, 4),
              db.longLivedBytesAccessedIn(2, 4));
    EXPECT_EQ(loaded.largestLongLivedBytes(), db.largestLongLivedBytes());
    EXPECT_EQ(loaded.layerSpanTime(0, 4), db.layerSpanTime(0, 4));
}

TEST(ProfileSerialize, FileRoundTrip)
{
    ProfileDatabase db = profileToy();
    std::string path = ::testing::TempDir() + "/toy.sentinel-profile";
    ASSERT_TRUE(saveProfile(db, path));
    ProfileDatabase loaded = loadProfile(path);
    EXPECT_EQ(loaded.numTensors(), db.numTensors());
}

TEST(ProfileSerialize, RejectsGarbage)
{
    std::stringstream ss("not-a-profile 1\n");
    EXPECT_THROW(loadProfile(ss), std::runtime_error);
}

TEST(ProfileSerialize, RejectsWrongVersion)
{
    std::stringstream ss("sentinel-profile 999\n");
    EXPECT_THROW(loadProfile(ss), std::runtime_error);
}

TEST(ProfileSerialize, RejectsTruncation)
{
    ProfileDatabase db = profileToy();
    std::stringstream ss;
    saveProfile(db, ss);
    std::string text = ss.str();
    std::stringstream cut(text.substr(0, text.size() / 2));
    EXPECT_THROW(loadProfile(cut), FatalError);
}

TEST(ProfileSerialize, MissingFileIsFatal)
{
    EXPECT_THROW(loadProfile(std::string("/nonexistent/profile")),
                 std::runtime_error);
}

// ----------------------------------------------- untrusted profile files

using Record = std::vector<std::string>;

/** The toy profile as records of whitespace-separated tokens.  It has
 *  4 layers and 8 tensors; tensor 3 is accessed in layers 0, 1, 3. */
std::vector<Record>
toyRecords()
{
    std::stringstream ss;
    saveProfile(profileToy(), ss);
    std::vector<Record> out;
    std::string line;
    while (std::getline(ss, line)) {
        std::istringstream ls(line);
        Record r;
        for (std::string tok; ls >> tok;)
            r.push_back(tok);
        out.push_back(std::move(r));
    }
    return out;
}

std::string
join(const std::vector<Record> &recs)
{
    std::string text;
    for (const Record &r : recs) {
        for (const std::string &tok : r)
            text += tok + " ";
        text += "\n";
    }
    return text;
}

/** Index of the record whose first two tokens are @p key @p id. */
std::size_t
find(const std::vector<Record> &recs, const std::string &key,
     const std::string &id)
{
    for (std::size_t i = 0; i < recs.size(); ++i)
        if (recs[i].size() > 1 && recs[i][0] == key && recs[i][1] == id)
            return i;
    ADD_FAILURE() << "no record " << key << " " << id;
    return 0;
}

/** Token positions of a T record. */
enum TensorField : std::size_t {
    kBytes = 2,
    kKind = 3,
    kFirst = 5,
    kLast = 6,
    kHotness = 10,
    kCount = 11,
    kAccess = 12,
};

/** Load the toy profile with token @p field of record (@p key, @p id)
 *  replaced by @p value. */
void
loadEdited(const std::string &key, const std::string &id,
           std::size_t field, const std::string &value)
{
    std::vector<Record> recs = toyRecords();
    recs[find(recs, key, id)].at(field) = value;
    std::stringstream ss(join(recs));
    loadProfile(ss);
}

TEST(ProfileSerialize, EditedCopyOfAValidProfileLoads)
{
    // The edit helpers themselves produce loadable text.
    EXPECT_NO_THROW(loadEdited("T", "3", kBytes, "4096"));
}

TEST(ProfileSerialize, RejectsLifetimeOutsideTheStep)
{
    EXPECT_THROW(loadEdited("T", "3", kFirst, "-1"), FatalError);
    EXPECT_THROW(loadEdited("T", "3", kLast, "4"), FatalError);
    EXPECT_THROW(loadEdited("T", "4", kFirst, "3"), FatalError);
}

TEST(ProfileSerialize, RejectsAccessLayerOutsideTheStep)
{
    // The access list indexes per-layer planner arrays.
    EXPECT_THROW(loadEdited("T", "3", kAccess + 2, "400000"),
                 FatalError);
    EXPECT_THROW(loadEdited("T", "3", kAccess, "-1"), FatalError);
}

TEST(ProfileSerialize, RejectsAccessLayersThatDoNotAscend)
{
    // Lookups binary-search the list.
    EXPECT_THROW(loadEdited("T", "3", kAccess + 1, "3"), FatalError);
    EXPECT_THROW(loadEdited("T", "3", kAccess + 1, "0"), FatalError);
}

TEST(ProfileSerialize, RejectsAccessListLongerThanTheStep)
{
    // Checked before the list is sized, so a huge count allocates
    // nothing.
    EXPECT_THROW(loadEdited("T", "3", kCount, "5"), FatalError);
    EXPECT_THROW(loadEdited("T", "3", kCount, "9223372036854775808"),
                 FatalError);
}

TEST(ProfileSerialize, RejectsUnknownTensorKind)
{
    EXPECT_THROW(loadEdited("T", "3", kKind, "7"), FatalError);
    EXPECT_THROW(loadEdited("T", "3", kKind, "-1"), FatalError);
}

TEST(ProfileSerialize, RejectsUnparsableField)
{
    // Every record's stream state is checked, not just its keys.
    EXPECT_THROW(loadEdited("T", "3", kBytes, "lots"), FatalError);
    EXPECT_THROW(loadEdited("T", "3", kFirst, "2147483648"),
                 FatalError);
    EXPECT_THROW(loadEdited("L", "2", 3, "layers"), FatalError);
    // A short access list runs into the next record's key.
    EXPECT_THROW(loadEdited("T", "3", kCount, "4"), FatalError);
}

TEST(ProfileSerialize, RejectsOutOfRangeSizesAndTimes)
{
    EXPECT_THROW(loadEdited("T", "3", kBytes, "-1"), FatalError);
    EXPECT_THROW(loadEdited("T", "3", kHotness, "-1"), FatalError);
    EXPECT_THROW(loadEdited("L", "2", 2, "-1"), FatalError);
    EXPECT_THROW(loadEdited("L", "2", 4, "9223372036854775807"),
                 FatalError);
}

TEST(ProfileSerialize, RejectsOutOfRangeHeaderCounts)
{
    EXPECT_THROW(loadEdited("layers", "4", 1, "2147483648"),
                 FatalError);
    EXPECT_THROW(loadEdited("tensors", "8", 1, "9223372036854775808"),
                 FatalError);
    EXPECT_THROW(loadEdited("tensors", "8", 1, "-1"), FatalError);
}

TEST(ProfileSerialize, RejectsRecordsOutOfOrder)
{
    // Every layer and tensor record, once each, in saveProfile() order.
    std::vector<Record> recs = toyRecords();
    std::vector<Record> dup = recs;
    dup[find(dup, "T", "5")] = recs[find(recs, "T", "3")];
    std::stringstream a(join(dup));
    EXPECT_THROW(loadProfile(a), FatalError);

    std::vector<Record> gap = recs;
    gap.erase(gap.begin() + static_cast<long>(find(gap, "L", "1")));
    std::stringstream b(join(gap));
    EXPECT_THROW(loadProfile(b), FatalError);

    std::vector<Record> swapped = recs;
    std::swap(swapped[find(swapped, "T", "1")],
              swapped[find(swapped, "T", "2")]);
    std::stringstream c(join(swapped));
    EXPECT_THROW(loadProfile(c), FatalError);
}

TEST(ProfileSerialize, SeededTokenMutationsAreRejectedOrPlannable)
{
    // Each trial applies one to three seeded edits to a saved profile:
    // a token replaced by -1, "layers", 2^31 or 2^63, a token dropped,
    // or two records swapped.  A load must either throw or yield a
    // database both planners consume.
    const std::vector<Record> base = toyRecords();
    const char *const kValues[] = { "-1", "layers", "2147483648",
                                    "9223372036854775808" };
    Rng rng(0x9a7f11e5ull);
    int loaded = 0;
    int rejected = 0;
    for (int trial = 0; trial < 400; ++trial) {
        std::vector<Record> recs = base;
        const int edits = static_cast<int>(rng.uniformInt(1, 3));
        for (int e = 0; e < edits; ++e) {
            Record &r = recs[static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(recs.size()) - 1))];
            if (r.empty())
                continue;
            const auto tok = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(r.size()) - 1));
            switch (rng.uniformInt(0, 2)) {
              case 0:
                r[tok] = kValues[rng.uniformInt(0, 3)];
                break;
              case 1:
                r.erase(r.begin() + static_cast<long>(tok));
                break;
              default:
                std::swap(r, recs[static_cast<std::size_t>(rng.uniformInt(
                                  0, static_cast<std::int64_t>(
                                         recs.size()) - 1))]);
                break;
            }
        }
        std::stringstream ss(join(recs));
        std::unique_ptr<ProfileDatabase> db;
        try {
            db = std::make_unique<ProfileDatabase>(loadProfile(ss));
        } catch (const std::exception &) {
            ++rejected;
            continue;
        }
        ++loaded;
        SCOPED_TRACE(::testing::Message() << "trial " << trial << "\n"
                                          << join(recs));
        core::PlannerInputs in;
        in.db = db.get();
        in.fast_capacity = 64ull << 20;
        in.promote_bw = 4e9;
        in.fast_read_bw = 50e9;
        in.slow_read_bw = 6e9;
        EXPECT_NO_THROW({
            core::IntervalPlanner planner(in);
            core::PlannerResult pr = planner.plan(in.fast_capacity / 2);
            core::buildMigrationPlan(*db, pr.best.mil);
            core::buildMigrationPlan(
                *db, planner.dynamicBoundaries(pr.rs_bytes));
        });
    }
    EXPECT_GT(loaded, 0);
    EXPECT_GT(rejected, 0);
}

} // namespace
} // namespace sentinel::prof
