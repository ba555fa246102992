#include "profile/serialize.hh"

#include <cmath>
#include <fstream>
#include <sstream>

#include "common/logging.hh"

namespace sentinel::prof {

namespace {

constexpr const char *kMagic = "sentinel-profile";
constexpr int kVersion = 1;

// A profile file is untrusted input.  These bounds sit far above any
// model the simulator builds.  They keep a corrupt header from sizing
// the database past memory, and the planner's per-step sums of layer
// times and tensor bytes inside their integer types.
constexpr int kMaxLayers = 1 << 20;
constexpr std::size_t kMaxTensors = std::size_t{ 1 } << 22;
/** Per-layer time bound: about 18 simulated minutes. */
constexpr Tick kMaxLayerTime = Tick{ 1 } << 40;
/** Every tensor together fits the page table's 256 TiB of pages. */
constexpr std::uint64_t kMaxTotalBytes = std::uint64_t{ 1 } << 48;
constexpr int kMaxKind = static_cast<int>(df::TensorKind::Optimizer);

bool
validLayerTime(Tick t)
{
    return t >= 0 && t <= kMaxLayerTime;
}

} // namespace

bool
saveProfile(const ProfileDatabase &db, std::ostream &os)
{
    os << kMagic << " " << kVersion << "\n";
    os << "graph " << db.graphName() << "\n";
    os << "layers " << db.numLayers() << "\n";
    os << "tensors " << db.numTensors() << "\n";
    os << "sl_peak " << db.shortLivedPeakBytes() << "\n";

    for (int l = 0; l < db.numLayers(); ++l) {
        const LayerProfile &lp = db.layer(l);
        os << "L " << l << " " << lp.duration << " " << lp.compute << " "
           << lp.mem << "\n";
    }
    for (const TensorProfile &t : db.tensors()) {
        os << "T " << t.id << " " << t.bytes << " "
           << static_cast<int>(t.kind) << " " << (t.preallocated ? 1 : 0)
           << " " << t.first_layer << " " << t.last_layer << " "
           << (t.short_lived ? 1 : 0) << " " << (t.small ? 1 : 0) << " "
           << t.total_accesses << " " << t.accesses_per_page << " "
           << t.access_layers.size();
        for (int a : t.access_layers)
            os << " " << a;
        os << "\n";
    }
    os << "end\n";
    return static_cast<bool>(os);
}

bool
saveProfile(const ProfileDatabase &db, const std::string &path)
{
    std::ofstream os(path);
    return os && saveProfile(db, os);
}

ProfileDatabase
loadProfile(std::istream &is)
{
    std::string magic;
    int version = 0;
    is >> magic >> version;
    if (magic != kMagic)
        SENTINEL_FATAL("not a sentinel profile (magic '%s')",
                       magic.c_str());
    if (version != kVersion)
        SENTINEL_FATAL("profile version %d, expected %d", version,
                       kVersion);

    std::string key;
    std::string graph_name;
    int layers = 0;
    std::size_t tensors = 0;
    std::uint64_t sl_peak = 0;
    is >> key >> graph_name;
    SENTINEL_ASSERT(is && key == "graph", "malformed profile: missing "
                                          "graph");
    is >> key >> layers;
    SENTINEL_ASSERT(is && key == "layers" && layers > 0 &&
                        layers <= kMaxLayers,
                    "malformed profile: missing or out-of-range layers");
    is >> key >> tensors;
    SENTINEL_ASSERT(is && key == "tensors" && tensors <= kMaxTensors,
                    "malformed profile: missing or out-of-range tensors");
    is >> key >> sl_peak;
    SENTINEL_ASSERT(is && key == "sl_peak" && sl_peak <= kMaxTotalBytes,
                    "malformed profile: missing or out-of-range sl_peak");

    ProfileDatabase db(graph_name, layers, tensors);
    db.setShortLivedPeakBytes(sl_peak);

    // Records come in the order saveProfile() writes them: every layer,
    // then every tensor, each exactly once, then the end marker.
    for (int l = 0; l < layers; ++l) {
        int idx = -1;
        LayerProfile &lp = db.mutableLayer(l);
        is >> key >> idx >> lp.duration >> lp.compute >> lp.mem;
        SENTINEL_ASSERT(is && key == "L" && idx == l,
                        "malformed profile: expected layer record %d", l);
        SENTINEL_ASSERT(validLayerTime(lp.duration) &&
                            validLayerTime(lp.compute) &&
                            validLayerTime(lp.mem),
                        "profile layer %d: time out of range", l);
    }
    std::uint64_t total_bytes = 0;
    for (df::TensorId id = 0; id < tensors; ++id) {
        df::TensorId idx = 0;
        TensorProfile &t = db.mutableTensor(id);
        t.id = id;
        int kind = 0;
        int prealloc = 0;
        int short_lived = 0;
        int small = 0;
        std::size_t n = 0;
        is >> key >> idx >> t.bytes >> kind >> prealloc >> t.first_layer >>
            t.last_layer >> short_lived >> small >> t.total_accesses >>
            t.accesses_per_page >> n;
        SENTINEL_ASSERT(is && key == "T" && idx == id,
                        "malformed profile: expected tensor record %u", id);
        SENTINEL_ASSERT(kind >= 0 && kind <= kMaxKind,
                        "profile tensor %u: unknown kind %d", id, kind);
        SENTINEL_ASSERT(t.bytes <= kMaxTotalBytes - total_bytes,
                        "profile tensor %u: size out of range", id);
        total_bytes += t.bytes;
        SENTINEL_ASSERT(t.first_layer >= 0 &&
                            t.first_layer <= t.last_layer &&
                            t.last_layer < layers,
                        "profile tensor %u: lifetime [%d, %d] outside %d "
                        "layers",
                        id, t.first_layer, t.last_layer, layers);
        SENTINEL_ASSERT(std::isfinite(t.accesses_per_page) &&
                            t.accesses_per_page >= 0.0,
                        "profile tensor %u: bad hotness", id);
        SENTINEL_ASSERT(n <= static_cast<std::size_t>(layers),
                        "profile tensor %u: %zu access layers in a "
                        "%d-layer step",
                        id, n, layers);
        t.kind = static_cast<df::TensorKind>(kind);
        t.preallocated = prealloc != 0;
        t.short_lived = short_lived != 0;
        t.small = small != 0;
        // Access layers index per-layer arrays, and lookups binary-
        // search them: each must lie in the step, strictly ascending.
        t.access_layers.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
            const int lo = i == 0 ? 0 : t.access_layers[i - 1] + 1;
            is >> t.access_layers[i];
            SENTINEL_ASSERT(is && t.access_layers[i] >= lo &&
                                t.access_layers[i] < layers,
                            "profile tensor %u: access layers must ascend "
                            "within [0, %d)",
                            id, layers);
        }
    }
    is >> key;
    SENTINEL_ASSERT(is && key == "end", "truncated profile (no end marker)");
    return db;
}

ProfileDatabase
loadProfile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        SENTINEL_FATAL("cannot open profile '%s'", path.c_str());
    return loadProfile(is);
}

} // namespace sentinel::prof
