#include "models/synthetic.hh"

#include <map>
#include <mutex>
#include <vector>

#include "common/logging.hh"
#include "common/parse.hh"
#include "common/rng.hh"
#include "models/common.hh"

namespace sentinel::models {

using df::OpType;
using df::TensorId;

namespace {

constexpr char kPrefix[] = "synthetic:";
constexpr std::size_t kPrefixLen = sizeof(kPrefix) - 1;

// Bounds on every parameter: the fuzzer explores inside them, the
// parser rejects outside them, so a hostile name cannot demand an
// absurd graph.
constexpr int kMaxUnits = 64;
constexpr int kMaxImage = 256;
constexpr int kMaxChannels = 1024;
constexpr int kMaxFeatures = 65536;
constexpr int kMaxTemps = 64;

/** Apply one "k=v" override; false on unknown key or bad value. */
bool
applyOverride(SyntheticParams &p, const std::string &key,
              const std::string &value)
{
    if (key == "cu")
        return setIf(parseInt(value, 0, kMaxUnits), &p.conv_units);
    if (key == "mu")
        return setIf(parseInt(value, 0, kMaxUnits), &p.mlp_units);
    if (key == "img")
        return setIf(parseInt(value, 4, kMaxImage), &p.image);
    if (key == "ch")
        return setIf(parseInt(value, 1, kMaxChannels), &p.channels);
    if (key == "feat")
        return setIf(parseInt(value, 1, kMaxFeatures), &p.features);
    if (key == "bp")
        return setIf(parseReal(value, 0.0, 1.0), &p.branch_prob);
    if (key == "rd")
        return setIf(parseInt(value, 1, kMaxUnits), &p.reuse_distance);
    if (key == "tmp")
        return setIf(parseInt(value, 0, kMaxTemps), &p.temps_per_op);
    return false;
}

/** Residual-style join appended to the current layer: reads the unit
 *  output plus an earlier same-shape activation (fan-out; extends the
 *  shortcut's lifetime across layers). */
TensorId
joinActivations(ModelBuilder &b, const std::string &prefix, TensorId main,
                TensorId shortcut, std::uint64_t bytes)
{
    TensorId out = b.activation(prefix + "/join_out", bytes);
    b.op(prefix + "/join", OpType::EltwiseAdd,
         static_cast<double>(bytes) / 2.0,
         { ModelBuilder::read(main, bytes),
           ModelBuilder::read(shortcut, bytes),
           ModelBuilder::write(out, bytes) });
    return out;
}

struct UnitOutput {
    TensorId tensor;
    std::uint64_t bytes;
};

/** Oldest same-shape activation within @p distance units back, or
 *  kInvalidTensor — "oldest" maximizes the realized reuse distance. */
TensorId
findJoinTarget(const std::vector<UnitOutput> &history, int distance,
               std::uint64_t bytes)
{
    std::size_t n = history.size();
    std::size_t first =
        n > static_cast<std::size_t>(distance)
            ? n - static_cast<std::size_t>(distance)
            : 0;
    for (std::size_t i = first; i < n; ++i)
        if (history[i].bytes == bytes)
            return history[i].tensor;
    return df::kInvalidTensor;
}

} // namespace

SyntheticParams
SyntheticParams::fromSeed(std::uint64_t seed)
{
    // One fixed draw order; any change re-shapes every seeded model,
    // so treat this sequence as part of the corpus format.
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x5e97195eull);
    SyntheticParams p;
    p.seed = seed;
    p.conv_units = static_cast<int>(rng.uniformInt(0, 8));
    p.mlp_units = static_cast<int>(rng.uniformInt(0, 4));
    if (p.conv_units == 0 && p.mlp_units == 0)
        p.mlp_units = 1;
    p.image = 8 << rng.uniformInt(0, 2);
    p.channels = static_cast<int>(rng.uniformInt(4, 32));
    p.features = 64 << rng.uniformInt(0, 4);
    p.branch_prob = rng.uniformReal(0.0, 0.6);
    p.reuse_distance = static_cast<int>(rng.uniformInt(1, 4));
    p.temps_per_op = static_cast<int>(rng.uniformInt(2, 10));
    return p;
}

std::string
SyntheticParams::toName() const
{
    SyntheticParams d = fromSeed(seed);
    std::string overrides;
    auto add = [&overrides](const std::string &clause) {
        overrides += overrides.empty() ? ":" : ",";
        overrides += clause;
    };
    if (conv_units != d.conv_units)
        add(strprintf("cu=%d", conv_units));
    if (mlp_units != d.mlp_units)
        add(strprintf("mu=%d", mlp_units));
    if (image != d.image)
        add(strprintf("img=%d", image));
    if (channels != d.channels)
        add(strprintf("ch=%d", channels));
    if (features != d.features)
        add(strprintf("feat=%d", features));
    if (branch_prob != d.branch_prob)
        add(strprintf("bp=%g", branch_prob));
    if (reuse_distance != d.reuse_distance)
        add(strprintf("rd=%d", reuse_distance));
    if (temps_per_op != d.temps_per_op)
        add(strprintf("tmp=%d", temps_per_op));
    return strprintf("synthetic:%llu%s",
                     static_cast<unsigned long long>(seed),
                     overrides.c_str());
}

bool
isSyntheticName(const std::string &name)
{
    return name.rfind(kPrefix, 0) == 0;
}

std::optional<SyntheticParams>
tryParseSyntheticName(const std::string &name)
{
    if (!isSyntheticName(name))
        return std::nullopt;

    std::size_t seed_end = name.find(':', kPrefixLen);
    std::string seed_str = name.substr(
        kPrefixLen,
        seed_end == std::string::npos ? std::string::npos
                                      : seed_end - kPrefixLen);
    const std::optional<std::uint64_t> seed =
        parseInt(seed_str, std::uint64_t{ 0 }, ~std::uint64_t{ 0 });
    if (!seed)
        return std::nullopt;

    SyntheticParams p = SyntheticParams::fromSeed(*seed);
    if (seed_end != std::string::npos &&
        !applyOverrides(p, name.substr(seed_end + 1), applyOverride))
        return std::nullopt;
    if (p.conv_units + p.mlp_units < 1)
        return std::nullopt;
    return p;
}

SyntheticParams
parseSyntheticName(const std::string &name)
{
    std::optional<SyntheticParams> p = tryParseSyntheticName(name);
    if (!p) {
        SENTINEL_FATAL("malformed synthetic model name '%s' (expected "
                       "synthetic:<seed>[:k=v,...] with keys "
                       "cu,mu,img,ch,feat,bp,rd,tmp)",
                       name.c_str());
    }
    return *p;
}

df::Graph
buildSynthetic(const SyntheticParams &p, int batch)
{
    SENTINEL_ASSERT(batch > 0, "batch must be positive");
    SENTINEL_ASSERT(p.conv_units + p.mlp_units >= 1,
                    "synthetic model needs at least one unit");

    // The builder RNG sizes the per-op scratch; the structure RNG
    // decides branching.  Both derive from the seed alone so the same
    // name always yields the same graph.
    ModelBuilder b(p.toName(), batch, p.seed ^ 0xab54a98ceb1f0ad2ull);
    b.setDefaultTemps(p.temps_per_op);
    Rng structure(p.seed * 0x100000001b3ull + 7);

    std::uint64_t bsz = static_cast<std::uint64_t>(batch);
    TensorId input = b.inputTensor(
        "input", fp32(bsz * 3 *
                      static_cast<std::uint64_t>(p.image) * p.image));

    TensorId act = input;
    std::uint64_t in_features =
        3ull * static_cast<std::uint64_t>(p.image) * p.image;

    // --- Convolutional stage (downsample + widen once, mid-stage) ----
    if (p.conv_units > 0) {
        std::vector<UnitOutput> history;
        int h = p.image;
        int cin = 3;
        int ch = p.channels;
        for (int u = 0; u < p.conv_units; ++u) {
            int stride = 1;
            int cout = ch;
            if (p.conv_units >= 2 && u == p.conv_units / 2 && h >= 8) {
                stride = 2;
                cout = ch * 2;
            }
            std::string pfx = "cu" + std::to_string(u);
            act = b.convUnit(pfx, act, cin, cout, 3, h, h, stride);
            h = b.outH(h, stride);
            cin = cout;
            ch = cout;
            std::uint64_t bytes =
                fp32(bsz * static_cast<std::uint64_t>(cout) * h * h);
            // Drawn unconditionally so the stream does not depend on
            // whether a join target happened to exist.
            bool want_join = structure.bernoulli(p.branch_prob);
            TensorId target =
                findJoinTarget(history, p.reuse_distance, bytes);
            if (want_join && target != df::kInvalidTensor)
                act = joinActivations(b, pfx, act, target, bytes);
            history.push_back({ act, bytes });
        }

        // Global average pool bridges into the mlp stage / classifier
        // (keeps fc weights bounded regardless of conv geometry).
        b.beginLayer();
        std::uint64_t feat_bytes =
            fp32(bsz * static_cast<std::uint64_t>(cin));
        TensorId pooled = b.activation("pool/out", feat_bytes);
        b.op("pool/gap", OpType::Pool,
             static_cast<double>(bsz) * cin * h * h,
             { ModelBuilder::read(
                   act, fp32(bsz * static_cast<std::uint64_t>(cin) * h *
                             h)),
               ModelBuilder::write(pooled, feat_bytes) });
        act = pooled;
        in_features = static_cast<std::uint64_t>(cin);
    }

    // --- Fully-connected stage ---------------------------------------
    {
        std::vector<UnitOutput> history;
        std::uint64_t width = static_cast<std::uint64_t>(p.features);
        for (int u = 0; u < p.mlp_units; ++u) {
            std::string pfx = "mu" + std::to_string(u);
            act = b.matmulUnit(pfx, act, bsz, in_features, width);
            in_features = width;
            std::uint64_t bytes = fp32(bsz * width);
            bool want_join = structure.bernoulli(p.branch_prob);
            TensorId target =
                findJoinTarget(history, p.reuse_distance, bytes);
            if (want_join && target != df::kInvalidTensor)
                act = joinActivations(b, pfx, act, target, bytes);
            history.push_back({ act, bytes });
        }
    }

    TensorId logits = b.matmulUnit("fc", act, bsz, in_features, 10,
                                   /*activation_fn=*/false);
    TensorId grad = b.lossLayer(logits, fp32(bsz * 10));
    b.buildBackward(grad);
    return b.finish();
}

} // namespace sentinel::models
