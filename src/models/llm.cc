#include "models/llm.hh"

#include "common/logging.hh"
#include "common/parse.hh"
#include "models/common.hh"

namespace sentinel::models {

using df::OpType;
using df::TensorId;

namespace {

constexpr char kPrefix[] = "llm:";
constexpr std::size_t kPrefixLen = sizeof(kPrefix) - 1;

// Bounds on every parameter: a hostile name cannot demand an absurd
// graph, and the fuzzer's shrinker stays inside them.
constexpr int kMaxLayers = 96;
constexpr int kMaxHidden = 16384;
constexpr int kMaxHeads = 128;
constexpr int kMaxSeq = 8192;
constexpr int kMaxVocab = 262144;

/** Apply one "k=v" override; false on unknown key or bad value. */
bool
applyOverride(LlmParams &p, const std::string &key,
              const std::string &value)
{
    if (key == "l")
        return setIf(parseInt(value, 1, kMaxLayers), &p.layers);
    if (key == "hd")
        return setIf(parseInt(value, 8, kMaxHidden), &p.hidden);
    if (key == "heads")
        return setIf(parseInt(value, 1, kMaxHeads), &p.heads);
    if (key == "seq")
        return setIf(parseInt(value, 8, kMaxSeq), &p.seq);
    if (key == "vocab")
        return setIf(parseInt(value, 64, kMaxVocab), &p.vocab);
    return false;
}

} // namespace

std::optional<LlmParams>
LlmParams::fromPreset(const std::string &preset)
{
    LlmParams p;
    p.preset = preset;
    if (preset == "tiny") {
        p.layers = 4;
        p.hidden = 256;
        p.heads = 4;
        p.seq = 128;
        p.vocab = 8192;
    } else if (preset == "small") {
        p.layers = 8;
        p.hidden = 512;
        p.heads = 8;
        p.seq = 256;
        p.vocab = 16384;
    } else if (preset == "medium") {
        p.layers = 16;
        p.hidden = 1024;
        p.heads = 16;
        p.seq = 512;
        p.vocab = 32000;
    } else if (preset == "large") {
        p.layers = 24;
        p.hidden = 2048;
        p.heads = 16;
        p.seq = 1024;
        p.vocab = 32000;
    } else {
        return std::nullopt;
    }
    return p;
}

std::string
LlmParams::toName() const
{
    std::optional<LlmParams> d = fromPreset(preset);
    SENTINEL_ASSERT(d.has_value(), "unknown llm preset '%s'",
                    preset.c_str());
    std::string overrides;
    auto add = [&overrides](const std::string &clause) {
        overrides += overrides.empty() ? ":" : ",";
        overrides += clause;
    };
    if (layers != d->layers)
        add(strprintf("l=%d", layers));
    if (hidden != d->hidden)
        add(strprintf("hd=%d", hidden));
    if (heads != d->heads)
        add(strprintf("heads=%d", heads));
    if (seq != d->seq)
        add(strprintf("seq=%d", seq));
    if (vocab != d->vocab)
        add(strprintf("vocab=%d", vocab));
    return strprintf("llm:%s%s", preset.c_str(), overrides.c_str());
}

bool
isLlmName(const std::string &name)
{
    return name.rfind(kPrefix, 0) == 0;
}

std::optional<LlmParams>
tryParseLlmName(const std::string &name)
{
    if (!isLlmName(name))
        return std::nullopt;

    std::size_t preset_end = name.find(':', kPrefixLen);
    std::string preset = name.substr(
        kPrefixLen,
        preset_end == std::string::npos ? std::string::npos
                                        : preset_end - kPrefixLen);
    std::optional<LlmParams> p = LlmParams::fromPreset(preset);
    if (!p)
        return std::nullopt;

    if (preset_end != std::string::npos &&
        !applyOverrides(*p, name.substr(preset_end + 1), applyOverride))
        return std::nullopt;
    if (p->hidden % p->heads != 0)
        return std::nullopt;
    return p;
}

LlmParams
parseLlmName(const std::string &name)
{
    std::optional<LlmParams> p = tryParseLlmName(name);
    if (!p) {
        SENTINEL_FATAL("malformed llm model name '%s' (expected "
                       "llm:<preset>[:k=v,...] with preset "
                       "tiny|small|medium|large and keys "
                       "l,hd,heads,seq,vocab; heads must divide hd)",
                       name.c_str());
    }
    return *p;
}

df::Graph
buildLlm(const LlmParams &p, int batch)
{
    SENTINEL_ASSERT(batch > 0, "batch must be positive");
    SENTINEL_ASSERT(p.hidden % p.heads == 0,
                    "heads must divide hidden");

    ModelBuilder b(p.toName(), batch,
                   5000 + static_cast<std::uint64_t>(p.hidden));
    std::uint64_t bs = static_cast<std::uint64_t>(batch);
    std::uint64_t sq = static_cast<std::uint64_t>(p.seq);
    std::uint64_t hd = static_cast<std::uint64_t>(p.hidden);
    std::uint64_t vc = static_cast<std::uint64_t>(p.vocab);
    std::uint64_t rows = bs * sq;
    std::uint64_t act_bytes = fp32(rows * hd);

    TensorId ids = b.inputTensor("input_ids", 4 * rows);
    TensorId table = b.weight("embedding/table", fp32(vc * hd));

    // Embedding lookup: sparse gather over the big table — low
    // episodes-per-page, touching only the rows of this batch.
    b.beginLayer();
    TensorId emb = b.activation("embedding/out", act_bytes);
    b.op("embedding/gather", OpType::Embedding,
         static_cast<double>(rows) * hd,
         { ModelBuilder::read(ids, 4 * rows),
           df::TensorUse{ table, false, act_bytes, 0.25 },
           ModelBuilder::write(emb, act_bytes) });

    // Decoder stack: pre-norm attention + 4x FFN per block.  Every
    // block's saved activations survive to the backward pass, which is
    // what pushes the working set to LLM scale.
    TensorId act = emb;
    for (int l = 0; l < p.layers; ++l) {
        std::string pfx = "dec" + std::to_string(l);
        act = b.attentionUnit(pfx + "/attn", act, sq, hd,
                              static_cast<std::uint64_t>(p.heads));
        act = b.matmulUnit(pfx + "/ffn1", act, rows, hd, 4 * hd, true);
        act = b.matmulUnit(pfx + "/ffn2", act, rows, 4 * hd, hd, false);
    }

    // LM head over the full vocabulary: the logits tensor alone is
    // batch x seq x vocab — typically the largest activation in the
    // step, exactly as in real LLM training.
    TensorId logits = b.matmulUnit("lm_head", act, rows, hd, vc, false);
    TensorId grad = b.lossLayer(logits, fp32(rows * vc));
    b.buildBackward(grad);
    return b.finish();
}

} // namespace sentinel::models
