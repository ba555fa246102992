/**
 * @file
 * The model-builder toolkit.
 *
 * Model builders emit training-step graphs whose *memory behaviour*
 * matches the paper's characterization (Sec. III):
 *
 *  - every operation spawns a handful of small short-lived temporaries
 *    (padding/transpose/shape scratch) -> Observation 1's "large
 *    number of small, short-lived tensors";
 *  - small parameters (batch-norm scale/bias, biases) and a few
 *    runtime bookkeeping scalars are touched by many operations ->
 *    Observation 2's tiny set of hot (>100 access) tensors;
 *  - large activations stream once per use -> the cold majority;
 *  - weights sit in between (reused within fwd/bwd/update).
 *
 * The builder also records "units" (conv block, matmul block, ...) so
 * that a generic mirrored backward pass — grads, weight grads,
 * optimizer updates — can be emitted for any model.
 */

#ifndef SENTINEL_MODELS_COMMON_HH
#define SENTINEL_MODELS_COMMON_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/parse.hh"
#include "common/rng.hh"
#include "dataflow/graph.hh"

namespace sentinel::models {

/** Store a parsed name override @p v in @p *field; whether it parsed. */
template <class T>
bool
setIf(std::optional<T> v, T *field)
{
    if (v)
        *field = *v;
    return v.has_value();
}

/**
 * Apply the "k=v,..." overrides @p text of a model name to @p p with
 * @p apply(p, key, value); false on an empty clause, one without a key
 * or '=', or one @p apply rejects.
 */
template <class P>
bool
applyOverrides(P &p, const std::string &text,
               bool (*apply)(P &, const std::string &, const std::string &))
{
    for (const std::string &clause : split(text, ",")) {
        const std::size_t eq = clause.find('=');
        if (eq == std::string::npos || eq == 0 ||
            !apply(p, clause.substr(0, eq), clause.substr(eq + 1)))
            return false;
    }
    return true;
}

/** Bytes of @p elems FP32 elements. */
constexpr std::uint64_t
fp32(std::uint64_t elems)
{
    return elems * 4;
}

class ModelBuilder
{
  public:
    ModelBuilder(std::string name, int batch, std::uint64_t seed = 1);

    int batch() const { return batch_; }

    /** Finalize and return the graph. */
    df::Graph finish();

    // --- Layers ------------------------------------------------------------

    /** Open the next layer; subsequent ops belong to it. */
    int beginLayer();
    int currentLayer() const { return layer_; }

    // --- Tensor creation ----------------------------------------------------

    df::TensorId weight(const std::string &name, std::uint64_t bytes);
    /** Small parameter (BN scale/bias, biases): preallocated + hot. */
    df::TensorId smallParam(const std::string &name, std::uint64_t bytes);
    df::TensorId optimizerState(const std::string &name,
                                std::uint64_t bytes);
    df::TensorId inputTensor(const std::string &name, std::uint64_t bytes);
    df::TensorId activation(const std::string &name, std::uint64_t bytes);
    df::TensorId gradient(const std::string &name, std::uint64_t bytes);
    df::TensorId temp(const std::string &name, std::uint64_t bytes);

    // --- Use helpers ----------------------------------------------------------

    /** Streamed read: traffic = bytes, ~1 episode per page. */
    static df::TensorUse read(df::TensorId t, std::uint64_t bytes,
                              double episodes = 1.0);
    static df::TensorUse write(df::TensorId t, std::uint64_t bytes,
                               double episodes = 1.0);
    /** Weight-style read: partially cache-resident, revisited. */
    static df::TensorUse readWeight(df::TensorId t, std::uint64_t bytes);
    /** Hot small-parameter read: revisited across the whole op. */
    static df::TensorUse readParam(df::TensorId t, std::uint64_t bytes);

    // --- Operation emission ---------------------------------------------------

    /**
     * Add an op in the current layer.  Automatically attaches
     * @p n_small_temps short-lived sub-page scratch tensors and one
     * bookkeeping-scalar read (the hot set of Observation 2).
     * Negative @p n_small_temps means "use the builder default" (8
     * unless setDefaultTemps() changed it).
     */
    df::OpId op(const std::string &name, df::OpType type, double flops,
                std::vector<df::TensorUse> uses, int n_small_temps = -1);

    /** Scratch count ops attach when they don't pass one explicitly —
     *  the synthetic generator's short-/long-lived mix knob. */
    void setDefaultTemps(int n) { default_temps_ = n; }

    // --- Composite units (each records itself for the backward pass) -----

    /**
     * conv -> [batch-norm] -> [relu].  One layer.  @return the output
     * activation (saved for backward).  The conv raw output and the BN
     * output are short-lived, exactly as in Fig. 2 of the paper.
     */
    df::TensorId convUnit(const std::string &prefix, df::TensorId in_act,
                          int cin, int cout, int k, int h, int w,
                          int stride, bool bn = true, bool relu = true,
                          double flops_scale = 1.0, bool lower = true);

    /** matmul -> bias [-> activation].  One layer. */
    df::TensorId matmulUnit(const std::string &prefix, df::TensorId in_act,
                            std::uint64_t rows, std::uint64_t in_features,
                            std::uint64_t out_features,
                            bool activation_fn = true);

    /** Multi-head self-attention + output projection.  One layer. */
    df::TensorId attentionUnit(const std::string &prefix,
                               df::TensorId in_act, std::uint64_t seq,
                               std::uint64_t hidden, std::uint64_t heads);

    /**
     * One LSTM timestep for one stacked cell.  Weights are shared
     * across timesteps (passed in).  One layer.
     * @return the new hidden state.
     */
    df::TensorId lstmUnit(const std::string &prefix, df::TensorId x,
                          df::TensorId h_prev, df::TensorId w_ih,
                          df::TensorId w_hh, std::uint64_t hidden);

    /** Softmax + loss; returns the gradient seeding the backward pass. */
    df::TensorId lossLayer(df::TensorId logits, std::uint64_t logits_bytes);

    /**
     * Emit mirrored backward layers (reverse unit order): gradient
     * ops, short-lived weight gradients, and SGD updates.
     */
    void buildBackward(df::TensorId loss_grad);

    /** Dimensions of the most recent convUnit output (h, w). */
    int outH(int h, int stride) const { return (h + stride - 1) / stride; }

  private:
    struct UnitRecord {
        std::string prefix;
        df::OpType bwd_type = df::OpType::ConvBackward;
        df::TensorId in_act = df::kInvalidTensor;
        std::uint64_t in_bytes = 0;
        df::TensorId out_act = df::kInvalidTensor;
        std::uint64_t out_bytes = 0;
        std::vector<df::TensorId> weights;
        std::vector<std::uint64_t> weight_bytes;
        std::vector<df::TensorId> opt_states; ///< parallel to weights
        /** Extra saved activations the backward op re-reads. */
        std::vector<std::pair<df::TensorId, std::uint64_t>> saved;
        double flops = 0.0;
    };

    void recordUnit(UnitRecord u) { units_.push_back(std::move(u)); }

    df::Graph graph_;
    int batch_;
    int layer_ = -1;
    Rng rng_;
    std::vector<df::TensorId> hot_scalars_;
    std::size_t next_scalar_ = 0;
    std::uint64_t temp_counter_ = 0;
    int default_temps_ = 8;
    std::vector<UnitRecord> units_;
};

} // namespace sentinel::models

#endif // SENTINEL_MODELS_COMMON_HH
