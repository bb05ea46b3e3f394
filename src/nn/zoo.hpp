// Model zoo: victim architectures beyond the paper's LeNet-5 (Sec. V
// future work, "more DNN architectures").
//
// Every architecture is built from the same supported layer set
// (Conv2d / MaxPool2d / Dense / tanh / sign), so the whole pipeline —
// training, quantization (quant::quantize_sequential), cycle-level
// execution and the attack — works on all of them unchanged. One
// architecture table drives name parsing, CLI help, input-shape/class
// metadata and the per-architecture accelerator profile; adding a victim
// means adding one table row plus its builder case.
#pragma once

#include <string>
#include <vector>

#include "nn/model.hpp"
#include "nn/trainer.hpp"

namespace deepstrike::nn {

enum class Architecture {
    LeNet5,  // the paper's victim: conv-pool-conv-fc-fc
    MiniCnn, // conv-pool-conv-pool-fc-fc (second pooling stage)
    Mlp,     // fc-fc-fc (no convolutions: a DSP-light victim)
    Bnn,     // binarized victim: ±1 weights, sign activations (Moini et al.)
};

/// Static metadata for one zoo architecture: everything the generic
/// pipeline needs that is not derivable from the weights themselves.
struct ArchitectureInfo {
    Architecture arch;
    const char* name;        // CLI / cache-key spelling ("lenet5")
    const char* summary;     // one-line description for help text
    Shape input_shape;       // [C,H,W] the builder expects
    std::size_t num_classes; // logit count
    /// Deploys with ±1 weights (quant::QuantFormat::Binary).
    bool binary_weights;
    /// Default SGD step: the binarized victim's ±1-weight gradients need
    /// a larger step than the tanh CNNs' 0.05 (sign(w) only changes when
    /// the real-valued shadow weight crosses zero).
    double learning_rate;
};

/// The architecture table, in enum order.
const std::vector<ArchitectureInfo>& architectures();

/// Metadata for one architecture.
const ArchitectureInfo& architecture_info(Architecture arch);

const char* architecture_name(Architecture arch);

/// Parses a CLI spelling; the error message lists every known name.
Architecture parse_architecture(const std::string& name);

/// "lenet5|minicnn|mlp|bnn" — generated from the table for help text.
std::string architecture_list_string();

/// Builds an untrained instance of the architecture (input shape and class
/// count per architecture_info()).
Sequential build_architecture(Architecture arch, Rng& rng);

struct ZooTrainSpec {
    Architecture architecture = Architecture::LeNet5;
    std::uint64_t data_seed = 42;
    std::size_t train_size = 3000;
    std::size_t test_size = 600;
    std::uint64_t init_seed = 7;
    TrainConfig train_config = default_zoo_train_config();
    std::string cache_dir = ".deepstrike_cache";

    static TrainConfig default_zoo_train_config() {
        TrainConfig c;
        c.epochs = 4;
        return c;
    }
};

/// A ZooTrainSpec with the architecture's table defaults applied
/// (currently the per-architecture learning rate).
ZooTrainSpec zoo_spec(Architecture arch);

struct TrainedModel {
    Sequential model;
    double test_accuracy = 0.0;
    bool loaded_from_cache = false;
};

/// Trains (or loads from the weight cache) the given architecture and
/// scores it on the test split. The cache file (nn/serialize.hpp, DSW2)
/// stores the float test accuracy with the weights, so a hit renders and
/// scores nothing. A DSW1 file under the old name is scored once and
/// stored again as DSW2; the DSW1 file is left as it is. A cache file
/// that does not load is replaced by a retrain from `init_seed`,
/// bit-identical to a clean cache miss. Throws ConfigError for a train or
/// test size of 0.
TrainedModel train_or_load(const ZooTrainSpec& spec);

} // namespace deepstrike::nn
