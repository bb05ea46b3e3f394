// SGD trainer with softmax cross-entropy.
#pragma once

#include <cstddef>
#include <vector>

#include "data/synth_mnist.hpp"
#include "nn/model.hpp"
#include "util/rng.hpp"

namespace deepstrike::nn {

struct TrainConfig {
    std::size_t epochs = 5;
    std::size_t batch_size = 16;
    double learning_rate = 0.05;
    double momentum = 0.9;
    double lr_decay = 0.7;       // multiplied into lr after each epoch
    std::uint64_t shuffle_seed = 17;
    bool verbose = false;        // per-epoch log lines
};

struct EpochStats {
    double mean_loss = 0.0;
    double train_accuracy = 0.0;
};

/// Trains `model` in place; returns per-epoch statistics.
std::vector<EpochStats> train(Sequential& model, const data::Dataset& train_set,
                              const TrainConfig& config);

/// Fraction of samples whose argmax(logits) equals the label. Scores
/// the images with Sequential::predict across the global pool; the
/// result does not depend on its width.
double evaluate_accuracy(const Sequential& model, const data::Dataset& test_set);

/// Cross-entropy of softmax(logits) against a one-hot label, plus the
/// gradient dLoss/dLogits (softmax - onehot). Exposed for tests.
struct LossResult {
    double loss;
    FloatTensor grad_logits;
};
LossResult softmax_cross_entropy(const FloatTensor& logits, std::size_t label);

} // namespace deepstrike::nn
