#include "nn/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "util/error.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"

namespace deepstrike::nn {

LossResult softmax_cross_entropy(const FloatTensor& logits, std::size_t label) {
    expects(label < logits.size(), "softmax_cross_entropy: label in range");
    FloatTensor probs = softmax(logits);
    // Clamp to avoid log(0) when the model is badly wrong early in training.
    const double p = std::max(static_cast<double>(probs[label]), 1e-12);
    LossResult result{-std::log(p), probs};
    result.grad_logits[label] -= 1.0f;
    return result;
}

namespace {

/// SGD with classical momentum; one velocity tensor per parameter.
class SgdOptimizer {
public:
    SgdOptimizer(std::vector<Parameter*> params, double momentum)
        : params_(std::move(params)), momentum_(momentum) {
        velocities_.reserve(params_.size());
        for (Parameter* p : params_) {
            velocities_.emplace_back(p->value.shape(), 0.0f);
        }
    }

    void step(double lr, double inv_batch) {
        for (std::size_t i = 0; i < params_.size(); ++i) {
            Parameter& p = *params_[i];
            FloatTensor& v = velocities_[i];
            for (std::size_t j = 0; j < p.value.size(); ++j) {
                const float g = p.grad.at_unchecked(j) * static_cast<float>(inv_batch);
                const float vel = static_cast<float>(momentum_) * v.at_unchecked(j) -
                                  static_cast<float>(lr) * g;
                v.at_unchecked(j) = vel;
                p.value.at_unchecked(j) += vel;
            }
        }
    }

private:
    std::vector<Parameter*> params_;
    std::vector<FloatTensor> velocities_;
    double momentum_;
};

} // namespace

std::vector<EpochStats> train(Sequential& model, const data::Dataset& train_set,
                              const TrainConfig& config) {
    expects(train_set.size() > 0, "train: non-empty training set");
    expects(config.batch_size > 0, "train: positive batch size");

    SgdOptimizer optimizer(model.parameters(), config.momentum);
    Rng shuffle_rng(config.shuffle_seed);
    std::vector<std::size_t> order(train_set.size());
    std::iota(order.begin(), order.end(), 0);

    std::vector<EpochStats> history;
    double lr = config.learning_rate;

    for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
        std::shuffle(order.begin(), order.end(), shuffle_rng);

        double loss_sum = 0.0;
        std::size_t correct = 0;

        for (std::size_t start = 0; start < order.size(); start += config.batch_size) {
            const std::size_t end = std::min(start + config.batch_size, order.size());
            model.zero_grad();
            for (std::size_t i = start; i < end; ++i) {
                const std::size_t idx = order[i];
                FloatTensor logits = model.forward(train_set.images[idx]);
                if (argmax(logits) == train_set.labels[idx]) ++correct;
                LossResult lr_result = softmax_cross_entropy(logits, train_set.labels[idx]);
                loss_sum += lr_result.loss;
                model.backward(lr_result.grad_logits);
            }
            optimizer.step(lr, 1.0 / static_cast<double>(end - start));
        }

        EpochStats stats;
        stats.mean_loss = loss_sum / static_cast<double>(order.size());
        stats.train_accuracy = static_cast<double>(correct) / static_cast<double>(order.size());
        history.push_back(stats);
        if (config.verbose) {
            log_info("epoch ", epoch + 1, "/", config.epochs, " loss=", stats.mean_loss,
                     " acc=", stats.train_accuracy, " lr=", lr);
        }
        lr *= config.lr_decay;
    }
    return history;
}

double evaluate_accuracy(const Sequential& model, const data::Dataset& test_set) {
    expects(test_set.size() > 0, "evaluate_accuracy: non-empty test set");
    std::vector<std::uint8_t> hit(test_set.size());
    parallel_for(test_set.size(), [&](std::size_t i) {
        hit[i] = argmax(model.predict(test_set.images[i])) == test_set.labels[i];
    });
    const auto correct = static_cast<std::size_t>(std::count(hit.begin(), hit.end(), 1));
    return static_cast<double>(correct) / static_cast<double>(test_set.size());
}

} // namespace deepstrike::nn
