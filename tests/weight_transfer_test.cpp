// Weight-stream view + weight-transfer fault hook (the second fault
// injection surface: Deep-Dup duplication, DeepLaser bit flips).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include "accel/arch_profiles.hpp"
#include "accel/weight_transfer.hpp"
#include "nn/zoo.hpp"
#include "quant/qnetwork.hpp"
#include "quant/weight_stream.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

using namespace deepstrike;
using accel::WeightFault;
using accel::WeightFaultKind;
using accel::WeightTransferParams;
using quant::WeightStreamView;

namespace {

/// Reads stream word `index` of `network` through the view.
fx::Q3_4 word_at(const quant::QNetwork& network, const WeightStreamView& view,
                 std::size_t index) {
    const WeightStreamView::WordRef ref = view.locate(index);
    return network.layers[ref.layer].weight[ref.element];
}

/// The fault rule word by word through WeightStreamView::locate:
/// duplications copy the original previous beat, then bit flips apply to
/// the post-duplication word.
quant::QNetwork word_oracle(const quant::QNetwork& network, const WeightStreamView& view,
                            const std::vector<WeightFault>& faults, std::size_t beat_words) {
    quant::QNetwork out = network;
    const auto word = [&](quant::QNetwork& net, std::size_t index) -> fx::Q3_4& {
        const WeightStreamView::WordRef ref = view.locate(index);
        return net.layers[ref.layer].weight[ref.element];
    };
    for (const WeightFault& fault : faults) {
        const std::size_t beat = fault.index / beat_words;
        if (fault.kind != WeightFaultKind::Duplicate || beat == 0) continue;
        for (std::size_t i = beat * beat_words;
             i < std::min((beat + 1) * beat_words, view.size()); ++i) {
            word(out, i) = word_at(network, view, i - beat_words);
        }
    }
    for (const WeightFault& fault : faults) {
        if (fault.kind != WeightFaultKind::BitFlip) continue;
        fx::Q3_4& w = word(out, fault.index);
        w = fx::Q3_4::from_raw(static_cast<std::int16_t>(static_cast<std::int8_t>(
            static_cast<std::uint8_t>(w.raw()) ^ (1u << fault.bit))));
    }
    return out;
}

/// Every layer's weights and biases equal.
void expect_same_words(const quant::QNetwork& got, const quant::QNetwork& want,
                       const std::string& what) {
    ASSERT_EQ(got.layers.size(), want.layers.size()) << what;
    for (std::size_t li = 0; li < want.layers.size(); ++li) {
        ASSERT_EQ(got.layers[li].weight, want.layers[li].weight) << what << " layer " << li;
        ASSERT_EQ(got.layers[li].bias, want.layers[li].bias) << what << " layer " << li;
    }
}

} // namespace

TEST(WeightStreamView, CoversExactlyTheConvAndDenseWeights) {
    const quant::QNetwork net = deepstrike::testing::random_qnetwork(11);
    const WeightStreamView view(net);

    std::size_t expected = 0;
    for (const quant::QLayer& layer : net.layers) {
        if (layer.kind == quant::QLayerKind::Conv ||
            layer.kind == quant::QLayerKind::Dense) {
            expected += layer.weight.size();
        }
    }
    EXPECT_EQ(view.size(), expected);
    // LeNet-5 shape: conv1 150 + conv2 2400 + fc1 122880 + fc2 1200.
    EXPECT_EQ(view.size(), 150u + 2400u + 122880u + 1200u);
    // The pool layer carries no span: 4 addressable layers out of 5.
    EXPECT_EQ(view.spans().size(), 4u);
}

TEST(WeightStreamView, LocateMapsSpanBoundaries) {
    const quant::QNetwork net = deepstrike::testing::random_qnetwork(12);
    const WeightStreamView view(net);

    // conv1 occupies [0, 150): first and last word.
    EXPECT_EQ(view.locate(0).layer, 0u);
    EXPECT_EQ(view.locate(0).element, 0u);
    EXPECT_EQ(view.locate(149).layer, 0u);
    EXPECT_EQ(view.locate(149).element, 149u);
    // conv2 starts at 150 (layer index 2 — POOL1 is layer 1).
    EXPECT_EQ(view.locate(150).layer, 2u);
    EXPECT_EQ(view.locate(150).element, 0u);
    // Last word of the stream lands in FC2 (layer 4).
    EXPECT_EQ(view.locate(view.size() - 1).layer, 4u);
    EXPECT_THROW(view.locate(view.size()), ContractError);
}

TEST(WeightStreamView, FirstFaultedLayer) {
    const quant::QNetwork net = deepstrike::testing::random_qnetwork(13);
    const WeightStreamView view(net);
    const std::size_t layers = net.layers.size();

    EXPECT_EQ(view.first_faulted_layer({}, layers), layers);
    EXPECT_EQ(view.first_faulted_layer({0}, layers), 0u);
    EXPECT_EQ(view.first_faulted_layer({150}, layers), 2u);
    // fc1 starts at 150 + 2400 = 2550.
    EXPECT_EQ(view.first_faulted_layer({2550}, layers), 3u);
    EXPECT_EQ(view.first_faulted_layer({2550, 149}, layers), 0u);
    EXPECT_EQ(view.first_faulted_layer({125435}, layers), 4u);
    EXPECT_THROW(view.first_faulted_layer({static_cast<std::uint32_t>(view.size())}, layers),
                 ContractError);

    // Deep-Dup duplications rewrite their whole 64-word beat, and beats 2
    // (words 128-191), 39 (2496-2559) and 1959 (125376-125439) straddle the
    // CONV1/CONV2, CONV2/FC1 and FC1/FC2 boundaries. Beat 0 (words 0-63)
    // has no predecessor, so a duplication there rewrites nothing.
    const accel::WeightTransferParams params;
    const auto dup_first = [&](const std::vector<std::uint32_t>& indices) {
        return accel::first_faulted_layer(
            view, accel::uniform_weight_faults(indices, WeightFaultKind::Duplicate), params,
            layers);
    };
    EXPECT_EQ(dup_first({150}), 0u);
    EXPECT_EQ(dup_first({191}), 0u);
    EXPECT_EQ(dup_first({192}), 2u);
    EXPECT_EQ(dup_first({2550}), 2u);
    EXPECT_EQ(dup_first({125435}), 3u);
    EXPECT_EQ(dup_first({}), layers);
    EXPECT_EQ(dup_first({0}), layers);
    EXPECT_EQ(dup_first({63}), layers);
    EXPECT_EQ(dup_first({5, 64}), 0u);
    EXPECT_EQ(dup_first({5, 2550}), 2u);
    // A bit flip rewrites its own word only, beat 0 included.
    EXPECT_EQ(accel::first_faulted_layer(
                  view, accel::uniform_weight_faults({5}, WeightFaultKind::BitFlip), params,
                  layers),
              0u);
    EXPECT_THROW(dup_first({static_cast<std::uint32_t>(view.size())}), ContractError);
}

// rewritten_span is the rule patch_weight_faults applies: every span a
// patch reports is the span of one of its faults, and a beat-0
// duplication rewrites no word.
TEST(WeightTransfer, RewrittenSpansAreThePatchedSpans) {
    const quant::QNetwork net = deepstrike::testing::random_qnetwork(14);
    const WeightStreamView view(net);
    const accel::WeightTransferParams params;
    for (const WeightFaultKind kind : {WeightFaultKind::Duplicate, WeightFaultKind::BitFlip}) {
        for (const std::vector<std::uint32_t>& indices :
             std::vector<std::vector<std::uint32_t>>{
                 {0}, {63}, {64}, {2550}, {0, 2550, 125435},
                 {static_cast<std::uint32_t>(view.size() - 1)}}) {
            const std::vector<WeightFault> faults = accel::uniform_weight_faults(indices, kind);
            quant::QNetwork working = net;
            const std::vector<accel::StreamSpan> patched =
                accel::patch_weight_faults(net, view, faults, params, working);
            std::vector<accel::StreamSpan> expected;
            for (const WeightFault& fault : faults) {
                const accel::StreamSpan span = accel::rewritten_span(fault, view.size(), params);
                if (!span.empty()) expected.push_back(span);
            }
            ASSERT_EQ(patched.size(), expected.size());
            for (std::size_t i = 0; i < expected.size(); ++i) {
                EXPECT_EQ(patched[i].begin, expected[i].begin);
                EXPECT_EQ(patched[i].end, expected[i].end);
            }
            if (kind == WeightFaultKind::Duplicate && indices == std::vector<std::uint32_t>{0}) {
                EXPECT_TRUE(patched.empty());
                EXPECT_EQ(working.layers[0].weight, net.layers[0].weight);
            }
        }
    }
    EXPECT_TRUE(accel::rewritten_span({63, WeightFaultKind::Duplicate}, view.size(), params)
                    .empty());
    const accel::StreamSpan last = accel::rewritten_span(
        {static_cast<std::uint32_t>(view.size() - 1), WeightFaultKind::Duplicate}, view.size(),
        params);
    EXPECT_EQ(last.end, view.size());
    EXPECT_EQ(last.begin, (view.size() - 1) / 64 * 64);
}

TEST(WeightTransfer, EmptyFaultSetIsByteIdentical) {
    const quant::QNetwork net = deepstrike::testing::random_qnetwork(21);
    const quant::QNetwork deployed = accel::apply_weight_faults(net, {});
    ASSERT_EQ(deployed.layers.size(), net.layers.size());
    for (std::size_t li = 0; li < net.layers.size(); ++li) {
        EXPECT_EQ(deployed.layers[li].weight, net.layers[li].weight);
        EXPECT_EQ(deployed.layers[li].bias, net.layers[li].bias);
    }
    const QTensor image = deepstrike::testing::random_qimage(99);
    EXPECT_EQ(deployed.forward(image), net.forward(image));
}

TEST(WeightTransfer, DuplicateOracleWholeBeatFromPrevious) {
    const quant::QNetwork net = deepstrike::testing::random_qnetwork(22);
    const WeightStreamView view(net);
    WeightTransferParams params;
    params.beat_words = 8; // small beats make the oracle arithmetic obvious

    // Fault stream index 20 -> beat 2 (words 16..23) takes beat 1's data
    // (words 8..15); every other word is untouched.
    const quant::QNetwork faulted = accel::apply_weight_faults(
        net, {WeightFault{20, WeightFaultKind::Duplicate, 0}}, params);
    for (std::size_t i = 0; i < 64; ++i) {
        const fx::Q3_4 expected =
            (i >= 16 && i < 24) ? word_at(net, view, i - 8) : word_at(net, view, i);
        EXPECT_EQ(word_at(faulted, view, i).raw(), expected.raw()) << "word " << i;
    }
}

TEST(WeightTransfer, DuplicateBeatZeroIsNoOp) {
    const quant::QNetwork net = deepstrike::testing::random_qnetwork(23);
    const quant::QNetwork faulted = accel::apply_weight_faults(
        net, {WeightFault{3, WeightFaultKind::Duplicate, 0}},
        WeightTransferParams{8});
    for (std::size_t li = 0; li < net.layers.size(); ++li) {
        EXPECT_EQ(faulted.layers[li].weight, net.layers[li].weight);
    }
}

TEST(WeightTransfer, DuplicateBeatStraddlesLayerBoundary) {
    // conv1 holds stream words [0, 150); with 64-word beats, beat 2 covers
    // words 128..191 — the tail of conv1 and the head of conv2. The DMA
    // bursts the flat stream, so the duplication must straddle the layers.
    const quant::QNetwork net = deepstrike::testing::random_qnetwork(24);
    const WeightStreamView view(net);
    const quant::QNetwork faulted = accel::apply_weight_faults(
        net, {WeightFault{130, WeightFaultKind::Duplicate, 0}},
        WeightTransferParams{64});
    for (std::size_t i = 128; i < 192; ++i) {
        EXPECT_EQ(word_at(faulted, view, i).raw(), word_at(net, view, i - 64).raw())
            << "word " << i;
    }
    EXPECT_EQ(word_at(faulted, view, 127).raw(), word_at(net, view, 127).raw());
    EXPECT_EQ(word_at(faulted, view, 192).raw(), word_at(net, view, 192).raw());
}

TEST(WeightTransfer, DuplicateSourcesAreOriginalNotChained) {
    // Two adjacent duplications: beat 2 must copy the ORIGINAL beat 1,
    // not beat 1 post-fault — the result is order-independent.
    const quant::QNetwork net = deepstrike::testing::random_qnetwork(25);
    const WeightStreamView view(net);
    const WeightTransferParams params{8};
    const std::vector<WeightFault> ab = {
        WeightFault{8, WeightFaultKind::Duplicate, 0},
        WeightFault{16, WeightFaultKind::Duplicate, 0}};
    const std::vector<WeightFault> ba = {ab[1], ab[0]};
    const quant::QNetwork f1 = accel::apply_weight_faults(net, ab, params);
    const quant::QNetwork f2 = accel::apply_weight_faults(net, ba, params);
    for (std::size_t i = 0; i < 32; ++i) {
        EXPECT_EQ(word_at(f1, view, i).raw(), word_at(f2, view, i).raw());
    }
    // Beat 2 carries original beat 1, not beat 0 (the chained reading).
    for (std::size_t i = 16; i < 24; ++i) {
        EXPECT_EQ(word_at(f1, view, i).raw(), word_at(net, view, i - 8).raw());
    }
}

TEST(WeightTransfer, BitFlipOracleSignBit) {
    const quant::QNetwork net = deepstrike::testing::random_qnetwork(26);
    const WeightStreamView view(net);
    const std::size_t target = 2600; // lands in FC1

    const quant::QNetwork faulted = accel::apply_weight_faults(
        net, {WeightFault{target, WeightFaultKind::BitFlip, 7}});
    const std::int16_t before = word_at(net, view, target).raw();
    const std::int16_t after = word_at(faulted, view, target).raw();
    // Hand-computed: XOR of bit 7 on the 8-bit two's-complement code,
    // sign-extended — the value moves by exactly -+8.0 (128 raw units).
    const auto expected = static_cast<std::int16_t>(static_cast<std::int8_t>(
        static_cast<std::uint8_t>(before) ^ 0x80u));
    EXPECT_EQ(after, expected);
    EXPECT_EQ(std::abs(after - before), 128);
    // Only the targeted word changed.
    EXPECT_EQ(word_at(faulted, view, target - 1).raw(),
              word_at(net, view, target - 1).raw());
    EXPECT_EQ(word_at(faulted, view, target + 1).raw(),
              word_at(net, view, target + 1).raw());
}

TEST(WeightTransfer, BitFlipLowBitAndInvolution) {
    const quant::QNetwork net = deepstrike::testing::random_qnetwork(27);
    const WeightStreamView view(net);
    const quant::QNetwork once = accel::apply_weight_faults(
        net, {WeightFault{5, WeightFaultKind::BitFlip, 0}});
    EXPECT_EQ(std::abs(word_at(once, view, 5).raw() - word_at(net, view, 5).raw()), 1);
    // Flipping the same bit twice restores the original word.
    const quant::QNetwork twice = accel::apply_weight_faults(
        once, {WeightFault{5, WeightFaultKind::BitFlip, 0}});
    EXPECT_EQ(word_at(twice, view, 5).raw(), word_at(net, view, 5).raw());
}

TEST(WeightTransfer, RandomizedNoFaultPathMatchesPlainForward) {
    // The faulted deployment of an EMPTY fault set must be byte-equivalent
    // to the plain network on random images, for random networks.
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        const quant::QNetwork net = deepstrike::testing::random_qnetwork(seed * 31);
        const quant::QNetwork deployed = accel::apply_weight_faults(net, {});
        const QTensor image = deepstrike::testing::random_qimage(seed * 77);
        EXPECT_EQ(deployed.forward(image), net.forward(image)) << "seed " << seed;
    }
}

TEST(WeightTransfer, ForwardFromMatchesFullForwardAtEveryLayer) {
    // The golden-prefix elision primitive: resuming the forward pass at
    // layer k from the recorded activation reproduces the suffix
    // byte-exactly, faulted weights or not.
    const quant::QNetwork net = deepstrike::testing::random_qnetwork(41);
    const quant::QNetwork faulted = accel::apply_weight_faults(
        net, {WeightFault{2600, WeightFaultKind::BitFlip, 7}});
    const QTensor image = deepstrike::testing::random_qimage(42);

    EXPECT_EQ(net.forward_from(0, image), net.forward(image));
    const std::vector<QTensor> acts = faulted.forward_trace(image).activations;
    const QTensor full = faulted.forward(image);
    for (std::size_t k = 1; k <= faulted.layers.size(); ++k) {
        const QTensor resumed = k == faulted.layers.size()
                                    ? acts.back()
                                    : faulted.forward_from(k, acts[k - 1]);
        EXPECT_EQ(resumed, full) << "resume at layer " << k;
    }
}

TEST(WeightTransfer, UniformFaultsAndValidation) {
    const auto faults = accel::uniform_weight_faults(
        {3, 9, 1}, WeightFaultKind::BitFlip, 6);
    ASSERT_EQ(faults.size(), 3u);
    EXPECT_EQ(faults[1].index, 9u);
    EXPECT_EQ(faults[1].kind, WeightFaultKind::BitFlip);
    EXPECT_EQ(faults[1].bit, 6);

    const quant::QNetwork net = deepstrike::testing::random_qnetwork(51);
    const WeightStreamView view(net);
    EXPECT_THROW(accel::apply_weight_faults(
                     net, {WeightFault{static_cast<std::uint32_t>(view.size()),
                                       WeightFaultKind::BitFlip, 0}}),
                 ContractError);
    EXPECT_THROW(accel::apply_weight_faults(
                     net, {WeightFault{0, WeightFaultKind::BitFlip, 8}}),
                 ContractError);
    EXPECT_THROW(accel::apply_weight_faults(
                     net, {WeightFault{0, WeightFaultKind::Duplicate, 0}},
                     WeightTransferParams{0}),
                 ContractError);
}

TEST(WeightTransfer, KindNamesRoundTrip) {
    EXPECT_STREQ(accel::weight_fault_kind_name(WeightFaultKind::Duplicate),
                 "duplicate");
    EXPECT_STREQ(accel::weight_fault_kind_name(WeightFaultKind::BitFlip),
                 "bit-flip");
    EXPECT_EQ(accel::parse_weight_fault_kind("duplicate"),
              WeightFaultKind::Duplicate);
    EXPECT_EQ(accel::parse_weight_fault_kind("bit-flip"), WeightFaultKind::BitFlip);
    EXPECT_THROW(accel::parse_weight_fault_kind("laser"), ConfigError);
}

// The in-place patch is apply_weight_faults' rule on a working copy. On
// every zoo victim, Deep-Dup and DeepLaser sets of 1-10 indices — random
// ones, and hand-picked ones holding beat 0, the stream's last beat
// (partial on LeNet-5's 126,630 words), adjacent beats that must not
// chain, repeated indices and a beat straddling two layers — are patched
// into one working copy in turn. Each patch must leave it byte-equal to
// apply_weight_faults' copy and to a word-by-word oracle of the rule, and
// each restore byte-equal to the victim.
TEST(WeightTransfer, InPlacePatchMatchesCopyAndRestores) {
    const WeightTransferParams params{64};
    for (const nn::ArchitectureInfo& info : nn::architectures()) {
        Rng rng(derive_seed(611, static_cast<std::uint64_t>(info.arch)));
        nn::Sequential model = nn::build_architecture(info.arch, rng);
        const quant::QNetwork net = quant::quantize_sequential(
            model, info.input_shape, {}, quant::quant_format_for(info.arch));
        const WeightStreamView view(net);
        const auto size = static_cast<std::uint32_t>(view.size());
        // The first layer boundary inside a beat: that beat straddles two
        // layers. Where every boundary is beat-aligned (mlp), the first
        // boundary: its beat's duplication source lies in the layer
        // before.
        ASSERT_GE(view.spans().size(), 2u) << info.name;
        auto straddle = static_cast<std::uint32_t>(view.spans()[1].offset);
        for (const WeightStreamView::LayerSpan& span : view.spans()) {
            if (span.offset % params.beat_words != 0) {
                straddle = static_cast<std::uint32_t>(span.offset);
                break;
            }
        }
        if (info.arch == nn::Architecture::LeNet5) {
            EXPECT_NE(straddle % params.beat_words, 0u);
        }

        std::vector<std::vector<std::uint32_t>> sets = {
            {0},
            {5, 63},
            {size - 1},
            {64, 128},
            {192, 128, 64, 256},
            {70, 70},
            {size - 1, size - 1, 3},
            {straddle},
            {straddle - 1, straddle + 64, straddle + 128},
        };
        for (int n = 0; n < 40; ++n) {
            std::vector<std::uint32_t> set(static_cast<std::size_t>(rng.uniform_int(1, 10)));
            for (std::uint32_t& index : set) {
                index = static_cast<std::uint32_t>(rng.uniform_int(0, size - 1));
            }
            sets.push_back(std::move(set));
        }
        if (info.arch == nn::Architecture::LeNet5) {
            EXPECT_NE(size % params.beat_words, 0u); // the last beat is partial
        }

        quant::QNetwork working = net;
        for (const WeightFaultKind kind : {WeightFaultKind::Duplicate, WeightFaultKind::BitFlip}) {
            for (std::size_t s = 0; s < sets.size(); ++s) {
                const auto bit = static_cast<std::uint8_t>(rng.uniform_int(0, 7));
                const std::vector<WeightFault> faults =
                    accel::uniform_weight_faults(sets[s], kind, bit);
                const std::string what = std::string(info.name) + " " +
                                         accel::weight_fault_kind_name(kind) + " set " +
                                         std::to_string(s);
                const std::vector<accel::StreamSpan> spans =
                    accel::patch_weight_faults(net, view, faults, params, working);
                expect_same_words(working, accel::apply_weight_faults(net, faults, params),
                                  what + " patched");
                expect_same_words(working, word_oracle(net, view, faults, params.beat_words),
                                  what + " patched, word oracle");
                accel::restore_weight_spans(net, view, spans, working);
                expect_same_words(working, net, what + " restored");
            }
        }
    }
}
